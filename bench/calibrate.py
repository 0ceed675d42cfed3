"""Fixed reference program timed alongside every CLI invocation.

It imports no sparselms code, so no change to the package can alter its
run time; only the machine's current speed can.  Its mix resembles the
workloads': interpreter start and numpy import, small numpy operations
in a Python loop (a thresholded LMS step), one large array reduction and
text emission.  ``run.py`` divides each invocation's time by the time of
the calibration run next to it.
"""

import json

import numpy as np

rng = np.random.default_rng(0)
inputs = rng.standard_normal((2000, 256))
truth = np.zeros(256)
truth[:28] = 1.0
outputs = inputs @ truth
for _ in range(3):
    w = np.zeros(256)
    snapshots = []
    for x, y in zip(inputs, outputs):
        e = y - float(np.dot(w, x))
        u = w + 0.005 * (e * x)
        mags = np.abs(u)
        cut = np.partition(mags, 228)[228]
        w = u.copy()
        w[mags < cut] = 0
        snapshots.append(w)
    errors = np.sum((np.stack(snapshots) - truth) ** 2, axis=1)
    text = json.dumps([repr(float(v)) for v in errors])
