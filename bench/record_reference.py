"""Record the headline results the benchmark's output checks compare against.

Runs each workload's CLI command on ``REFERENCE_SEEDS`` and stores in
``reference.json``, per algorithm, every headline value (final ESR in dB
for ``ident`` workloads, mean support hit rate for ``spectrum``), their
mean, and an allowed interval ``[min - m, max + m]`` with the margin
``m = max(floor, (max - min) / 2)``.  An invocation passes the check when
each of its headline values lies inside the interval.  The interval is
built from the range rather than a standard deviation because some
results are bimodal: a Monte Carlo run in which a hard-threshold filter
misses the support raises the run-averaged ESR by up to ~20 dB.  ``ident-par`` shares the
``ident`` reference.  Run from the repository root, at the commit whose
results become the reference:

    python3 bench/record_reference.py
"""

import json
import shutil
import statistics
import sys

from checks import REFERENCE_FILE, headline
from run import OUT_DIR, WORKLOADS, _git_sha, child_env, cli_argv, provenance, run_child

REFERENCE_SEEDS = [10_000 + 100 * k for k in range(40)]
FLOOR = {"ident": 1.0, "spectrum": 0.05}
UNIT = {"ident": "dB", "spectrum": "ratio"}


def _interval(values, floor):
    margin = max(floor, (max(values) - min(values)) / 2)
    return [min(values) - margin, max(values) + margin]


def main():
    env = child_env()
    work = OUT_DIR / "reference-work"
    work.mkdir(parents=True, exist_ok=True)
    workloads = {}
    try:
        for name, wl in WORKLOADS.items():
            if "same_bytes_as" in wl:
                continue
            values = {}
            for seed in REFERENCE_SEEDS:
                out = work / f"{name}-{seed}"
                code, *_ = run_child(cli_argv(wl["argv"], seed, out), env, work / "stderr")
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: exit status {code}")
                summary = json.loads((out / "summary.json").read_text())
                for label, value in headline(summary).items():
                    if value is None:
                        raise SystemExit(f"{name} seed {seed}: {label} result is not finite")
                    values.setdefault(label, []).append(value)
                shutil.rmtree(out)
            kind = wl["kind"]
            workloads[name] = {
                "argv": wl["argv"],
                "seeds": REFERENCE_SEEDS,
                "unit": UNIT[kind],
                "values": values,
                "mean": {l: statistics.fmean(v) for l, v in values.items()},
                "interval": {l: _interval(v, FLOOR[kind]) for l, v in values.items()},
            }
            print(f"{name}: " + ", ".join(f"{l} {statistics.fmean(v):.4g}" for l, v in values.items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov = provenance(None, None)
    record = {
        "recorded_at": {"git_sha": _git_sha(), "source_sha256": prov["source_sha256"]},
        "rule": "min - m <= value <= max + m over the seeds, m = max(floor, (max - min) / 2)",
        "floor": FLOOR,
        "workloads": workloads,
    }
    REFERENCE_FILE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
