"""The public names the microbenchmarks in ``bench/micro.py`` call still work.

Each case of ``micro.cases`` reaches the package only through its public
API (``FilterState(..., iteration=)``, ``step``, ``complex_lms_step``,
``gen_spectrum_stream(..., passes=)``, ...), so calling every case once
catches an API change that would break the traced benchmark run.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.skipif(not (BENCH / "micro.py").exists(), reason="bench/micro.py is absent")
def test_every_micro_case_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import micro

    cases = micro.cases(0)
    assert cases
    for fn in cases.values():
        fn()
