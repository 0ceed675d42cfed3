"""Run every workload over several seeds, interleaved, and summarize.

Run from the repository root:

    python3 bench/repeat.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 25

Seeds form the outer loop and workloads the inner one, so slow drift of a
shared machine spreads over every workload instead of landing on one.
Each (seed, workload) pair is one ``bench/run.py --trace 0`` process.
Unless ``--no-trace`` is given, every workload then gets one traced run
(``--trace 1``) on the first seed.  The script prints, per workload and
metric, the median over seeds, the quartiles and the IQR as a share of the
median (the spread that ``BENCHMARK.json``'s bounds are judged against),
plus every run's check outcome, and writes all of it with provenance to
``bench/out/BENCH_<date>_<sha>.json``.
"""

import argparse
import datetime
import json
import subprocess
import sys
import time

from run import OUT_DIR, ROOT, WORKLOADS, provenance
from stats import summarize


def run_once(workload, seed, seconds, trace):
    argv = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {result.returncode}\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run per workload")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        for workload in WORKLOADS:
            result, _, elapsed = run_once(workload, seed, args.seconds, 0)
            runs.append({"workload": workload, "seed": seed, "trace": 0, "elapsed_s": elapsed, **result})
            print(
                f"{workload:<16} seed {seed:<6} correct={result['correct']} "
                f"failed {result['failed']}/{result['attempted']}  "
                + "  ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True,
            )
    traced = {}
    if not args.no_trace:
        for workload in WORKLOADS:
            result, lines, elapsed = run_once(workload, args.seeds[0], args.seconds, 1)
            runs.append({"workload": workload, "seed": args.seeds[0], "trace": 1, "elapsed_s": elapsed, **result})
            traced[workload] = result["metrics"]
            print(f"\n== traced run: {workload} (seed {args.seeds[0]}) ==")
            print("\n".join(lines))

    summary = {}
    print("\n== end-to-end, over seeds ==")
    print(f"{'workload':<16} {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'IQR/med':>8}  n")
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        summary[workload] = {}
        for metric, first in mine[0]["metrics"].items():
            st = summarize([r["metrics"][metric]["value"] for r in mine])
            summary[workload][metric] = {"unit": first["unit"], **st}
            spread = "n/a" if st["spread"] is None else f"{100 * st['spread']:.1f}%"
            print(
                f"{workload:<16} {metric:<14} {first['unit']:<6} {st['median']:>12.5g} "
                f"{st['q1']:>12.5g} {st['q3']:>12.5g} {spread:>8}  {st['n']}"
            )
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"\nchecks: {failed} failed of {attempted} invocations over {len(runs)} benchmark runs")

    prov = provenance(args.seeds, args.seconds)
    sha = (prov["git_sha"] or prov["source_sha256"])[:7]
    path = OUT_DIR / f"BENCH_{datetime.date.today().isoformat()}_{sha}.json"
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "provenance": {**prov, "repeats": len(args.seeds)},
        "end_to_end": summary,
        "traced": traced,
        "failed": failed,
        "attempted": attempted,
        "runs": runs,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
