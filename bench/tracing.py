"""Span recorder and the in-process traced run of the sparselms CLI.

The traced run calls ``sparselms.cli.main(argv)`` in this process.  For
its duration the module attributes through which one layer calls the next
(``sparselms.harness.run_stream``, ``sparselms.filters.hard_threshold``,
``sparselms.thresholding.hard_threshold`` that ``penalty_mask`` reaches by
global name, ...) are replaced by wrappers that record a span per call:
name, start, end, parent span and run id.  Nothing inside ``src/`` is
modified.  Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
A layer's self time is the sum over the spans named after it.  Untraced
in-process runs of the same command alternate with the traced ones; the
ratio of their wall times gives the tracing overhead.
"""

import contextlib
import functools
import gzip
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import Ledger
from stats import summarize

ALGORITHMS = ("lms", "za_lms", "rza_lms", "sza_lms", "hard_lms", "hard_init_lms", "hard_rel_lms")
LAYERS = ("cli", "harness", "signals", "filters", "complex_lms", "thresholding", "recovery")
SELF_TIMED = (
    "signals.gen_ident_stream",
    "signals.gen_spectrum_stream",
    "signals.esr",
    "complex_lms.step_size_from_stream",
    "complex_lms.run_complex_stream",
    "filters.run_stream",
    "harness.run_ident_experiment",
    "harness.run_spectrum_experiment",
    "harness.ident_diagnostics",
    "harness.diagnose_run",
    "harness.emit_outputs",
    "thresholding.hard_threshold",
    "thresholding.penalty_mask",
    "recovery.theorem1_condition",
    "recovery.theorem2_condition",
)
COUNTED = (
    "thresholding.hard_threshold",
    "thresholding.penalty_mask",
    "recovery.theorem1_condition",
    "recovery.theorem2_condition",
)


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "child", "attrs")

    def __init__(self, span_id, name, parent, run):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = self.child = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.end - self.start - self.child


class Recorder:
    """Keeps spans in memory; :meth:`wrap` makes a function record one per call."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, describe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, parent, self.run_id)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if describe is not None:
                # outside the timed interval: attributes cost the caller nothing
                span.attrs = describe(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _stream_bytes(args, kwargs, result):
    return {"bytes": int(result.inputs.nbytes)}


def _real_filter(args, kwargs, result):
    cfg, stream = args[0], args[1]
    every = _arg(args, kwargs, 2, "snapshot_every")
    updates = len(stream)
    snapshots = updates // every if every else 0
    return {
        "algorithm": getattr(cfg.algorithm, "value", str(cfg.algorithm)),
        "updates": updates,
        "snapshot_bytes": snapshots * cfg.n_taps * stream.inputs.dtype.itemsize,
    }


def _complex_filter(args, kwargs, result):
    sparsity = _arg(args, kwargs, 2, "sparsity")
    return {"algorithm": "lms" if sparsity is None else "hard_lms", "updates": len(args[0])}


def _records(args, kwargs, result):
    return {"records": len(result)}


def _emitted(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


def _experiment(args, kwargs, result):
    return {"config": args[0]}


# (module, attribute, span name, attribute extractor).  The attribute is
# the name through which the caller module reaches the callee.
PATCHES = [
    ("sparselms.cli", "run_ident_experiment", "harness.run_ident_experiment", _experiment),
    ("sparselms.cli", "run_spectrum_experiment", "harness.run_spectrum_experiment", _experiment),
    ("sparselms.cli", "ident_diagnostics", "harness.ident_diagnostics", None),
    ("sparselms.cli", "emit_outputs", "harness.emit_outputs", _emitted),
    ("sparselms.harness", "diagnose_run", "harness.diagnose_run", _records),
    ("sparselms.harness", "gen_ident_stream", "signals.gen_ident_stream", _stream_bytes),
    ("sparselms.harness", "gen_spectrum_stream", "signals.gen_spectrum_stream", _stream_bytes),
    ("sparselms.harness", "esr", "signals.esr", None),
    ("sparselms.harness", "run_stream", "filters.run_stream", _real_filter),
    ("sparselms.harness", "run_complex_stream", "complex_lms.run_complex_stream", _complex_filter),
    ("sparselms.harness", "step_size_from_stream", "complex_lms.step_size_from_stream", None),
    ("sparselms.harness", "theorem1_condition", "recovery.theorem1_condition", None),
    ("sparselms.harness", "theorem2_condition", "recovery.theorem2_condition", None),
    ("sparselms.harness", "hard_threshold", "thresholding.hard_threshold", None),
    ("sparselms.filters", "hard_threshold", "thresholding.hard_threshold", None),
    ("sparselms.filters", "penalty_mask", "thresholding.penalty_mask", None),
    ("sparselms.complex_lms", "hard_threshold", "thresholding.hard_threshold", None),
    ("sparselms.recovery", "hard_threshold", "thresholding.hard_threshold", None),
    ("sparselms.thresholding", "hard_threshold", "thresholding.hard_threshold", None),
]


@contextlib.contextmanager
def patched(recorder, missing):
    """Install the span wrappers; names the program no longer has go to ``missing``."""
    saved = []
    try:
        for module_name, attr, span_name, describe in PATCHES:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                missing.add(module_name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.add(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original, describe))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _call_cli(main, argv, out):
    """Exit status of ``main(argv)``, with its printed output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main([*argv, "--out", str(out)])
        except SystemExit as exc:
            return exc.code


def _has_ancestor(span, name):
    span = span.parent
    while span is not None:
        if span.name == name:
            return True
        span = span.parent
    return False


def aggregate(spans):
    """Per-layer metrics of one traced run: ``{name: (value, unit)}``.

    Times are seconds of self time unless the name says otherwise; counts
    are exact integers; ``B-computed`` marks bytes derived from array
    shapes rather than measured.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    attr_sum = defaultdict(int)  # (span name, attribute) -> sum over spans
    attr_max = defaultdict(int)  # (span name, attribute) -> largest value
    filter_time = defaultdict(float)  # (layer, algorithm) -> seconds in the stream runner
    filter_updates = defaultdict(int)
    rerun_updates = 0
    for sp in spans:
        calls[sp.name] += 1
        total[sp.name] += sp.duration
        own[sp.name] += sp.self_time
        layer = sp.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + sp.self_time
        if not sp.attrs:
            continue
        for key, value in sp.attrs.items():
            if isinstance(value, int):
                attr_sum[sp.name, key] += value
                attr_max[sp.name, key] = max(attr_max[sp.name, key], value)
        if "algorithm" in sp.attrs:
            filter_time[layer, sp.attrs["algorithm"]] += sp.duration
            filter_updates[layer, sp.attrs["algorithm"]] += sp.attrs["updates"]
            if _has_ancestor(sp, "harness.ident_diagnostics"):
                rerun_updates += sp.attrs["updates"]

    def us_per_update(layer, algorithm):
        n = filter_updates[layer, algorithm]
        return (1e6 * filter_time[layer, algorithm] / n if n else 0.0), "us"

    m = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    for name in ("cli.main", *SELF_TIMED):
        m[f"{name}.self_s"] = (own[name], "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (calls[name], "count")
    hard = "thresholding.hard_threshold"
    m[f"{hard}.us_per_call"] = (1e6 * total[hard] / calls[hard] if calls[hard] else 0.0, "us")
    m["signals.stream_bytes"] = (
        max(attr_max["signals.gen_ident_stream", "bytes"], attr_max["signals.gen_spectrum_stream", "bytes"]),
        "B-computed",
    )
    m["filters.updates"] = (attr_sum["filters.run_stream", "updates"], "count")
    m["filters.snapshot_bytes"] = (attr_max["filters.run_stream", "snapshot_bytes"], "B-computed")
    for algorithm in ALGORITHMS:
        m[f"filters.{algorithm}.us_per_update"] = us_per_update("filters", algorithm)
    m["complex_lms.updates"] = (attr_sum["complex_lms.run_complex_stream", "updates"], "count")
    for algorithm in ("lms", "hard_lms"):
        m[f"complex_lms.{algorithm}.us_per_update"] = us_per_update("complex_lms", algorithm)
    all_updates = m["filters.updates"][0] + m["complex_lms.updates"][0]
    m["harness.rerun_updates_frac"] = (rerun_updates / all_updates if all_updates else 0.0, "ratio")
    m["harness.diagnose_run.records"] = (attr_sum["harness.diagnose_run", "records"], "count")
    m["harness.emit_outputs.bytes"] = (attr_sum["harness.emit_outputs", "bytes"], "B")
    m["trace.spans"] = (len(spans), "count")
    return m


def write_spans(spans, path):
    origin = spans[0].start if spans else 0.0
    with gzip.open(path, "wt") as fh:
        for sp in spans:
            attrs = {k: v for k, v in (sp.attrs or {}).items() if k != "config"}
            fh.write(
                json.dumps(
                    {
                        "id": sp.id,
                        "name": sp.name,
                        "parent": None if sp.parent is None else sp.parent.id,
                        "run": sp.run,
                        "start_s": sp.start - origin,
                        "end_s": sp.end - origin,
                        "self_s": sp.self_time,
                        **attrs,
                    }
                )
                + "\n"
            )


def _import_seconds(env, probes=5):
    """Median time a fresh interpreter with numpy loaded takes to import sparselms.cli."""
    code = (
        "import time, numpy; t = time.perf_counter(); import sparselms.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(probes):
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(result.stdout))
    return statistics.median(times)


def _pool_speedup(config, runner, pairs=2):
    """Wall time of the experiment runner at max_workers 1 over max_workers 2."""
    one, two = [], []
    for _ in range(pairs):
        start = time.perf_counter()
        runner(config, max_workers=1)
        one.append(time.perf_counter() - start)
        start = time.perf_counter()
        runner(config, max_workers=2)
        two.append(time.perf_counter() - start)
    return statistics.median(one) / statistics.median(two)


def traced_run(name, argv, kind, reference, seed, seconds, work, env, out_dir):
    """Alternate untraced and traced in-process CLI runs for ``seconds``.

    Returns the per-layer metrics (times are medians over the traced runs,
    counts are exact and must agree between runs), the run counts and any
    failed checks.
    """
    import sparselms.cli
    import sparselms.harness

    argv = [*argv, "--seed", str(seed)]
    plain_walls, traced_walls, runs = [], [], []
    missing = set()
    ledger = Ledger(kind, reference)

    def one_run(k, recorder, walls):
        out = work / f"run{k}-{'traced' if recorder else 'untraced'}"
        main = sparselms.cli.main
        with patched(recorder, missing) if recorder else contextlib.nullcontext():
            if recorder:
                main = recorder.wrap("cli.main", main)
            t0 = time.perf_counter()
            code = _call_cli(main, argv, out)
            walls.append(time.perf_counter() - t0)
        ledger.check(f"{'traced' if recorder else 'untraced'} run {k}", out, code)
        shutil.rmtree(out, ignore_errors=True)

    one_run("warm-up", None, [])  # the first run in a process pays one-off costs
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        recorder = Recorder(run_id=k)
        pair = [(None, plain_walls), (recorder, traced_walls)]
        # alternate which of the pair runs first
        for rec, walls in pair[::-1] if k % 2 else pair:
            one_run(k, rec, walls)
        runs.append(aggregate(recorder.spans))
        k += 1

    metrics, stats, unsteady = {}, {}, []
    for metric, (value, unit) in runs[0].items():
        values = [run[metric][0] for run in runs]
        if unit in ("count", "B", "B-computed"):
            if len(set(values)) > 1:
                unsteady.append(f"{metric} {values}")
            metrics[metric] = (int(values[0]), unit)
        else:
            metrics[metric] = (statistics.median(values), unit)
            stats[metric] = summarize(values)
    if unsteady:
        ledger.failed += 1
        ledger.problems.append("counts differ between traced runs: " + "; ".join(unsteady))

    traced_wall = statistics.median(traced_walls)
    metrics["trace.overhead_frac"] = (traced_wall / statistics.median(plain_walls) - 1.0, "ratio")
    metrics["cli.import_s"] = (_import_seconds(env), "s")

    experiment = next(
        (sp for sp in recorder.spans if sp.name.startswith("harness.run_") and sp.attrs), None
    )
    speedup = 0.0
    if experiment is not None:
        runner = getattr(sparselms.harness, experiment.name.split(".", 1)[1])
        speedup = _pool_speedup(experiment.attrs["config"], runner)
    metrics["harness.pool.speedup"] = (speedup, "ratio")
    metrics["harness.pool.efficiency"] = (speedup / 2.0, "ratio")

    write_spans(recorder.spans, out_dir / f"spans-{name}-seed{seed}.jsonl.gz")
    mix = sorted(
        ((metrics[f"{layer}.self_s"][0] / traced_wall, layer) for layer in LAYERS), reverse=True
    )
    lines = [
        "# layer mix of the traced wall time (self time share): "
        + ", ".join(f"{layer} {100 * share:.1f}%" for share, layer in mix),
        f"# traced runs {len(traced_walls)}, untraced runs {len(plain_walls)}; "
        f"median wall traced {traced_wall:.4g} s, untraced {statistics.median(plain_walls):.4g} s",
    ]
    if missing:
        lines.append("# not traced (absent from the program): " + ", ".join(sorted(missing)))
    return {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "stats": stats,
        "problems": ledger.problems,
        "lines": lines,
        "samples": {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls},
    }

