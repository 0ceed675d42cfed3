"""Experiment harness: wiring scenarios to filters and emitting artifacts.

Runs the two benchmark experiments (sparse identification and
undersampled spectrum estimation) over seeded Monte Carlo repetitions and
writes deterministic CSV/JSON artifacts.  Per-run seeds are always
``base_seed + run_index``.  Both step blocks of consecutive runs through
one loop, each block one (algorithms, runs, taps) stack that a
``filters.StackStepper`` updates in place.  Blocks may execute on
parallel workers and are aggregated in run-index order, so outputs are
byte-identical for any worker count and block size.  When identification
blocks would be short, each worker steps a contiguous slice of the
roster instead: every algorithm's rows depend on no other algorithm.
"""

import itertools
import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .filters import FilterConfig, StackStepper
from .recovery import _top_mask, certify_rows
from .signals import (
    IdentScenario,
    SpectrumScenario,
    _ident_draw,
    _phase_rows,
    _root_table,
    _spectrum_draw,
    check_count,
    check_counts,
)
from .thresholding import hard_threshold, support

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "LearningCurve",
    "SpectrumReport",
    "run_ident_experiment",
    "run_spectrum_experiment",
    "ident_diagnostics",
    "diagnose_run",
    "emit_outputs",
    "read_curves_csv",
]

SCHEMA_VERSION = 1

# Most identification runs stepped together, every algorithm of each run in
# one (algorithms, runs, taps) stack.  Larger blocks spread the per-step
# interpreter cost over more runs, until the arrays outgrow the CPU caches:
# at 256 taps the time per run was lowest for blocks of 48-64 runs.  A
# 48-run block of seven algorithms was as fast stacked whole as stepped one
# algorithm at a time.
BLOCK_RUNS = 48

# Entries per algorithm in a spectrum block of whole runs, at least one.  At full_len 1000 a
# run-step took 34.7, 25.7, 22.5 and 23.8 us in blocks of 1, 4, 8 and 16 runs (2-vCPU VM).
# The block's index holds at most full_len rows, one per distinct position, whatever its runs.
SPECTRUM_BLOCK_ENTRIES = 2**13

# Run 0's snapshots are diagnosed this many at a time, so a stack of seven
# algorithms snapshotted at every update holds no more than one did.
SNAPSHOT_CHUNK = 256

# Default snapshot cadence, capped at an identification scenario's signal_len.
SNAPSHOT_EVERY = 250


@dataclass
class ExperimentConfig:
    """A full experiment: scenario, algorithm roster and run bookkeeping.

    The scenario's own seed is ignored by the runners; run r uses
    ``base_seed + r`` instead.  Identification owns ``snapshot_every``
    (default ``SNAPSHOT_EVERY``, at most ``signal_len``) and keeps ``passes``
    at 1; spectrum owns ``passes`` (default 10) and keeps ``snapshot_every``
    None.  The fields stay assignable, so the runners call :meth:`validate`
    again before drawing any stream.
    """

    scenario: IdentScenario | SpectrumScenario
    algorithms: list
    n_runs: int = 1
    base_seed: int = 0
    snapshot_every: int | None = None
    passes: int | None = None

    def __post_init__(self):
        ident = isinstance(self.scenario, IdentScenario)
        if self.snapshot_every is None and ident:
            self.snapshot_every = min(SNAPSHOT_EVERY, self.scenario.signal_len)
        if self.passes is None:
            self.passes = 1 if ident else 10
        self.validate()

    def validate(self):
        """Raise ValueError naming the first field that no runner accepts, nested ones included."""
        if not isinstance(self.scenario, (IdentScenario, SpectrumScenario)):
            raise ValueError("scenario: expected IdentScenario or SpectrumScenario, "
                             f"got {type(self.scenario).__name__}")
        ident = isinstance(self.scenario, IdentScenario)
        if ident and self.passes != 1:
            raise ValueError(f"passes: identification steps its samples once, got {self.passes}")
        if not ident and self.snapshot_every is not None:
            raise ValueError(f"snapshot_every: spectrum has no diagnostics, got {self.snapshot_every}")
        check_counts(self, n_runs=1, base_seed=0, passes=1)
        if ident:
            self.snapshot_every = check_count("snapshot_every", self.snapshot_every, 1)
        if not self.algorithms:
            raise ValueError("algorithms: at least one algorithm is required")
        for i, a in enumerate(self.algorithms):
            if not isinstance(a, FilterConfig):
                raise ValueError(f"algorithms[{i}]: expected FilterConfig, got {type(a).__name__}")
        length = "n_taps" if ident else "full_len"
        taps = getattr(self.scenario, length)
        for nested in (self.scenario, *self.algorithms):
            try:
                nested.__post_init__()
            except ValueError as exc:
                name = "scenario" if nested is self.scenario else f"algorithms[{nested.label}]"
                raise ValueError(f"{name}: {exc}") from exc
            if nested is not self.scenario and nested.n_taps != taps:
                raise ValueError(f"algorithms[{nested.label}].n_taps ({nested.n_taps}) must equal "
                                 f"scenario.{length} ({taps})")
        if ident:
            check_count("snapshot_every", self.snapshot_every, 1, self.scenario.signal_len)
        labels = [a.label for a in self.algorithms]
        dupes = {l for l in labels if labels.count(l) > 1}
        if dupes:
            raise ValueError(f"algorithms: duplicate labels {sorted(dupes)}")


@dataclass
class LearningCurve:
    """Per-iteration ESR of one algorithm, averaged over runs.

    ``diagnostics`` holds run 0's support-recovery records (see
    :func:`diagnose_run`) at the experiment's snapshot cadence.
    """

    label: str
    esr_linear: np.ndarray
    n_runs: int
    diagnostics: list | None = None

    @property
    def esr_db(self):
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.esr_linear)


@dataclass
class SpectrumReport:
    """Spectrum-estimation outcome.

    Magnitude columns and top-index sets come from run 0 (one plottable
    realization); hit rates and true-bin magnitude means are collected
    for every run.
    """

    sparsity: int
    n_runs: int
    true_magnitudes: np.ndarray
    estimate_magnitudes: dict
    top_sets: dict
    hit_rates: dict
    per_run_hit_rates: dict
    true_bin_means: dict


def _stack(cfg, runs):
    """Draw the runs ``range(*runs)`` of ``cfg`` and step them as one (algorithms, runs, taps) stack.

    Returns ``(truths, updates)``: the (runs, taps) true vectors and a
    generator of ``(n, w)``, ``w`` the stack after update ``n``, which the
    update after next overwrites.  Every run steps its samples ``cfg.passes``
    times.  A spectrum run multiplies each ``mu`` by its 1/||x||^2 and counts
    its updates from -n_samples, so hard variants threshold after
    ``warmup_steps + n_samples``; its rows are gathered from the root table through
    one index row (smallest unsigned dtype) per distinct position, at most ``full_len``,
    and a (samples, runs) map: ``np.unique``'s inverse, reshaped, as its shape varies.
    """
    sc, seeds = cfg.scenario, range(cfg.base_seed + runs[0], cfg.base_seed + runs[1])
    scale, first, peak = 1.0, 0, None
    if isinstance(sc, IdentScenario):
        M, N = sc.signal_len, sc.n_taps
        # u reversed, then zero-padded: the windows [u(n), ..., u(n-N+1)] of all runs
        # are the (runs, taps) slice [:, M-1-n : M-1-n+N] of one contiguous array
        inputs, outputs = np.zeros((len(seeds), M + N - 1)), np.empty((M, len(seeds)))
        truths = np.empty((len(seeds), N))
        for r, seed in enumerate(seeds):
            windows, outputs[:, r], truths[r] = _ident_draw(replace(sc, seed=seed))
            inputs[r, :M] = windows[::-1, 0]  # column 0 of the windows is u itself
        rows = lambda n: inputs[:, M - 1 - n : M - 1 - n + N]
    else:
        L, M = sc.full_len, sc.n_samples
        positions, outputs = np.empty((M, len(seeds)), np.intp), np.empty((M, len(seeds)))
        truths = np.empty((len(seeds), L), complex)
        for r, seed in enumerate(seeds):
            positions[:, r], outputs[:, r], truths[r] = _spectrum_draw(replace(sc, seed=seed))
        distinct, where = np.unique(positions, return_inverse=True)
        where, index = where.reshape(M, -1), np.empty((len(distinct), L), np.min_scalar_type(L - 1))
        for i, k in _phase_rows(distinct, L):
            index[i : i + len(k)] = k
        table, x = _root_table(L), np.empty((len(seeds), L), complex)
        rows = lambda n: np.take(table, index[where[n]], out=x, mode="clip")
        # each run's 1/||x||^2 with step_size_from_stream's bits, and a bound on every |x_k|
        scale, first, peak = 1.0 / np.sum(np.abs(rows(0)) ** 2, axis=1), -M, np.abs(table).max()
    stack = np.zeros((len(cfg.algorithms), *truths.shape), truths.dtype)
    stepper = StackStepper(stack, cfg.algorithms, scale, peak)
    steps = range(first, first + cfg.passes * M)
    return truths, ((n, stepper.step(rows(n % M), outputs[n % M], n)) for n in steps)


def _ident_block(cfg, runs):
    """Step the runs ``range(*runs)`` of every algorithm of ``cfg`` together.

    All algorithms step as one (algorithms, runs, taps) stack.  Returns
    ``(esr, diagnostics)``: ``esr`` maps each label to the (runs,
    iterations) ESR of the block's runs, written as the filters step
    instead of from stored estimates.  A block starting at run 0 keeps run
    0's estimate every ``cfg.snapshot_every`` updates and diagnoses
    ``SNAPSHOT_CHUNK`` of them at a time into ``diagnostics``, which is
    None for other blocks.  Raises ValueError naming the first diverging
    algorithm.
    """
    truths, updates = _stack(cfg, runs)
    n_steps, n_taps = cfg.scenario.signal_len, cfg.scenario.n_taps
    denom = np.sum(np.abs(truths) ** 2, axis=1)
    algorithms = cfg.algorithms
    diff = np.empty((len(algorithms), *truths.shape))
    esr = np.empty((len(algorithms), len(truths), n_steps))
    diagnostics = {a.label: [] for a in algorithms} if runs[0] == 0 else None
    iterations = []
    if diagnostics is not None:
        # one reused (algorithms, snapshots, taps) buffer, so that each
        # algorithm's chunk is a contiguous stack
        chunk = min(SNAPSHOT_CHUNK, n_steps // cfg.snapshot_every)
        snapshots = np.empty((len(algorithms), chunk, n_taps))
    # divergence is reported below, from the ESR, instead of as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n, w in updates:
            # summed row by row like signals.esr, with the same bits
            np.subtract(w, truths, out=diff)
            np.square(diff, out=diff).sum(axis=-1, out=esr[:, :, n])
            if diagnostics is None:
                continue
            if (n + 1) % cfg.snapshot_every == 0:
                snapshots[:, len(iterations)] = w[:, 0]
                iterations.append(n + 1)
            if len(iterations) == SNAPSHOT_CHUNK or n + 1 == n_steps:
                for a, stack in zip(algorithms, snapshots[:, : len(iterations)]):
                    diagnostics[a.label] += _diagnose_stack(
                        truths[0], iterations, stack, a.relaxed_sparsity
                    )
                iterations = []
    esr /= denom[:, None]
    bad = ~np.isfinite(esr)
    if bad.any():
        # the first diverging algorithm in roster order, then its first run
        i, row = np.argwhere(bad.any(axis=2))[0]
        raise ValueError(
            f"algorithms[{algorithms[i].label}]: run {runs[0] + row} diverged, its ESR is "
            f"non-finite from iteration {int(np.argmax(bad[i, row])) + 1}; reduce mu"
        )
    return dict(zip((a.label for a in algorithms), esr)), diagnostics


def _stepped(fn, share):
    """``(True, fn(*pair))`` for the pairs of ``share`` in order, up to a first ``(False, exc)``."""
    items = []
    for pair in share:
        try:
            items.append((True, fn(*pair)))
        except Exception as exc:
            return items + [(False, exc)]
    return items


class _Child:
    """A forked process that pickles :func:`_stepped` of ``share`` to a pipe; iterating reads them.

    ``close()`` kills the child if it still runs, reaps it once and returns its exit status.
    """

    def __init__(self, fn, share):
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            # leaves through os._exit, never into the parent's code or buffers; its pipe
            # closes only as it exits, so at the pipe's end its exit status is final
            try:
                pickle.dump(_stepped(fn, share), open(write, "wb", 0), pickle.HIGHEST_PROTOCOL)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write)
        self.pipe = open(read, "rb")

    def __iter__(self):
        """The child's items; ChildProcessError names its exit status if it ended without them."""
        try:
            items = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"a worker ended with exit status {self.close()} and no result")
        yield from items

    def close(self):
        if not self.pipe.closed:
            self.pipe.close()
            os.kill(self.pid, 9)  # SIGKILL
            return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _map_blocks(fn, configs, n_runs, size, workers):
    """``fn(c, (start, stop))`` for each of ``configs`` over blocks of consecutive runs.

    Blocks of at most ``size`` runs are split evenly, so that each of
    ``workers`` processes gets a (config, block) pair.  Results are
    yielded by block, then by config, and a failure is the first in that
    order.  Pair ``i`` goes to share ``i % workers``, no more shares than
    pairs: this process steps share 0 while a :class:`_Child` steps each
    other.  On other platforms a process pool steps them: macOS libraries
    are not fork-safe, and Windows has no fork.
    """
    size = min(size, math.ceil(n_runs * len(configs) / workers))
    pairs = [(c, (b, min(b + size, n_runs))) for b in range(0, n_runs, size) for c in configs]
    workers = min(workers, len(pairs))
    if workers <= 1:
        yield from itertools.starmap(fn, pairs)
        return
    if sys.platform != "linux":
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, *zip(*pairs))
        return
    children = []
    try:
        for k in range(1, workers):
            children.append(_Child(fn, pairs[k::workers]))
        # this share first, whole, so that this process never waits while it has work
        shares = [iter(_stepped(fn, pairs[::workers])), *map(iter, children)]
        for i in range(len(pairs)):
            ok, result = next(shares[i % workers])
            if not ok:
                raise result
            yield result
    finally:
        for child in children:
            child.close()


def _check_config(cfg, scenario_type, max_workers=1):
    """Reject a config its runner cannot run, before any draw; return the workers that can run."""
    if not isinstance(cfg.scenario, scenario_type):
        raise ValueError(
            f"scenario: expected {scenario_type.__name__}, got {type(cfg.scenario).__name__}"
        )
    cfg.validate()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(check_count("max_workers", max_workers, 1), cpus or 1)


def run_ident_experiment(cfg: ExperimentConfig, max_workers: int = 1):
    """Average ESR learning curves over seeded identification runs.

    Every algorithm consumes the identical stream within a run; the mean
    is taken over linear ESR values (dB conversion happens at output).
    Runs are stepped in blocks of at most ``BLOCK_RUNS`` consecutive indices,
    split evenly over ``workers``, ``max_workers`` capped at the usable CPUs.
    When that leaves fewer than ``BLOCK_RUNS`` runs a worker, the roster is
    cut into ``g = min(workers, len(cfg.algorithms))`` contiguous slices
    and each worker steps a slice over ``g / workers`` of the runs.
    Each label's per-run curves are summed in run-index order, so the
    result does not depend on worker count or block size.  Returns a dict mapping
    algorithm label to LearningCurve, whose ``diagnostics`` are those of
    :func:`ident_diagnostics`.  Raises ValueError when a filter diverges.
    """
    workers = _check_config(cfg, IdentScenario, max_workers)
    algorithms = cfg.algorithms
    # a short block's step is interpreter-bound, so halving its runs barely shortens it
    g = min(workers, len(algorithms)) if math.ceil(cfg.n_runs / workers) < BLOCK_RUNS else 1
    cuts = np.array_split(np.arange(len(algorithms)), g)  # sizes differ by one, larger first
    slices = [replace(cfg, algorithms=[algorithms[i] for i in cut]) for cut in cuts]
    blocks = _map_blocks(_ident_block, slices, cfg.n_runs, BLOCK_RUNS, workers)
    totals = {a.label: np.zeros(cfg.scenario.signal_len) for a in algorithms}
    diagnostics = {}
    for esr, block_diagnostics in blocks:
        diagnostics.update(block_diagnostics or {})
        for label, rows in esr.items():
            for row in rows:
                totals[label] += row
    return {
        a.label: LearningCurve(
            a.label, totals[a.label] / cfg.n_runs, cfg.n_runs, diagnostics[a.label]
        )
        for a in algorithms
    }


def _spectrum_block(cfg, runs):
    """``(truth, {label: final estimate})`` of each run in ``range(*runs)``, stepped as one stack."""
    truths, updates = _stack(cfg, runs)
    # divergence is reported below, as in _ident_block, instead of as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _, w in updates:
            pass
    bad = np.argwhere(~np.isfinite(w).all(axis=2))  # (algorithm, run) pairs in roster order
    if bad.size:
        i, row = bad[0]
        raise ValueError(f"algorithms[{cfg.algorithms[i].label}]: run {runs[0] + row} diverged, "
                         "its final estimate is non-finite; reduce mu")
    return [(t, {a.label: est[r] for a, est in zip(cfg.algorithms, w)}) for r, t in enumerate(truths)]


def run_spectrum_experiment(cfg: ExperimentConfig, max_workers: int = 1):
    """Run the undersampled spectrum experiment and build a report.

    Each filter steps at its ``mu`` times 1/||x||^2 of the run's own input
    rows, the normalised step, and a hard-threshold variant thresholds
    after ``warmup_steps + n_samples`` updates.  Blocks of runs step
    through one :class:`~sparselms.filters.StackStepper` each.  Each filter
    is scored by where its final estimate puts the top-s bins, s being the
    true spectrum's support size.  Raises ValueError when a filter diverges.
    """
    workers = _check_config(cfg, SpectrumScenario, max_workers)
    size = max(1, SPECTRUM_BLOCK_ENTRIES // cfg.scenario.full_len)
    blocks = _map_blocks(_spectrum_block, [cfg], cfg.n_runs, size, workers)
    hit_rates = {a.label: [] for a in cfg.algorithms}
    true_bin_means = {a.label: [] for a in cfg.algorithms}
    for run, (truth, estimates) in enumerate(r for block in blocks for r in block):
        true_support = support(truth)
        s = int(true_support.size)
        top_sets = {l: support(hard_threshold(w, s)) for l, w in estimates.items()}
        for l, w in estimates.items():
            hit_rates[l].append(float(np.isin(true_support, top_sets[l]).sum()) / s)
            true_bin_means[l].append(float(np.mean(np.abs(w[true_support]))))
        if run == 0:
            report = SpectrumReport(
                sparsity=s,
                n_runs=cfg.n_runs,
                true_magnitudes=np.abs(truth),
                estimate_magnitudes={l: np.abs(w) for l, w in estimates.items()},
                top_sets=top_sets,
                hit_rates={},
                per_run_hit_rates=hit_rates,
                true_bin_means=true_bin_means,
            )
    report.hit_rates = {l: float(np.mean(rates)) for l, rates in hit_rates.items()}
    return report


def diagnose_run(w_true, snapshots, relaxed_sparsity=None):
    """Support-recovery telemetry for a sequence of estimate snapshots.

    ``snapshots`` is an iterable of (iteration, estimate) pairs.  Each
    record carries ESR/SER (linear and dB), both recovery conditions and
    the top-s support hit rate, all as plain Python numbers.  The relaxed
    keep-count defaults to min(2 s, N - 1); when no valid relaxation
    exists the superset condition is reported as None.  The snapshots
    are diagnosed together as one (K, N) stack by :func:`certify_rows`;
    each record equals the one its snapshot would get on its own.  The
    truth and the estimates may be real or complex.
    """
    snapshots = list(snapshots)
    stack = np.array([estimate for _, estimate in snapshots])
    return _diagnose_stack(w_true, [it for it, _ in snapshots], stack, relaxed_sparsity)


def _diagnose_stack(w_true, iterations, stack, relaxed_sparsity):
    """:func:`diagnose_run`'s records of the (K, N) estimates ``stack``, one per iteration."""
    w = np.asarray(w_true)
    sup = support(w)
    if sup.size == 0:
        raise ValueError("true vector must have at least one nonzero entry")
    s = int(sup.size)
    n = w.shape[0]
    d = relaxed_sparsity if relaxed_sparsity is not None else min(2 * s, n - 1)
    if not s < d < n:
        d = None
    if not iterations:
        return []
    exact = certify_rows(w, stack)
    superset = [None] * len(stack) if d is None else certify_rows(w, stack, d).holds.tolist()
    ratio = exact.error_sq / float(np.sum(np.abs(w) ** 2))
    with np.errstate(divide="ignore"):
        # an exact estimate gives ESR 0: infinite SER, -inf dB
        ser = 1.0 / ratio
        log_ratio = np.log10(ratio)
    # a certified row's top s sit on the true support (certify_rows checked
    # that), so only the other rows are thresholded for their hit rate
    hits = np.ones(len(stack))
    missed = ~exact.holds
    if missed.any():
        hits[missed] = _top_mask(stack, missed, s)[:, sup].sum(axis=1) / s
    columns = zip(
        iterations,
        ratio.tolist(),
        (10.0 * log_ratio).tolist(),
        ser.tolist(),
        (-10.0 * log_ratio).tolist(),
        exact.holds.tolist(),
        superset,
        hits.tolist(),
    )
    return [
        {
            "iteration": int(iteration),
            "esr": e,
            "esr_db": e_db,
            "ser": r,
            "ser_db": r_db,
            "theorem1_holds": t1,
            "theorem2_holds": t2,
            "support_hit_rate": hit,
        }
        for iteration, e, e_db, r, r_db, t1, t2, hit in columns
    ]


def ident_diagnostics(cfg: ExperimentConfig):
    """Recovery telemetry for run 0 of an identification experiment.

    Steps the first seed alone with snapshots at ``cfg.snapshot_every``
    and diagnoses each algorithm's trajectory against the true taps; the
    records equal the ``diagnostics`` of :func:`run_ident_experiment`.
    """
    _check_config(cfg, IdentScenario)
    return _ident_block(cfg, (0, 1))[1]


def _plain(obj):
    """``obj`` as a JSON scalar, str, list, tuple or dict; non-finite numbers become None."""
    if isinstance(obj, Enum):
        obj = obj.value
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return _plain(obj.tolist()) if isinstance(obj, np.ndarray) else obj


def _json_text(obj, pad="\n"):
    """``json.dumps(obj, indent=2, sort_keys=True)`` of ``obj`` under :func:`_plain`'s rules.

    Keys are written as ``str(key)``.  ``pad`` is the line break and indent
    of ``obj``'s own line.
    """
    obj = _plain(obj)
    if isinstance(obj, (list, tuple)) and obj:
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(_items(obj, inner)) + pad + "]"
    return _items([obj], pad)[0] if isinstance(obj, dict) and obj else json.dumps(obj)


def _items(values, pad):
    """The JSON texts of the non-empty list or tuple ``values``, each at the indent ``pad``.

    The C encoder writes scalars, keys and strings, and a list of numbers
    at once.  Dicts of one key set are written a key at a time into one
    template, so the diagnostics' ~10^5 numbers take one encoder call per
    column.
    """
    if set(map(type, values)) <= {float, int, bool, type(None)}:
        # numbers and literals but no strings, so ", " only ever separates two values
        text = json.dumps(values)
        for token in ("-Infinity", "Infinity", "NaN"):
            text = text.replace(token, "null")
        return text[1:-1].split(", ")
    keys = values[0].keys() if isinstance(values[0], dict) else None
    if not keys or not all(isinstance(r, dict) and r.keys() == keys for r in values):
        return [_json_text(v, pad) for v in values]
    names = {str(k): k for k in keys}  # as in {str(k): v}, the last of equal keys wins
    inner = pad + "  "
    fields = [inner + json.dumps(n).replace("%", "%%") + ": %s" for n in sorted(names)]
    columns = [_items([r[names[n]] for r in values], inner) for n in sorted(names)]
    template = "{" + ",".join(fields) + pad + "}"
    return [template % row for row in zip(*columns)]


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_csv(path, header, first_index, columns):
    """Write ``header``, then row i as ``first_index + i`` and entry i of every column."""
    lines = [",".join(header)]
    # float.__repr__ of a column's tolist() is repr(float(v)) of each entry, in one pass
    cells = [map(float.__repr__, column.tolist()) for column in columns]
    for i, row in enumerate(zip(*cells), first_index):
        lines.append(",".join([str(i), *row]))
    _write_text(path, "\n".join(lines) + "\n")


def emit_outputs(result, output_dir, experiment=None, diagnostics=None):
    """Write experiment artifacts to ``output_dir``.

    A dict of LearningCurve values produces ``curves.csv`` (iteration
    column plus one ESR-dB column per label); a SpectrumReport produces
    ``spectrum.csv`` (bin, true magnitude, one estimate column per
    label).  Both produce ``summary.json``: the stdlib's ``indent=2,
    sort_keys=True`` text of the summary with non-finite numbers as
    ``null`` (:func:`_json_text`), encoded whole before any file is opened,
    so an unencodable value raises TypeError and writes no file.  Files are
    byte-stable across reruns of the same configuration.  Returns the
    written paths.
    """
    summary = {
        "schema_version": SCHEMA_VERSION,
        "experiment": None if experiment is None else asdict(experiment),
        "diagnostics": diagnostics,
    }
    if isinstance(result, SpectrumReport):
        estimates = result.estimate_magnitudes
        name, header, first = "spectrum.csv", ["bin", "true_mag", *estimates], 0
        columns = [result.true_magnitudes, *estimates.values()]
        summary["kind"] = "spectrum"
        # every report field but the magnitude columns of spectrum.csv
        summary.update((k, v) for k, v in vars(result).items() if "magnitudes" not in k)
    else:
        curves = dict(result)
        name, header, first = "curves.csv", ["iteration", *curves], 1
        columns = [c.esr_db for c in curves.values()]
        summary["kind"] = "ident"
        summary["final_esr"] = {
            l: {"linear": float(c.esr_linear[-1]), "db": float(c.esr_db[-1])}
            for l, c in curves.items()
            if len(c.esr_linear)
        }
        summary["n_runs"] = {l: c.n_runs for l, c in curves.items()}
    text = _json_text(summary) + "\n"
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    written = [out / name, out / "summary.json"]
    try:
        _write_csv(written[0], header, first, columns)
        _write_text(written[1], text)
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    return written


def read_curves_csv(path):
    """Parse a ``curves.csv`` back into (labels, iterations, columns).

    An empty file, a row whose field count differs from the header's, or a
    cell that is not an integer iteration or a number raises ValueError
    naming the path and the line, and for a cell its column's label.
    """
    with open(path) as fh:
        lines = [(i, line.rstrip("\n").split(",")) for i, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: line 1: no header, the file is empty")
    (_, header), *body = lines
    for i, row in body:
        if len(row) != len(header):
            raise ValueError(f"{path}: line {i}: {len(row)} fields, the header has {len(header)}")
        # checked first, so that the conversion below keeps one column of floats alive at a time
        for label, kind, text in zip(header, [int] + [float] * len(row), row):
            try:
                kind(text)
            except ValueError:
                raise ValueError(f"{path}: line {i}: column {label}: cannot read {text!r}") from None
    columns = {label: np.array([float(r[j]) for _, r in body]) for j, label in enumerate(header) if j}
    return header[1:], np.array([int(r[0]) for _, r in body], dtype=int), columns
