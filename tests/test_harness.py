import json
import os
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import traced_peak

from sparselms import (
    Algorithm,
    ExperimentConfig,
    FilterConfig,
    IdentScenario,
    SpectrumScenario,
    diagnose_run,
    emit_outputs,
    gen_ident_stream,
    gen_spectrum_stream,
    ident_diagnostics,
    read_curves_csv,
    run_ident_experiment,
    run_spectrum_experiment,
    run_stream,
    step_size_from_stream,
    theorem1_condition,
    theorem2_condition,
)
from sparselms import cli, filters, harness, recovery, signals
from sparselms.harness import LearningCurve, SpectrumReport, _ident_block
from sparselms.signals import esr, esr_db
from sparselms.thresholding import hard_threshold, support


def small_ident_config(n_runs=3, algorithms=None, **scenario_kw):
    scenario_kw.setdefault("n_taps", 16)
    scenario_kw.setdefault("n_nonzero", 3)
    scenario_kw.setdefault("signal_len", 150)
    scenario = IdentScenario(**scenario_kw)
    if algorithms is None:
        algorithms = [
            FilterConfig("lms", n_taps=16, mu=0.02),
            FilterConfig("hard_init_lms", n_taps=16, mu=0.02, sparsity=3, warmup_steps=50),
        ]
    return ExperimentConfig(scenario=scenario, algorithms=algorithms, n_runs=n_runs, base_seed=0)


def small_spectrum_config(n_runs=2, sparsity=4):
    scenario = SpectrumScenario(full_len=64, n_tones=2, n_samples=24, snr_db=20.0)
    algorithms = [
        FilterConfig("lms", n_taps=64, mu=1.0, label="complex_lms"),
        FilterConfig("hard_lms", n_taps=64, mu=1.0, sparsity=sparsity, label="complex_hard_lms"),
    ]
    return ExperimentConfig(
        scenario=scenario, algorithms=algorithms, n_runs=n_runs, base_seed=0, passes=6
    )


# (field, value, message) of fields assigned after a config is built
ASSIGNED = [
    ("n_runs", 0, "n_runs must be >= 1"),
    ("algorithms", [], "algorithms: at least one algorithm is required"),
    ("n_runs", 1.5, "n_runs must be an integer"),
    ("base_seed", 2.5, "base_seed must be an integer"),
    ("base_seed", -1, "base_seed must be >= 0"),
]
# each experiment owns one of snapshot_every and passes; the other keeps its one value
ASSIGNED_OWNED = {
    "ident": [
        ("snapshot_every", 0, "snapshot_every must be >= 1"),
        ("snapshot_every", None, "snapshot_every must be an integer, got None"),
        ("snapshot_every", 151, "snapshot_every must satisfy 1 <= snapshot_every <= 150"),
        ("passes", 0, "passes: identification steps its samples once"),
        ("passes", 2, "passes: identification steps its samples once"),
    ],
    "spectrum": [
        ("passes", 0, "passes must be >= 1"),
        ("passes", 2.5, "passes must be an integer"),
        ("snapshot_every", 0, "snapshot_every: spectrum has no diagnostics"),
        ("snapshot_every", 250, "snapshot_every: spectrum has no diagnostics"),
    ],
}
# (kind, nested config, field, value, message) of nested fields assigned after a
# config is built; "algorithm" is the last, hard-threshold filter of the roster
ASSIGNED_NESTED = [
    ("ident", "algorithm", "mu", -1.0, "mu must be positive and finite, got -1.0"),
    ("ident", "algorithm", "sparsity", 40, "sparsity must satisfy 1 <= sparsity <= 15, got 40"),
    ("ident", "algorithm", "sparsity", 2.5, "sparsity must be an integer, got 2.5"),
    ("ident", "algorithm", "algorithm", "nope", "'nope' is not a valid Algorithm"),
    ("ident", "scenario", "signal_len", 0, "signal_len must be >= 1, got 0"),
    ("ident", "scenario", "n_nonzero", 17, "n_nonzero must satisfy 1 <= n_nonzero <= 16, got 17"),
    ("spectrum", "algorithm", "mu", float("nan"), "mu must be positive and finite, got nan"),
    ("spectrum", "algorithm", "sparsity", 64, "sparsity must satisfy 1 <= sparsity <= 63, got 64"),
    ("spectrum", "scenario", "n_samples", 0, "n_samples must satisfy 1 <= n_samples <= 64, got 0"),
    ("spectrum", "scenario", "seed", -1, "seed must be >= 0, got -1"),
]


def no_draw(*args, **kwargs):
    raise AssertionError("a stream was drawn before the config was checked")


def assert_rejected_before_any_draw(monkeypatch, kind, cfg, match):
    """The runner of ``kind``, and for "ident" ``ident_diagnostics``, raise ``match`` undrawn."""
    monkeypatch.setattr(harness, "_ident_draw", no_draw)
    monkeypatch.setattr(harness, "_spectrum_draw", no_draw)
    ident = kind == "ident"
    for runner in [run_ident_experiment, ident_diagnostics] if ident else [run_spectrum_experiment]:
        with pytest.raises(ValueError, match=match):
            runner(cfg)


class TestExperimentConfig:
    def test_validation(self):
        sc = IdentScenario(n_taps=8, n_nonzero=2, signal_len=10)
        with pytest.raises(ValueError, match="n_runs"):
            ExperimentConfig(scenario=sc, algorithms=[], n_runs=0)
        with pytest.raises(ValueError, match="snapshot_every"):
            ExperimentConfig(scenario=sc, algorithms=[], snapshot_every=0)
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig(
                scenario=sc,
                algorithms=[
                    FilterConfig("lms", n_taps=8, mu=0.1),
                    FilterConfig("lms", n_taps=8, mu=0.2),
                ],
            )

    @pytest.mark.parametrize(
        "kw,field",
        [
            (dict(n_runs=2.5), "n_runs"),
            (dict(n_runs=True), "n_runs"),
            (dict(snapshot_every=2.5), "snapshot_every"),
            (dict(passes=1.5), "passes"),
            (dict(base_seed=2.5), "base_seed"),
            (dict(base_seed=-1), "base_seed"),
        ],
    )
    def test_non_integer_counts_name_the_field(self, kw, field):
        sc = IdentScenario(n_taps=8, n_nonzero=2, signal_len=10)
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(scenario=sc, algorithms=[], **kw)

    @pytest.mark.parametrize(
        "sc", [IdentScenario(n_taps=8, n_nonzero=2, signal_len=10), SpectrumScenario()]
    )
    def test_empty_roster_rejected(self, sc):
        with pytest.raises(ValueError, match="algorithms: at least one algorithm is required"):
            ExperimentConfig(scenario=sc, algorithms=[])

    @pytest.mark.parametrize(
        "kind,field,value,match",
        [(kind, *row) for kind in ("ident", "spectrum") for row in ASSIGNED + ASSIGNED_OWNED[kind]],
    )
    def test_fields_assigned_after_build_rejected_by_runner(
        self, monkeypatch, kind, field, value, match
    ):
        cfg = small_ident_config() if kind == "ident" else small_spectrum_config()
        setattr(cfg, field, value)
        assert_rejected_before_any_draw(monkeypatch, kind, cfg, match)

    @pytest.mark.parametrize(
        "scenario,kw,match",
        [
            (IdentScenario(n_taps=16, n_nonzero=3, signal_len=150), dict(passes=10),
             "passes: identification steps its samples once, got 10"),
            (SpectrumScenario(full_len=64, n_tones=2, n_samples=24), dict(snapshot_every=50),
             "snapshot_every: spectrum has no diagnostics, got 50"),
        ],
    )
    def test_other_experiments_field_rejected_at_build(self, scenario, kw, match):
        algorithms = [FilterConfig("lms", n_taps=16 if "passes" in kw else 64, mu=0.02)]
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(scenario, algorithms, **kw)

    @pytest.mark.parametrize("kind,nested,field,value,match", ASSIGNED_NESTED)
    def test_nested_fields_assigned_after_build_rejected_by_runner(
        self, monkeypatch, kind, nested, field, value, match
    ):
        cfg = small_ident_config() if kind == "ident" else small_spectrum_config()
        setattr(cfg.scenario if nested == "scenario" else cfg.algorithms[-1], field, value)
        # the message names the nested config that failed
        prefix = "scenario" if nested == "scenario" else f"algorithms[{cfg.algorithms[-1].label}]"
        match = "^" + re.escape(f"{prefix}: {match}")
        assert_rejected_before_any_draw(monkeypatch, kind, cfg, match)

    @pytest.mark.parametrize("kind", ["ident", "spectrum"])
    def test_taps_assigned_after_build_rejected_by_runner(self, monkeypatch, kind):
        cfg = small_ident_config() if kind == "ident" else small_spectrum_config()
        cfg.algorithms[-1].n_taps = 8
        # the filter's own field, so no ": " follows its label
        length = "scenario.n_taps (16)" if kind == "ident" else "scenario.full_len (64)"
        match = f"algorithms[{cfg.algorithms[-1].label}].n_taps (8) must equal {length}"
        assert_rejected_before_any_draw(monkeypatch, kind, cfg, "^" + re.escape(match))

    @pytest.mark.parametrize("kind", ["ident", "spectrum"])
    def test_foreign_roster_entry_rejected(self, monkeypatch, kind):
        cfg = small_ident_config() if kind == "ident" else small_spectrum_config()
        with pytest.raises(ValueError, match=r"^algorithms\[1\]: expected FilterConfig, got str$"):
            ExperimentConfig(cfg.scenario, [cfg.algorithms[0], "lms"])
        cfg.algorithms.append(None)
        match = r"^algorithms\[2\]: expected FilterConfig, got NoneType$"
        assert_rejected_before_any_draw(monkeypatch, kind, cfg, match)

    @pytest.mark.parametrize("scenario", [None, "ident", FilterConfig("lms", n_taps=16, mu=0.02)])
    def test_unknown_scenario_type_rejected(self, monkeypatch, scenario):
        algorithms = small_ident_config().algorithms
        match = "^" + re.escape(
            f"scenario: expected IdentScenario or SpectrumScenario, got {type(scenario).__name__}"
        )
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(scenario, algorithms)
        cfg = small_ident_config()
        cfg.scenario = scenario
        with pytest.raises(ValueError, match=match):
            cfg.validate()
        # each runner names the kind it runs first
        for kind, expected in [("ident", "IdentScenario"), ("spectrum", "SpectrumScenario")]:
            match = f"^scenario: expected {expected}, got {type(scenario).__name__}$"
            assert_rejected_before_any_draw(monkeypatch, kind, cfg, match)

    def test_wrong_scenario_named_before_its_fields(self, monkeypatch):
        # a spectrum scenario handed to identification is named, broken fields or not
        cfg = small_spectrum_config()
        cfg.scenario.n_samples = 0
        monkeypatch.setattr(harness, "_ident_draw", no_draw)
        with pytest.raises(ValueError, match="scenario: expected IdentScenario"):
            run_ident_experiment(cfg)

    def test_fields_resolve_per_experiment(self):
        ident, spectrum = small_ident_config(), small_spectrum_config()
        assert (ident.snapshot_every, ident.passes) == (150, 1)
        assert (spectrum.snapshot_every, spectrum.passes) == (None, 6)
        spectrum = ExperimentConfig(spectrum.scenario, spectrum.algorithms)
        assert (spectrum.snapshot_every, spectrum.passes) == (None, 10)
        # the resolved values may be given explicitly
        assert replace(ident, passes=1).passes == 1
        assert replace(spectrum, snapshot_every=None).snapshot_every is None

    def test_duplicate_labels_assigned_after_build_rejected(self):
        cfg = small_ident_config()
        cfg.algorithms.append(FilterConfig("lms", n_taps=16, mu=0.01))
        with pytest.raises(ValueError, match="duplicate labels"):
            run_ident_experiment(cfg)

    def test_numpy_integer_counts_accepted(self):
        cfg = small_ident_config(n_runs=np.int64(2))
        cfg = replace(cfg, snapshot_every=np.int32(50), passes=np.int8(1))
        assert (cfg.n_runs, cfg.snapshot_every, cfg.passes) == (2, 50, 1)
        assert all(type(c) is int for c in (cfg.n_runs, cfg.snapshot_every, cfg.passes))
        assert run_ident_experiment(cfg)["lms"].n_runs == 2
        cfg = replace(small_spectrum_config(n_runs=np.int16(1)), passes=np.int8(3))
        assert (cfg.n_runs, cfg.passes) == (1, 3)
        assert run_spectrum_experiment(cfg).n_runs == 1

    def test_taps_mismatch_names_field(self):
        sc = IdentScenario(n_taps=8, n_nonzero=2, signal_len=10)
        match = "^" + re.escape("algorithms[lms].n_taps (4) must equal scenario.n_taps (8)")
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(scenario=sc, algorithms=[FilterConfig("lms", n_taps=4, mu=0.1)])

    def test_scenario_kind_checked(self):
        cfg = small_spectrum_config()
        with pytest.raises(ValueError, match="IdentScenario"):
            run_ident_experiment(cfg)
        with pytest.raises(ValueError, match="SpectrumScenario"):
            run_spectrum_experiment(small_ident_config())


class TestSnapshotCadence:
    def test_default_capped_at_short_signal(self):
        cfg = small_ident_config(n_runs=1, signal_len=100)
        assert cfg.snapshot_every == 100
        curves = run_ident_experiment(cfg)
        for curve in curves.values():
            assert [r["iteration"] for r in curve.diagnostics] == [100]

    def test_cadence_beyond_signal_rejected(self):
        match = "^" + re.escape("snapshot_every must satisfy 1 <= snapshot_every <= 100, got 500")
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(
                scenario=IdentScenario(n_taps=16, n_nonzero=3, signal_len=100),
                algorithms=[FilterConfig("lms", n_taps=16, mu=0.02)],
                snapshot_every=500,
            )


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, None, "2"])
    def test_rejected_before_any_stream_is_drawn(self, monkeypatch, workers):
        # the draws the runners really call
        monkeypatch.setattr(harness, "_ident_draw", no_draw)
        monkeypatch.setattr(harness, "_spectrum_draw", no_draw)
        with pytest.raises(ValueError, match="max_workers"):
            run_ident_experiment(small_ident_config(), max_workers=workers)
        with pytest.raises(ValueError, match="max_workers"):
            run_spectrum_experiment(small_spectrum_config(), max_workers=workers)

    def test_numpy_integers_accepted(self):
        cfg = small_ident_config(n_runs=2)
        serial = run_ident_experiment(cfg)
        parallel = run_ident_experiment(cfg, max_workers=np.int64(2))
        for label in serial:
            assert np.array_equal(serial[label].esr_linear, parallel[label].esr_linear)
        report = run_spectrum_experiment(small_spectrum_config(n_runs=1), max_workers=np.int32(1))
        assert report.n_runs == 1

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        # more workers than usable CPUs: blocks, roster slices and shares are cut for the
        # CPUs, and this process steps share 0
        forked, blocks = in_process_shares(monkeypatch, cpus=1, step=False)
        spectrum_blocks = recorded_spectrum_blocks(monkeypatch)
        args = cli.build_parser().parse_args(["ident", "--runs", "6", "--workers", "2"])
        run_ident_experiment(cli._ident_experiment(args), max_workers=args.workers)
        # one usable CPU: one whole-roster block, where two CPUs step two roster slices
        assert blocks == [(cli_roster(), (0, 6))] and forked == []
        cfg = small_spectrum_config(n_runs=9)
        run_spectrum_experiment(cfg, max_workers=3)
        assert spectrum_blocks == [(0, 9)] and forked == []  # one 9-run block, no child
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4, 7})
        spectrum_blocks.clear()
        run_spectrum_experiment(cfg, max_workers=3)
        assert sorted(spectrum_blocks) == [(0, 5), (5, 9)] and forked == [[(5, 9)]]
        # without sched_getaffinity the CPU count caps the workers
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        spectrum_blocks.clear()
        run_spectrum_experiment(cfg, max_workers=5)
        assert sorted(spectrum_blocks) == [(0, 3), (3, 6), (6, 9)]
        assert forked[1:] == [[(3, 6)], [(6, 9)]]  # three shares: pair i goes to share i mod 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        spectrum_blocks.clear()
        run_spectrum_experiment(cfg, max_workers=4)
        assert spectrum_blocks == [(0, 9)] and len(forked) == 3

    def test_blocks_cut_for_the_workers_asked(self):
        # _map_blocks itself cuts for the workers its runner hands it
        assert mapped_runs(64, 48, 64) == [(r, r + 1) for r in range(64)]
        assert mapped_runs(9, 8, 3) == [(0, 3), (3, 6), (6, 9)]
        assert mapped_runs(10, 48, 5) == [(r, r + 2) for r in range(0, 10, 2)]


def block_args(*args):
    return args


def mapped_runs(n_runs, size, max_workers):
    """The run blocks ``_map_blocks`` hands out for a one-config roster."""
    pairs = harness._map_blocks(block_args, ["cfg"], n_runs, size, max_workers)
    return [runs for _, runs in pairs]


def recorded_blocks(monkeypatch, step=True):
    """The ``(labels, runs)`` of each identification block, in the order the blocks step.

    The fork runner steps this process's share first and each child's when
    its first result is read, so the partition is compared sorted.

    With ``step=False`` a block returns ESR 1 and empty diagnostics
    instead of stepping.
    """
    blocks = []

    def recorded(cfg, runs):
        labels = [a.label for a in cfg.algorithms]
        blocks.append((labels, runs))
        if step:
            return ident_block(cfg, runs)
        ones = np.ones((runs[1] - runs[0], cfg.scenario.signal_len))
        return {l: ones for l in labels}, {l: [] for l in labels} if runs[0] == 0 else None

    ident_block = harness._ident_block
    monkeypatch.setattr(harness, "_ident_block", recorded)
    return blocks


def recorded_spectrum_blocks(monkeypatch):
    """The runs of each spectrum block, in the order the blocks step."""
    blocks, spectrum_block = [], harness._spectrum_block

    def recorded(cfg, runs):
        blocks.append(runs)
        return spectrum_block(cfg, runs)

    monkeypatch.setattr(harness, "_spectrum_block", recorded)
    return blocks


def in_process_shares(monkeypatch, cpus, step=True):
    """Step every share in process over ``cpus`` usable CPUs and record what the runner hands out.

    Returns ``(forked, blocks)``: the run blocks of each share a child
    would step, and :func:`recorded_blocks`.  A child's share steps when
    its first result is read.
    """
    forked = []

    def child(fn, share):
        forked.append([runs for _, runs in share])
        yield from harness._stepped(fn, share)

    monkeypatch.setattr(harness, "_Child", child)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return forked, recorded_blocks(monkeypatch, step)


def in_process_pools(monkeypatch, cpus, step=True):
    """Run the process pool of other platforms in process over ``cpus`` usable CPUs.

    Returns ``(opened, blocks)``: the ``max_workers`` of each pool opened,
    and :func:`recorded_blocks`.
    """
    import concurrent.futures
    import sys

    opened = []

    class InProcessPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return opened, recorded_blocks(monkeypatch, step)


class TestBlockGrid:
    """Identification blocks: runs split over the workers, or roster slices when runs are few."""

    def cli_config(self, *argv):
        from sparselms import cli

        args = cli.build_parser().parse_args(["ident", *argv])
        return cli._ident_experiment(args), args.workers

    def test_few_runs_split_the_roster(self, monkeypatch):
        forked, blocks = in_process_shares(monkeypatch, cpus=2, step=False)
        cfg, workers = self.cli_config("--runs", "6", "--workers", "2")
        run_ident_experiment(cfg, max_workers=workers)
        assert sorted(blocks) == sorted([
            (["lms", "za_lms", "rza_lms", "sza_lms"], (0, 6)),
            (["hard_lms", "hard_init_lms", "hard_rel_lms"], (0, 6)),
        ])
        assert forked == [[(0, 6)]]  # two shares: the first slice here, the second in a child

    def test_many_runs_keep_whole_roster_blocks(self, monkeypatch):
        forked, blocks = in_process_shares(monkeypatch, cpus=2, step=False)
        cfg, workers = self.cli_config("--runs", "200", "--workers", "2", "--signal-len", "10")
        run_ident_experiment(cfg, max_workers=workers)
        starts = [0, 48, 96, 144, 192]
        assert sorted(blocks) == sorted([(cli_roster(), (b, min(b + 48, 200))) for b in starts])
        # two shares, the blocks dealt in turn: 104 runs here and 96 in the child
        assert forked == [[(48, 96), (144, 192)]]

    @pytest.mark.parametrize(
        "n_runs,workers,cpus,expected",
        [
            # one algorithm: the runs alone are split
            (6, 2, 2, [(0, 3), (3, 6)]),
            (5, 8, 8, [(r, r + 1) for r in range(5)]),
        ],
    )
    def test_one_algorithm_splits_the_runs(self, monkeypatch, n_runs, workers, cpus, expected):
        forked, blocks = in_process_shares(monkeypatch, cpus=cpus)
        cfg = small_ident_config(n_runs=n_runs, algorithms=[FilterConfig("lms", n_taps=16, mu=0.02)])
        run_ident_experiment(cfg, max_workers=workers)
        assert sorted(blocks) == sorted([(["lms"], runs) for runs in expected])
        assert len(forked) + 1 == min(workers, len(expected))  # the shares
        assert forked == [[runs] for runs in expected[1:]]

    @pytest.mark.parametrize("n_runs,sliced", [(94, True), (96, False)])
    def test_roster_cut_below_block_runs_a_worker(self, monkeypatch, n_runs, sliced):
        # 47 runs a worker cut the roster, 48 do not
        _, blocks = in_process_shares(monkeypatch, cpus=2, step=False)
        cfg, workers = self.cli_config("--runs", str(n_runs), "--workers", "2", "--signal-len", "10")
        run_ident_experiment(cfg, max_workers=workers)
        roster = cli_roster()
        slices = [roster[:4], roster[4:]] if sliced else [roster]
        runs = [(0, 48), (48, n_runs)]
        assert sorted(blocks) == sorted([(s, r) for r in runs for s in slices])

    def test_slices_and_run_blocks_together(self, monkeypatch):
        # 60 runs at three workers: three slices of 3, 2 and 2 algorithms over 48 + 12 runs
        _, blocks = in_process_shares(monkeypatch, cpus=3, step=False)
        cfg, workers = self.cli_config("--runs", "60", "--workers", "3", "--signal-len", "10")
        run_ident_experiment(cfg, max_workers=workers)
        roster = cli_roster()
        slices = [roster[:3], roster[3:5], roster[5:]]
        assert sorted(blocks) == sorted([(s, runs) for runs in [(0, 48), (48, 60)] for s in slices])

    @pytest.mark.parametrize("snapshot_every", [1, 20])
    @pytest.mark.parametrize("n_runs", [1, 2, 6])
    def test_results_equal_at_any_worker_count(self, monkeypatch, n_runs, snapshot_every):
        _, blocks = in_process_shares(monkeypatch, cpus=8)
        cfg = small_ident_config(n_runs=n_runs, algorithms=all_algorithms(16, 3, 0.02),
                                 signal_len=60)
        cfg.snapshot_every = snapshot_every
        serial = run_ident_experiment(cfg)
        for workers in (2, 3, 7, 8):
            blocks.clear()
            curves = run_ident_experiment(cfg, max_workers=workers)
            # each algorithm steps every run exactly once
            assert sorted(l for labels, _ in blocks for l in labels) == sorted(
                [a.label for a in cfg.algorithms] * len({runs for _, runs in blocks})
            )
            assert list(curves) == list(serial)
            for label, curve in curves.items():
                assert curve.esr_linear.tobytes() == serial[label].esr_linear.tobytes(), label
                assert curve.diagnostics == serial[label].diagnostics, label
                assert curve.n_runs == n_runs


    def test_other_platforms_keep_the_pool(self, monkeypatch):
        # off Linux the pool steps the same blocks, to the same bits
        opened, blocks = in_process_pools(monkeypatch, cpus=2)
        cfg, workers = self.cli_config("--runs", "6", "--workers", "2", "--signal-len", "50")
        pooled = run_ident_experiment(cfg, max_workers=workers)
        roster = cli_roster()
        assert blocks == [(roster[:4], (0, 6)), (roster[4:], (0, 6))]
        assert opened == [2]
        serial = run_ident_experiment(cfg)
        for label, curve in serial.items():
            assert pooled[label].esr_linear.tobytes() == curve.esr_linear.tobytes(), label
            assert pooled[label].diagnostics == curve.diagnostics, label


def has_children():
    """Whether this process has a child, running or not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def stepped_by(cfg, runs):
    return cfg, runs, os.getpid()


class TestForkRunner:
    """The fork runner for real: children forked from this process over three usable CPUs."""

    @pytest.fixture(autouse=True)
    def forked(self, monkeypatch):
        """The pids of the children each test forks; none may be left after it."""
        pids = []

        def child(fn, share):
            started = fork(fn, share)
            pids.append(started.pid)
            return started

        fork = harness._Child
        monkeypatch.setattr(harness, "_Child", child)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert not has_children()
        yield pids
        assert not has_children()

    def test_artifacts_identical_at_one_two_and_three_workers(self, tmp_path, forked):
        ident = small_ident_config(n_runs=5, algorithms=all_algorithms(16, 3, 0.02))
        ident.snapshot_every = 50
        spectrum = small_spectrum_config(n_runs=5)
        blobs = []
        for workers in (1, 2, 3):
            forked.clear()
            curves = run_ident_experiment(ident, max_workers=workers)
            report = run_spectrum_experiment(spectrum, max_workers=workers)
            # one share a worker in each runner, all but the first forked
            assert len(forked) == 2 * (workers - 1)
            diags = {label: c.diagnostics for label, c in curves.items()}
            out = tmp_path / str(workers)
            emit_outputs(curves, out / "ident", experiment=ident, diagnostics=diags)
            emit_outputs(report, out / "spectrum", experiment=spectrum)
            names = ["ident/curves.csv", "ident/summary.json", "spectrum/spectrum.csv",
                     "spectrum/summary.json"]
            blobs.append([(out / name).read_bytes() for name in names])
        assert blobs[0] == blobs[1] == blobs[2]

    def test_results_in_pair_order_shares_dealt_in_turn(self, forked):
        results = list(harness._map_blocks(stepped_by, ["a", "b"], 7, 2, 3))
        assert [r[:2] for r in results] == list(harness._map_blocks(block_args, ["a", "b"], 7, 2, 1))
        # pair i is stepped by share i mod 3: this process, then the children in turn
        owners = [os.getpid(), *forked]
        assert [pid for *_, pid in results] == [owners[i % 3] for i in range(len(results))]
        assert len(set(owners)) == 3

    @pytest.mark.parametrize("failing", [{1, 2}, {2, 3}, {3, 1}, {0, 1}, {4, 3}, {5}],
                             ids=lambda pairs: "-".join(map(str, sorted(pairs))))
    def test_first_failure_in_pair_order_raised(self, failing):
        # pairs 0, 3 and 6 step here, 1 and 4 in one child, 2 and 5 in the other
        def block(cfg, runs):
            if runs[0] in failing:
                raise ValueError(f"block {runs} failed in {'a child' if os.getpid() != me else 'here'}")
            return runs

        me = os.getpid()
        with pytest.raises(ValueError) as info:
            list(harness._map_blocks(block, ["cfg"], 7, 1, 3))
        first = min(failing)
        where = "here" if first % 3 == 0 else "a child"
        assert str(info.value) == f"block ({first}, {first + 1}) failed in {where}"

    @pytest.mark.parametrize("diverging", [(1,), (5, 6), (3, 4)], ids=["here", "child", "split"])
    def test_divergence_reported_as_at_one_worker(self, diverging, forked):
        # the filters diverge while they warm up; at two workers the first four step
        # here and the last three in a child, at three workers 0-2 here, 3-4 and 5-6 in two
        algorithms = all_algorithms(16, 3, 0.02)
        for i in diverging:
            algorithms[i] = replace(algorithms[i], mu=50.0, warmup_steps=149)
        cfg = small_ident_config(n_runs=2, algorithms=algorithms)
        errors = []
        for workers in (1, 2, 3):
            with pytest.raises(ValueError) as info:
                run_ident_experiment(cfg, max_workers=workers)
            errors.append(str(info.value))
        assert len(forked) == 3
        assert errors[0] == errors[1] == errors[2]
        assert errors[0].startswith(f"algorithms[{algorithms[diverging[0]].label}]: run 0 diverged")

    @pytest.mark.parametrize("ending,status", [("exit", 3), ("kill", -9)])
    def test_child_ending_without_a_result_names_its_status(self, ending, status):
        # the child stepping pairs 1 and 4 ends at pair 4, before it sends either
        def block(cfg, runs):
            if os.getpid() != me and runs == (4, 5):
                os._exit(3) if ending == "exit" else os.kill(os.getpid(), 9)
            return runs

        me = os.getpid()
        results = harness._map_blocks(block, ["cfg"], 7, 1, 3)
        assert next(results) == (0, 1)
        with pytest.raises(ChildProcessError, match=f"exit status {status} and no result"):
            next(results)

    @pytest.mark.parametrize("stop", ["close", "interrupt"])
    def test_children_killed_when_stopped_early(self, stop):
        # the children would step for a minute; closing the generator after its
        # first block, or an interrupt in this process's share, kills them at once
        def block(cfg, runs):
            if os.getpid() != me:
                time.sleep(60)
            elif stop == "interrupt":
                raise KeyboardInterrupt
            return runs

        me = os.getpid()
        start = time.perf_counter()
        results = harness._map_blocks(block, ["cfg"], 3, 1, 3)
        if stop == "close":
            assert next(results) == (0, 1)
            results.close()
        else:
            with pytest.raises(KeyboardInterrupt):
                next(results)
        assert time.perf_counter() - start < 30


def cli_roster():
    from sparselms.cli import IDENT_ALGORITHMS

    return list(IDENT_ALGORITHMS)


class TestRunIdentExperiment:
    def test_curve_shapes(self):
        cfg = small_ident_config()
        curves = run_ident_experiment(cfg)
        assert set(curves) == {"lms", "hard_init_lms"}
        for c in curves.values():
            assert c.esr_linear.shape == (150,)
            assert c.n_runs == 3

    def test_noiseless_single_run_lms_improves(self):
        cfg = small_ident_config(n_runs=1, snr_db=np.inf,
                                 algorithms=[FilterConfig("lms", n_taps=16, mu=0.02)])
        curve = run_ident_experiment(cfg)["lms"]
        assert curve.esr_linear[-1] < curve.esr_linear[0]

    def test_deterministic(self):
        cfg = small_ident_config()
        a = run_ident_experiment(cfg)
        b = run_ident_experiment(cfg)
        for label in a:
            assert np.array_equal(a[label].esr_linear, b[label].esr_linear)

    def test_parallel_matches_serial(self):
        cfg = small_ident_config(n_runs=4)
        serial = run_ident_experiment(cfg, max_workers=1)
        parallel = run_ident_experiment(cfg, max_workers=4)
        for label in serial:
            assert np.array_equal(serial[label].esr_linear, parallel[label].esr_linear)

    def test_mean_is_linear_over_runs(self):
        cfg = small_ident_config(n_runs=2)
        both = run_ident_experiment(cfg)["lms"].esr_linear
        singles = []
        for r in range(2):
            one = ExperimentConfig(
                scenario=cfg.scenario, algorithms=cfg.algorithms, n_runs=1,
                base_seed=cfg.base_seed + r,
            )
            singles.append(run_ident_experiment(one)["lms"].esr_linear)
        assert np.allclose(both, (singles[0] + singles[1]) / 2, rtol=0, atol=1e-15)


def all_algorithms(n_taps, s, mu):
    return [
        FilterConfig(a.value, n_taps=n_taps, mu=mu, rho=1e-3, sparsity=s,
                     relaxed_sparsity=2 * s, warmup_steps=30)
        for a in Algorithm
    ]


class TestBatchedEngine:
    """The block engine against the scalar stepper and across block shapes."""

    @pytest.mark.parametrize("n_taps,s,mu", [(16, 3, 0.02), (256, 28, 0.005)])
    def test_esr_rows_match_scalar_runs(self, n_taps, s, mu):
        scenario = IdentScenario(n_taps=n_taps, n_nonzero=s, signal_len=120)
        algorithms = all_algorithms(n_taps, s, mu)
        cfg = ExperimentConfig(scenario, algorithms, base_seed=5, snapshot_every=40)
        rows, _ = _ident_block(cfg, (0, 3))
        for r in range(3):
            stream = gen_ident_stream(replace(scenario, seed=5 + r))
            for a in algorithms:
                estimates, _ = run_stream(a, stream)
                ref = np.array([esr(stream.truth, w) for w in estimates])
                assert np.array_equal(rows[a.label][r], ref), a.label

    def test_diagnostics_esr_equals_curve(self):
        scenario = IdentScenario(n_taps=256, n_nonzero=28, signal_len=300)
        cfg = ExperimentConfig(scenario, all_algorithms(256, 28, 0.005), snapshot_every=1)
        for label, curve in run_ident_experiment(cfg).items():
            assert len(curve.diagnostics) == 300
            for record in curve.diagnostics:
                assert record["esr"] == curve.esr_linear[record["iteration"] - 1], label

    def test_rows_independent_of_block_shape(self):
        cfg = small_ident_config(n_runs=5, algorithms=all_algorithms(16, 3, 0.02))
        whole, diags = _ident_block(cfg, (0, 5))
        for blocks in ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [(0, 2), (2, 5)]):
            parts = [_ident_block(cfg, b) for b in blocks]
            assert parts[0][1] == diags
            assert all(p[1] is None for p in parts[1:])
            for label, rows in whole.items():
                assert np.array_equal(np.vstack([p[0][label] for p in parts]), rows)

    @settings(max_examples=15, deadline=None)
    @given(n_runs=st.integers(1, 7), data=st.data())
    def test_rows_independent_of_random_block_shapes(self, n_runs, data):
        scenario = IdentScenario(n_taps=16, n_nonzero=3, signal_len=60)
        cfg = ExperimentConfig(
            scenario, all_algorithms(16, 3, 0.02), n_runs=n_runs,
            base_seed=data.draw(st.integers(0, 10**6)), snapshot_every=20,
        )
        cuts = data.draw(st.sets(st.integers(1, n_runs - 1))) if n_runs > 1 else set()
        bounds = [0, *sorted(cuts), n_runs]
        parts = [_ident_block(cfg, b) for b in zip(bounds, bounds[1:])]
        whole, diags = _ident_block(cfg, (0, n_runs))
        assert parts[0][1] == diags
        for label, rows in whole.items():
            assert np.array_equal(np.vstack([p[0][label] for p in parts]), rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_main_pass_diagnostics_equal_standalone(self, workers):
        cfg = small_ident_config(n_runs=4, algorithms=all_algorithms(16, 3, 0.02))
        cfg.snapshot_every = 30
        curves = run_ident_experiment(cfg, max_workers=workers)
        standalone = ident_diagnostics(cfg)
        assert {label: c.diagnostics for label, c in curves.items()} == standalone
        assert [r["iteration"] for r in standalone["hard_lms"]] == [30, 60, 90, 120, 150]

    @pytest.mark.parametrize("n_runs", [1, 3, harness.BLOCK_RUNS])
    def test_rows_independent_of_stack_mates(self, n_runs):
        # every algorithm of a block shares one stack, whatever the block size
        algorithms = all_algorithms(16, 3, 0.02)
        algorithms[1] = replace(algorithms[1], mu=0.01, rho=5e-3)
        algorithms[6] = replace(algorithms[6], mu=0.03, warmup_steps=10)
        cfg = small_ident_config(n_runs=n_runs, algorithms=algorithms, signal_len=60)
        cfg.snapshot_every = 7
        whole, diags = _ident_block(cfg, (0, n_runs))
        permuted = [algorithms[i] for i in (4, 0, 6, 2, 5, 1, 3)]
        shuffled, shuffled_diags = _ident_block(replace(cfg, algorithms=permuted), (0, n_runs))
        for a in algorithms:
            alone, alone_diags = _ident_block(replace(cfg, algorithms=[a]), (0, n_runs))
            for rows, records in ((whole, diags), (shuffled, shuffled_diags)):
                assert np.array_equal(rows[a.label], alone[a.label]), a.label
                assert records[a.label] == alone_diags[a.label], a.label

    def test_diagnosis_chunks_join_seamlessly(self, monkeypatch):
        cfg = small_ident_config(n_runs=2, algorithms=all_algorithms(16, 3, 0.02), signal_len=60)
        cfg.snapshot_every = 4
        whole = _ident_block(cfg, (0, 2))
        # 15 snapshots diagnosed 4, 4, 4 and 3 at a time
        monkeypatch.setattr(harness, "SNAPSHOT_CHUNK", 4)
        chunked = _ident_block(cfg, (0, 2))
        assert chunked[1] == whole[1]
        assert [r["iteration"] for r in chunked[1]["lms"]] == list(range(4, 61, 4))

    @pytest.mark.parametrize(
        "labels,expected",
        [
            # the diverging filter leads a stack of stable ones
            (["fast", "lms", "hard_lms"], "fast.*run 0 diverged.*iteration 249;"),
            # two diverge; "early" does so first, but "fast" comes first in the roster
            (["lms", "fast", "early"], "fast.*run 0 diverged.*iteration 249;"),
            (["early", "fast"], "early.*run 0 diverged.*iteration 218;"),
        ],
    )
    def test_divergence_reported_in_roster_order(self, labels, expected):
        roster = {
            "fast": FilterConfig("za_lms", n_taps=16, mu=2.0, rho=1e-4, label="fast"),
            "early": FilterConfig("rza_lms", n_taps=16, mu=3.0, rho=1e-4, label="early"),
            "lms": FilterConfig("lms", n_taps=16, mu=0.02),
            "hard_lms": FilterConfig("hard_lms", n_taps=16, mu=0.02, sparsity=3),
        }
        cfg = small_ident_config(
            n_runs=2, algorithms=[roster[l] for l in labels], signal_len=400
        )
        with pytest.raises(ValueError, match=expected):
            run_ident_experiment(cfg)

    def test_divergence_names_algorithm_run_and_iteration(self):
        algorithms = [
            FilterConfig("lms", n_taps=16, mu=0.02),
            FilterConfig("za_lms", n_taps=16, mu=2.0, rho=1e-4, label="fast"),
        ]
        cfg = small_ident_config(n_runs=2, algorithms=algorithms, signal_len=400)
        with pytest.raises(ValueError, match=r"fast.*run 0 diverged.*iteration \d+"):
            run_ident_experiment(cfg)


class TestRunSpectrumExperiment:
    def test_diverging_filter_reported_without_warnings(self):
        # mu 50 times 1/||x||^2 overflows lms to NaN, which a hard threshold would keep
        cfg = ExperimentConfig(
            SpectrumScenario(full_len=64, n_tones=3, n_samples=24),
            [FilterConfig("lms", 64, 50.0), FilterConfig("hard_lms", 64, 1.0, sparsity=6)],
            n_runs=2,
            passes=200,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                "algorithms[lms]: run 0 diverged, its final estimate is non-finite; reduce mu"
            )):
                run_spectrum_experiment(cfg)
        # the stable filter alone runs to a report
        cfg.algorithms = cfg.algorithms[1:]
        assert run_spectrum_experiment(cfg).hit_rates["hard_lms"] == 1.0

    def test_divergence_named_in_its_own_block(self, monkeypatch):
        # one run a block: run 1 is named even when run 0 is finite
        monkeypatch.setattr(harness, "SPECTRUM_BLOCK_ENTRIES", 1)
        cfg = small_spectrum_config(n_runs=3)
        finite = harness._stack

        def nan_in_run_1(cfg, runs):
            truths, updates = finite(cfg, runs)
            *_, (n, w) = updates
            if runs == (1, 2):
                w[1, 0, 5] = np.nan
            return truths, iter([(n, w)])

        monkeypatch.setattr(harness, "_stack", nan_in_run_1)
        with pytest.raises(ValueError, match=r"algorithms\[complex_hard_lms\]: run 1 diverged"):
            run_spectrum_experiment(cfg)

    def test_report_contents(self):
        cfg = small_spectrum_config()
        report = run_spectrum_experiment(cfg)
        assert report.sparsity == 4
        assert report.n_runs == 2
        assert report.true_magnitudes.shape == (64,)
        for label in ("complex_lms", "complex_hard_lms"):
            assert report.estimate_magnitudes[label].shape == (64,)
            assert len(report.per_run_hit_rates[label]) == 2
            assert 0.0 <= report.hit_rates[label] <= 1.0

    def test_hard_recovers_amplitudes_better(self):
        report = run_spectrum_experiment(small_spectrum_config(n_runs=3))
        hard = np.mean(report.true_bin_means["complex_hard_lms"])
        plain = np.mean(report.true_bin_means["complex_lms"])
        assert hard > plain

    def test_every_variant_equals_run_stream(self):
        # all seven variants, each with its own mu and warm-up: a filter steps at
        # mu/||x||^2 and a hard variant thresholds after warmup_steps + n_samples.
        # The three runs take two step sizes at full_len 128, and the configs
        # differ in mu, so the stepper multiplies by an (algorithms, runs, 1) column.
        sc = SpectrumScenario(full_len=128, n_tones=3, n_samples=24)
        kw = dict(n_taps=128, rho=1e-3, epsilon=5.0, sparsity=6, relaxed_sparsity=9)
        algorithms = [
            FilterConfig(a, mu=0.3 + 0.1 * k, warmup_steps=5 * k, **kw)
            for k, a in enumerate(Algorithm)
        ]
        cfg = ExperimentConfig(sc, algorithms, n_runs=3, passes=3)
        report = run_spectrum_experiment(cfg)
        for run, (truth, estimates) in enumerate(harness._spectrum_block(cfg, (0, 3))):
            stream = gen_spectrum_stream(replace(sc, seed=run), passes=3)
            scale = step_size_from_stream(stream)
            for a in algorithms:
                ref = replace(a, mu=a.mu * scale, warmup_steps=a.warmup_steps + sc.n_samples)
                w = run_stream(ref, stream)[0][-1]
                assert estimates[a.label].tobytes() == w.tobytes(), (run, a.label)
                mean = float(np.mean(np.abs(w[support(truth)])))
                assert report.true_bin_means[a.label][run] == mean
                if run == 0:
                    assert report.estimate_magnitudes[a.label].tobytes() == np.abs(w).tobytes()

    def test_rejects_taps_mismatch_before_running(self):
        cfg = small_spectrum_config()
        cfg.algorithms[0] = FilterConfig("lms", n_taps=32, mu=1.0, label="short")
        with pytest.raises(
            ValueError, match=r"algorithms\[short\]\.n_taps \(32\) must equal scenario\.full_len \(64\)"
        ):
            run_spectrum_experiment(cfg)

    def test_equals_tiled_stream_bit_for_bit(self):
        # the runner walks one drawn pass `passes` times; the reference
        # steps run_stream over the stream tiled by the generator.  The three
        # runs' step sizes are equal at full_len 64, so the stepper multiplies
        # by one number, and take two values at 128, so it keeps a column.
        for full_len, n_step_sizes in [(64, 1), (128, 2)]:
            self.check_equals_tiled_stream(full_len, n_step_sizes)

    @staticmethod
    def check_equals_tiled_stream(full_len, n_step_sizes):
        sc = SpectrumScenario(full_len=full_len, n_tones=2, n_samples=24)
        algorithms = [
            FilterConfig("lms", n_taps=full_len, mu=1.0),
            FilterConfig("hard_lms", n_taps=full_len, mu=1.0, sparsity=4),
        ]
        cfg = ExperimentConfig(scenario=sc, algorithms=algorithms, n_runs=3, passes=3)
        report = run_spectrum_experiment(cfg)
        streams = [gen_spectrum_stream(replace(sc, seed=run), passes=3) for run in range(3)]
        assert len({step_size_from_stream(stream) for stream in streams}) == n_step_sizes
        for run, stream in enumerate(streams):
            mu = step_size_from_stream(stream)
            true_support = support(stream.truth)
            s = true_support.size
            for a in algorithms:
                ref = replace(a, mu=a.mu * mu, warmup_steps=a.warmup_steps + 24)
                w = run_stream(ref, stream)[0][-1]
                top = support(hard_threshold(w, s))
                if run == 0:
                    assert np.array_equal(report.estimate_magnitudes[a.label], np.abs(w))
                    assert np.array_equal(report.top_sets[a.label], top)
                hit = float(np.isin(true_support, top).sum()) / s
                assert report.per_run_hit_rates[a.label][run] == hit
                mean = float(np.mean(np.abs(w[true_support])))
                assert report.true_bin_means[a.label][run] == mean

    def test_parallel_matches_serial(self):
        cfg = small_spectrum_config(n_runs=3)
        a = run_spectrum_experiment(cfg, max_workers=1)
        b = run_spectrum_experiment(cfg, max_workers=3)
        assert a.per_run_hit_rates == b.per_run_hit_rates
        for label in a.estimate_magnitudes:
            assert np.array_equal(a.estimate_magnitudes[label], b.estimate_magnitudes[label])

    @settings(max_examples=15, deadline=None)
    @given(n_runs=st.integers(1, 7), passes=st.integers(1, 3), data=st.data())
    def test_rows_independent_of_random_block_shapes(self, n_runs, passes, data):
        # at one pass nothing is ever thresholded
        cfg = replace(
            small_spectrum_config(n_runs=n_runs), passes=passes,
            base_seed=data.draw(st.integers(0, 10**6)),
        )
        cuts = data.draw(st.sets(st.integers(1, n_runs - 1))) if n_runs > 1 else set()
        bounds = [0, *sorted(cuts), n_runs]
        parts = [run for b in zip(bounds, bounds[1:]) for run in harness._spectrum_block(cfg, b)]
        whole = harness._spectrum_block(cfg, (0, n_runs))
        for runs in (parts, whole):
            assert len(runs) == n_runs
        for label in ("complex_lms", "complex_hard_lms"):
            final = [np.array([est[label] for _, est in runs]) for runs in (parts, whole)]
            assert final[0].tobytes() == final[1].tobytes(), label
        truths = [np.array([truth for truth, _ in runs]) for runs in (parts, whole)]
        assert truths[0].tobytes() == truths[1].tobytes()

    @pytest.mark.parametrize("n_samples", [24, 64])
    def test_block_size_leaves_artifacts_unchanged(self, monkeypatch, tmp_path, n_samples):
        # the runners' one partition: 9 runs in blocks of 8 + 1 at one
        # worker, of 3 + 3 + 3 at three.  At n_samples == full_len every run
        # samples every position, so each block holds the same 64 index rows
        # for a different number of runs.
        assert mapped_runs(9, 8, 1) == [(0, 8), (8, 9)]
        assert mapped_runs(9, 8, 3) == [(0, 3), (3, 6), (6, 9)]
        forked, _ = in_process_shares(monkeypatch, cpus=3)
        cfg = small_spectrum_config(n_runs=9)
        cfg.scenario.n_samples = n_samples
        artifacts, default = [], harness.SPECTRUM_BLOCK_ENTRIES
        # None: the default, one block of all 9 runs at one worker, 5 + 4 at two
        for cap, workers in ((None, 1), (1, 1), (3, 1), (8, 1), (8, 3), (None, 2)):
            entries = default if cap is None else cap * cfg.scenario.full_len
            monkeypatch.setattr(harness, "SPECTRUM_BLOCK_ENTRIES", entries)
            report = run_spectrum_experiment(cfg, max_workers=workers)
            paths = emit_outputs(report, tmp_path / f"{cap}-{workers}", experiment=cfg)
            artifacts.append([path.read_bytes() for path in paths])
        assert all(a == artifacts[0] for a in artifacts)
        assert forked == [[(3, 6)], [(6, 9)], [(5, 9)]]

    @pytest.mark.parametrize("n_samples", [24, 64])
    def test_block_holds_one_index_row_per_distinct_position(self, monkeypatch, n_samples):
        # the runs of a block share the index rows of the positions they all sample
        cfg = small_spectrum_config(n_runs=5)
        cfg.scenario.n_samples = n_samples
        built, phase_rows = [], harness._phase_rows

        def recorded(positions, L):
            built.append(positions)
            return phase_rows(positions, L)

        monkeypatch.setattr(harness, "_phase_rows", recorded)
        harness._stack(cfg, (0, 5))
        drawn = [signals._spectrum_draw(replace(cfg.scenario, seed=seed))[0] for seed in range(5)]
        assert len(built) == 1
        assert built[0].tolist() == sorted(set(np.concatenate(drawn).tolist()))
        assert len(built[0]) < 5 * n_samples
        if n_samples == cfg.scenario.full_len:
            assert built[0].tolist() == list(range(64))

    def test_default_block_index_is_small(self):
        # the benchmark's block: 8 default runs draw 945 distinct positions of 1000,
        # so its index holds 945 uint16 rows (1.9 MB) where one row a sample and
        # run took 300 * 8 * 1000 * 2 B = 4.8 MB.  Set-up plus the first step peaked at
        # 3.40 MB traced (6.19 MB with the old index).
        cfg = cli._spectrum_experiment(cli.build_parser().parse_args(["spectrum", "--runs", "8"]))

        def first_step(runs):
            truths, updates = harness._stack(cfg, runs)
            return next(updates)

        first_step((8, 16))  # a first draw in the process allocates once
        _, peak = traced_peak(first_step, (0, 8))
        assert peak < 0.75 * 4_800_000

    @pytest.mark.parametrize("full_len,n_tones,n_samples,sparsity", [
        (1000, 10, 300, 20),  # the default runs
        (128, 3, 48, 6),
    ])
    def test_reused_cuts_leave_artifacts_unchanged(
        self, monkeypatch, tmp_path, full_len, n_tones, n_samples, sparsity
    ):
        # runs whose hard slices cut where their last cut kept, against runs
        # whose stepper has no bound on |x|, so that every cut sorts
        sc = SpectrumScenario(full_len=full_len, n_tones=n_tones, n_samples=n_samples)
        algorithms = [
            FilterConfig("lms", n_taps=full_len, mu=1.0, label="complex_lms"),
            FilterConfig("hard_lms", n_taps=full_len, mu=1.0, sparsity=sparsity,
                         label="complex_hard_lms"),
        ]
        cfg = ExperimentConfig(scenario=sc, algorithms=algorithms, n_runs=2, passes=3)
        calls, below_cut = [], filters._below_cut
        monkeypatch.setattr(filters, "_below_cut", lambda *a: calls.append(a) or below_cut(*a))
        unbounded = lambda estimates, cfgs, scale, peak: filters.StackStepper(estimates, cfgs, scale)
        artifacts = []
        for name, stepper in (("bounded", filters.StackStepper), ("unbounded", unbounded)):
            monkeypatch.setattr(harness, "StackStepper", stepper)
            calls.clear()
            report = run_spectrum_experiment(cfg)
            paths = emit_outputs(report, tmp_path / name, experiment=cfg)
            artifacts.append(([path.read_bytes() for path in paths], len(calls)))
        (reused, reused_sorts), (sorted_, sorts) = artifacts
        assert reused == sorted_
        # both passes after the warm-up pass cut every step
        assert sorts == 2 * sc.n_samples and reused_sorts < sorts
        if full_len == 1000:
            assert reused_sorts <= sorts // 100

    def test_identification_at_520_taps_steps_dense(self, monkeypatch):
        # identification has no bound on |x|, so no row length gives its hard slices a _KeptCut
        def sparse_step(*a):
            raise AssertionError("an identification hard slice stepped through a _KeptCut")

        monkeypatch.setattr(filters._KeptCut, "step", sparse_step)
        kw = dict(n_taps=520, mu=0.003, sparsity=28)
        algorithms = [
            FilterConfig("hard_lms", **kw),
            FilterConfig("hard_init_lms", warmup_steps=200, **kw),
            FilterConfig("hard_rel_lms", relaxed_sparsity=56, **kw),
        ]
        cfg = small_ident_config(n_runs=2, algorithms=algorithms, n_taps=520, n_nonzero=28,
                                 signal_len=600)
        esr, _ = _ident_block(cfg, (0, 2))
        assert all(rows.shape == (2, 600) and np.isfinite(rows).all() for rows in esr.values())

    def test_default_block_steps_its_hard_slice_sparsely(self, monkeypatch):
        # the benchmark's block: 8 default runs, of which hard LMS thresholds 9 of 10 passes
        cfg = cli._spectrum_experiment(cli.build_parser().parse_args(["spectrum", "--runs", "8"]))
        steps, sorts = [], []
        sliced, below_cut = filters._KeptCut.step, filters._below_cut
        monkeypatch.setattr(filters._KeptCut, "step", lambda *a: steps.append(1) or sliced(*a))
        monkeypatch.setattr(filters, "_below_cut", lambda *a: sorts.append(1) or below_cut(*a))
        harness._spectrum_block(cfg, (0, 8))
        # a slice step that does not sort is sparse
        assert len(steps) == 9 * cfg.scenario.n_samples == 2700 and len(steps) - len(sorts) >= 2690


class TestSpectrumClosedForms:
    """Plain LMS on default spectrum runs against its closed forms.

    A run's rows are orthonormal and its step size 1/||x||^2 is 1, so one
    pass of LMS from zero lands on the minimum-norm solution ``X^T conj(y)``:
    the truth projected onto the M sampled rows, plus noise.  Later passes
    only add rounding.  Plain LMS therefore keeps about M/L of each tone
    and misses the rest of the truth.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        sc = SpectrumScenario()  # the CLI defaults, with their roster
        cfg = ExperimentConfig(
            scenario=sc,
            algorithms=[
                FilterConfig("lms", n_taps=1000, mu=1.0, label="complex_lms"),
                FilterConfig("hard_lms", n_taps=1000, mu=1.0, sparsity=20,
                             label="complex_hard_lms"),
            ],
            n_runs=3,
        )
        blocks = harness._spectrum_block(cfg, (0, 3))
        streams = [gen_spectrum_stream(replace(sc, seed=seed)) for seed in range(3)]
        return sc, [(stream, est["complex_lms"]) for stream, (_, est) in zip(streams, blocks)]

    def test_rows_are_orthonormal(self, runs):
        # the former np.exp rows were off by up to 6.0e-14; the table rows 8.0e-16
        for stream, _ in runs[1]:
            x = stream.inputs
            assert np.max(np.abs(x @ x.conj().T - np.eye(len(x)))) <= 2e-15

    def test_lms_is_the_minimum_norm_solution(self, runs):
        # measured <= 1.2e-15 (the former rows: 1.1e-13)
        for stream, w in runs[1]:
            want = stream.inputs.T @ np.conj(stream.outputs)
            assert np.linalg.norm(w - want) <= 1e-14 * np.linalg.norm(want)

    def test_lms_keeps_m_over_l_of_each_tone(self, runs):
        # M/L = 0.3; measured 0.295-0.321
        sc = runs[0]
        for stream, w in runs[1]:
            true_support = support(stream.truth)
            ratio = np.mean(np.abs(w[true_support])) / (np.sqrt(sc.full_len) / 2)
            assert 0.25 <= ratio <= 0.35

    def test_lms_esr_is_one_minus_m_over_l(self, runs):
        # 10 log10(1 - M/L) = -1.55 dB; measured -1.44 to -1.62 dB
        sc = runs[0]
        want = 10 * np.log10(1 - sc.n_samples / sc.full_len)
        for stream, w in runs[1]:
            assert abs(esr_db(stream.truth, w) - want) <= 0.25

    def test_hard_lms_keeps_the_back_projections_top_set(self):
        """The per-sample threshold keeps the top-s set of its first cut.

        That cut follows one LMS pass, which lands on the back-projection
        ``X^T conj(y)``, and a single step's increment rarely beats the
        smallest kept magnitude afterwards.  At ``full_len`` 256, 10 tones
        and 64 samples, ``complex_hard_lms``'s final top-20 set equalled the
        back-projection's on 20 of 20 runs (in 0.2 s); at 96 samples, on 18
        of 20.
        """
        sc = SpectrumScenario(full_len=256, n_tones=10, n_samples=64)
        hard = FilterConfig("hard_lms", n_taps=256, mu=1.0, sparsity=20, label="complex_hard_lms")
        cfg = ExperimentConfig(scenario=sc, algorithms=[hard], n_runs=20)
        for seed, (_, est) in enumerate(harness._spectrum_block(cfg, (0, 20))):
            stream = gen_spectrum_stream(replace(sc, seed=seed))
            back_projection = stream.inputs.T @ np.conj(stream.outputs)
            top = support(hard_threshold(est["complex_hard_lms"], 20))
            assert np.array_equal(top, support(hard_threshold(back_projection, 20))), seed

    def test_relaxed_keep_count_finds_what_hard_lms_misses(self):
        """With half the default samples, a relaxed keep-count d = 4s finds more tones.

        ``hard_lms`` keeps the top-s set of its first cut, which at 150 of
        1000 samples misses some tone bins; ``hard_rel_lms`` keeps d = 80
        taps, so bins outside that first set can still grow into its top s.
        At ``full_len`` 1000, 10 tones and 150 samples over 20 runs the mean
        top-s hit rates were 0.985 against 0.8425 (0.33 s, 2-vCPU VM).
        """
        sc = SpectrumScenario(full_len=1000, n_tones=10, n_samples=150)
        algorithms = [
            FilterConfig("hard_lms", n_taps=1000, mu=1.0, sparsity=20),
            FilterConfig("hard_rel_lms", n_taps=1000, mu=1.0, sparsity=20, relaxed_sparsity=80),
        ]
        report = run_spectrum_experiment(ExperimentConfig(sc, algorithms, n_runs=20))
        assert report.sparsity == 20
        assert report.hit_rates["hard_rel_lms"] >= report.hit_rates["hard_lms"] + 0.1


class TestBenchmarkScenarios:
    def test_lms_reaches_minus_20db_on_benchmark(self):
        from sparselms import gen_ident_stream, run_stream
        from sparselms.signals import esr

        stream = gen_ident_stream(IdentScenario(seed=0))
        estimates, _ = run_stream(FilterConfig("lms", n_taps=256, mu=0.005), stream)
        final = esr(stream.truth, estimates[-1])
        assert 10 * np.log10(final) < -20.0

    def test_complex_lms_sanity_limit(self):
        # noise off, every sample kept, many passes: the retrained
        # estimate converges onto the true spectrum
        from sparselms import gen_spectrum_stream, step_size_from_stream
        from sparselms.signals import esr

        sc = SpectrumScenario(full_len=64, n_tones=3, n_samples=64, snr_db=np.inf, seed=0)
        stream = gen_spectrum_stream(sc, passes=30)
        mu = step_size_from_stream(stream)
        cfg = FilterConfig("lms", n_taps=64, mu=mu)
        w = run_stream(cfg, stream)[0][-1]
        assert esr(stream.truth, w) < 1e-20

    def test_warm_started_condition_flips_during_run(self):
        cfg = ExperimentConfig(
            scenario=IdentScenario(),
            n_runs=1,
            base_seed=0,
            snapshot_every=250,
            algorithms=[
                FilterConfig("hard_init_lms", n_taps=256, mu=0.005, sparsity=28, warmup_steps=512)
            ],
        )
        records = ident_diagnostics(cfg)["hard_init_lms"]
        flags = [r["theorem1_holds"] for r in records]
        assert flags[0] is False
        assert flags[-1] is True

    def test_hard_init_plateaus_one_tap_short_then_leaves(self):
        """Run 0 at the CLI defaults: ``hard_init_lms`` holds 27 of 28 taps, then finds the last.

        With one unit tap of 28 missing, the ESR sits near 1/s, -10 log10(28)
        = -14.47 dB.  Its snapshots at 750, 1000 and 1250 read -13.68,
        -14.13 and -14.31 dB at a hit rate of 27/28, and the one at 1500
        reads 1.0 (-16.91 dB).
        """
        args = cli.build_parser().parse_args(["ident", "--runs", "1"])
        diagnostics = ident_diagnostics(cli._ident_experiment(args))
        records = {r["iteration"]: r for r in diagnostics["hard_init_lms"]}
        for iteration in (750, 1000, 1250):
            assert records[iteration]["support_hit_rate"] == 27 / 28, iteration
            assert abs(records[iteration]["esr_db"] + 10 * np.log10(28)) <= 1.0, iteration
        assert records[1500]["support_hit_rate"] == 1.0


class TestDiagnoseRun:
    def test_perfect_snapshot(self):
        w = np.zeros(8)
        w[[1, 5]] = 1.0
        records = diagnose_run(w, [(10, w.copy())])
        rec = records[0]
        assert rec["esr"] == 0.0
        assert rec["esr_db"] is not None and np.isneginf(rec["esr_db"])
        assert rec["theorem1_holds"] is True
        # the exactly sparse perfect estimate fails the superset
        # condition's density hypothesis (||w_hat||_0 >= d)
        assert rec["theorem2_holds"] is False
        assert rec["support_hit_rate"] == 1.0

    def test_near_perfect_dense_snapshot_satisfies_both(self):
        w = np.zeros(8)
        w[[1, 5]] = 1.0
        est = w + 1e-3 * np.arange(1, 9)
        rec = diagnose_run(w, [(10, est)])[0]
        assert rec["theorem1_holds"] is True
        assert rec["theorem2_holds"] is True
        assert rec["support_hit_rate"] == 1.0

    def test_zero_snapshot(self):
        w = np.zeros(8)
        w[[1, 5]] = 1.0
        rec = diagnose_run(w, [(1, np.zeros(8))])[0]
        assert rec["esr"] == 1.0
        assert rec["ser"] == 1.0
        assert rec["theorem1_holds"] is False
        assert rec["theorem2_holds"] is False

    def test_no_valid_relaxation(self):
        w = np.array([1.0, 2.0, 0.0])
        # s = 2, N = 3: no d with s < d < N
        rec = diagnose_run(w, [(1, w.copy())])[0]
        assert rec["theorem2_holds"] is None

    def test_ident_diagnostics_pipeline(self):
        cfg = small_ident_config(n_runs=1)
        cfg.snapshot_every = 50
        diags = ident_diagnostics(cfg)
        assert set(diags) == {"lms", "hard_init_lms"}
        assert [r["iteration"] for r in diags["lms"]] == [50, 100, 150]
        last = diags["hard_init_lms"][-1]
        assert last["support_hit_rate"] == 1.0


@st.composite
def snapshot_stacks(draw):
    """A sparse truth, a relaxed keep-count and a stack of snapshots.

    Each snapshot is drawn from one of: the zero vector, the truth
    itself, the truth plus noise on its support only (so it has fewer
    than d nonzeros), a noisy estimate whose error straddles both theorem
    bounds, and a noisy estimate with an exact magnitude tie at the top-s
    cut.
    """
    n = draw(st.integers(2, 300))
    s = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.zeros(n)
    pos = rng.choice(n, s, replace=False)
    w[pos] = rng.choice([-1.0, 1.0], s) * (0.5 + 1.5 * rng.random(s))
    q = np.min(np.abs(w[pos]))
    kinds = draw(
        st.lists(st.sampled_from(["zero", "truth", "sparse", "noisy", "tie"]), min_size=1, max_size=12)
    )
    rows = []
    for kind in kinds:
        noise = rng.standard_normal(n)
        noise *= q * rng.uniform(0.0, 1.5) / np.linalg.norm(noise)
        if kind == "zero":
            row = np.zeros(n)
        elif kind == "truth":
            row = w.copy()
        elif kind == "sparse":
            row = w + np.where(w != 0, noise, 0.0)
        else:
            row = w + noise
        if kind == "tie" and s < n:
            order = np.argsort(-np.abs(row), kind="stable")
            row[order[s]] = -np.copysign(abs(row[order[s - 1]]), row[order[s]])
        rows.append(row)
    iterations = sorted(draw(st.lists(st.integers(1, 10**6), min_size=len(rows), max_size=len(rows))))
    relaxed = draw(st.none() | st.integers(1, n))
    return w, list(zip(iterations, rows)), relaxed


class TestRowWiseDiagnostics:
    """diagnose_run's stacked records against the one-snapshot certificates."""

    @settings(max_examples=200, deadline=None)
    @given(snapshot_stacks())
    def test_records_equal_scalar_path(self, case):
        w, snapshots, relaxed = case
        sup = support(w)
        s, n = sup.size, w.size
        q = float(np.min(np.abs(w[sup])))
        d = relaxed if relaxed is not None else min(2 * s, n - 1)
        records = diagnose_run(w, snapshots, relaxed_sparsity=relaxed)
        assert len(records) == len(snapshots)
        for (iteration, est), rec in zip(snapshots, records):
            ratio = esr(w, est)
            err_sq = float(np.sum((w - est) ** 2))
            exact = err_sq < 0.5 * q * q
            assert theorem1_condition(w, est).condition_holds is exact
            superset = None
            if s < d < n:
                superset = bool(
                    err_sq <= q * q * (1 - 1 / (d - s + 2)) and np.count_nonzero(est) >= d
                )
                assert theorem2_condition(w, est, d).condition_holds is superset
            ref = {
                "iteration": iteration,
                "esr": ratio,
                "esr_db": float("-inf") if ratio == 0.0 else 10.0 * float(np.log10(ratio)),
                "ser": float("inf") if ratio == 0.0 else 1.0 / ratio,
                "ser_db": float("inf") if ratio == 0.0 else -10.0 * float(np.log10(ratio)),
                "theorem1_holds": exact,
                "theorem2_holds": superset,
                "support_hit_rate": float(np.isin(sup, support(hard_threshold(est, s))).sum()) / s,
            }
            assert rec == ref
            # plain Python values, so the JSON is the scalar path's too
            assert [type(v) for v in rec.values()] == [type(v) for v in ref.values()]
            assert json.dumps(rec) == json.dumps(ref)

    def test_no_snapshots(self):
        assert diagnose_run(np.array([1.0, 0.0, 0.0]), []) == []

    def test_complex_estimates(self):
        # a quarter turn of every entry leaves each magnitude, so the record too
        rec = diagnose_run([1j, 0, 0, 0], [(1, [0.9j, 0, 0, 0.05j])])
        assert rec == diagnose_run([1.0, 0, 0, 0], [(1, [0.9, 0, 0, 0.05])])
        assert rec[0]["theorem1_holds"] is True

    @settings(max_examples=100, deadline=None)
    @given(snapshot_stacks(), st.integers(0, 2**32 - 1))
    def test_complex_records_equal_single_snapshot_checks(self, case, seed):
        w, snapshots, relaxed = case
        rng = np.random.default_rng(seed)
        # turn the truth and each error by random phases; every magnitude stays
        w_c = w * np.exp(2j * np.pi * rng.random(w.size))
        snapshots = [
            (it, w_c + (est - w) * np.exp(2j * np.pi * rng.random(w.size))) for it, est in snapshots
        ]
        sup = support(w_c)
        s, n = sup.size, w.size
        d = relaxed if relaxed is not None else min(2 * s, n - 1)
        records = diagnose_run(w_c, snapshots, relaxed_sparsity=relaxed)
        assert len(records) == len(snapshots)
        for (iteration, est), rec in zip(snapshots, records):
            ratio = esr(w_c, est)
            assert rec == {
                "iteration": iteration,
                "esr": ratio,
                "esr_db": float("-inf") if ratio == 0.0 else 10.0 * float(np.log10(ratio)),
                "ser": float("inf") if ratio == 0.0 else 1.0 / ratio,
                "ser_db": float("inf") if ratio == 0.0 else -10.0 * float(np.log10(ratio)),
                "theorem1_holds": theorem1_condition(w_c, est).condition_holds,
                "theorem2_holds": (
                    theorem2_condition(w_c, est, d).condition_holds if s < d < n else None
                ),
                "support_hit_rate": (
                    float(np.isin(sup, support(hard_threshold(est, s))).sum()) / s
                ),
            }

    @staticmethod
    def _trajectory(n_rows):
        """A 64-tap truth and dense estimates whose errors sweep across both theorem bounds."""
        rng = np.random.default_rng(3)
        w = np.zeros(64)
        w[rng.choice(64, 6, replace=False)] = rng.choice([-1.0, 1.0], 6)
        noise = rng.standard_normal((n_rows, 64))
        noise *= np.linspace(0.0, 1.5, n_rows)[:, None] / np.linalg.norm(noise, axis=1, keepdims=True)
        return w, w + noise

    def test_tall_stack_equals_single_snapshots(self):
        # more rows than VERIFY_ROWS, so every threshold runs in slices
        w, stack = self._trajectory(3 * recovery.VERIFY_ROWS + 5)
        snapshots = list(enumerate(stack, 1))
        records = diagnose_run(w, snapshots)
        assert records == [diagnose_run(w, [pair])[0] for pair in snapshots]
        for key in ("theorem1_holds", "theorem2_holds"):
            assert {r[key] for r in records} == {True, False}, key

    def test_top_mask_in_slices(self):
        _, stack = self._trajectory(3 * recovery.VERIFY_ROWS + 5)
        rows = np.random.default_rng(1).random(len(stack)) < 0.7
        want = hard_threshold(stack[rows], 6) != 0
        assert np.array_equal(recovery._top_mask(stack, rows, 6), want)

    def test_diagnosis_holds_one_stack_sized_temporary(self):
        # 256 snapshots of 256 taps, as run 0's chunks at --snapshot-every 1;
        # stacking the snapshots and thresholding whole stacks peaked at ~4.4x
        w, stack = self._trajectory(256)
        w, stack = np.tile(w, 4), np.tile(stack, 4)
        records, peak = traced_peak(harness._diagnose_stack, w, range(1, 257), stack, None)
        assert len(records) == 256
        assert peak < 1.5 * stack.nbytes

    @staticmethod
    def _zeros(v, s):
        return np.zeros_like(np.asarray(v, dtype=float))

    @staticmethod
    def _drops_largest(v, s):
        out = hard_threshold(v, s)
        rows = out.reshape(-1, out.shape[-1])
        rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)] = 0
        return out

    @pytest.mark.parametrize("broken", ["_zeros", "_drops_largest"])
    def test_broken_threshold_trips_every_certificate(self, monkeypatch, broken):
        w = np.zeros(8)
        w[[1, 5]] = 1.0
        est = w + 1e-3 * np.arange(1, 9)
        assert theorem1_condition(w, est).condition_holds
        assert theorem2_condition(w, est, 4).condition_holds
        monkeypatch.setattr(recovery, "hard_threshold", getattr(self, broken))
        with pytest.raises(RuntimeError, match="exact-support"):
            theorem1_condition(w, est)
        with pytest.raises(RuntimeError, match="superset-support"):
            theorem2_condition(w, est, 4)
        with pytest.raises(RuntimeError, match="exact-support"):
            diagnose_run(w, [(1, np.zeros(8)), (2, est)])
        with pytest.raises(RuntimeError, match="superset-support"):
            recovery.certify_rows(w, np.stack([np.zeros(8), est]), 4)


class TestEmitOutputs:
    def test_curves_csv_shape_and_roundtrip(self, tmp_path):
        cfg = small_ident_config()
        curves = run_ident_experiment(cfg)
        paths = emit_outputs(curves, tmp_path, experiment=cfg)
        csv_path = tmp_path / "curves.csv"
        assert csv_path in paths
        text = csv_path.read_text().strip().split("\n")
        assert text[0] == "iteration,lms,hard_init_lms"
        assert len(text) == 151
        labels, iterations, columns = read_curves_csv(csv_path)
        assert labels == ["lms", "hard_init_lms"]
        assert iterations[0] == 1 and iterations[-1] == 150
        for label in labels:
            assert np.array_equal(columns[label], curves[label].esr_db)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("\n\n", 1),
            ("iteration,lms,hard_lms\n1,-1.0,-2.0\n2,-3.0\n", 3),
            ("iteration,lms\n1,-1.0,-2.0\n", 2),
        ],
    )
    def test_malformed_curves_name_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "curves.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line {line}: ")):
            read_curves_csv(path)

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("iteration,lms\n1,-1.0\n2,abc\n", 3, "lms"),
            ("iteration,lms,hard_lms\n1,-1.0,x\n", 2, "hard_lms"),
            ("iteration,lms\n1.5,-1.0\n", 2, "iteration"),
        ],
    )
    def test_malformed_cell_names_path_line_and_column(self, tmp_path, text, line, column):
        path = tmp_path / "curves.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line {line}: column {column}: ")):
            read_curves_csv(path)

    def test_empty_algorithm_list(self, tmp_path):
        emit_outputs({}, tmp_path)
        assert (tmp_path / "curves.csv").read_text() == "iteration\n"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_ident_config()
        d1, d2 = tmp_path / "one", tmp_path / "two"
        emit_outputs(run_ident_experiment(cfg), d1, experiment=cfg,
                     diagnostics=ident_diagnostics(cfg))
        emit_outputs(run_ident_experiment(cfg), d2, experiment=cfg,
                     diagnostics=ident_diagnostics(cfg))
        for name in ("curves.csv", "summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_summary_schema(self, tmp_path):
        cfg = small_ident_config()
        curves = run_ident_experiment(cfg)
        emit_outputs(curves, tmp_path, experiment=cfg, diagnostics=ident_diagnostics(cfg))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["kind"] == "ident"
        assert summary["experiment"]["scenario"]["n_taps"] == 16
        assert "lms" in summary["final_esr"]
        assert "diagnostics" in summary

    def test_nonfinite_becomes_null(self, tmp_path):
        w = np.zeros(4)
        w[0] = 1.0
        diags = {"probe": diagnose_run(w, [(1, w.copy())])}
        curve = LearningCurve("probe", np.array([0.25, 0.0]), 1)
        emit_outputs({"probe": curve}, tmp_path, diagnostics=diags)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["diagnostics"]["probe"][0]["esr_db"] is None
        assert summary["diagnostics"]["probe"][0]["ser"] is None
        assert summary["final_esr"]["probe"]["db"] is None
        # the CSV keeps an explicit -inf, which round-trips through float()
        _, _, columns = read_curves_csv(tmp_path / "curves.csv")
        assert np.isneginf(columns["probe"][1])

    def test_summary_experiment_block(self, tmp_path):
        rel = FilterConfig(
            "hard_rel_lms", n_taps=16, mu=0.02, rho=1e-4, epsilon=5.0, sparsity=3,
            relaxed_sparsity=6, warmup_steps=50, label="rel",
        )
        cfg = small_ident_config(n_runs=1, algorithms=[rel])
        cfg.snapshot_every = 50
        emit_outputs(run_ident_experiment(cfg), tmp_path / "ident", experiment=cfg)
        summary = json.loads((tmp_path / "ident" / "summary.json").read_text())
        assert summary["experiment"] == {
            "scenario": {
                "n_taps": 16, "n_nonzero": 3, "tap_value": 1.0, "signal_len": 150,
                "snr_db": 30.0, "seed": 0, "random_signs": False,
            },
            "algorithms": [{
                "algorithm": "hard_rel_lms", "n_taps": 16, "mu": 0.02, "rho": 1e-4,
                "epsilon": 5.0, "sparsity": 3, "relaxed_sparsity": 6,
                "warmup_steps": 50, "label": "rel",
            }],
            "n_runs": 1, "base_seed": 0, "snapshot_every": 50, "passes": 1,
        }

        cfg = small_spectrum_config(n_runs=1)
        cfg.scenario = replace(cfg.scenario, snr_db=np.inf)
        emit_outputs(run_spectrum_experiment(cfg), tmp_path / "spec", experiment=cfg)
        summary = json.loads((tmp_path / "spec" / "summary.json").read_text())
        defaults = dict(n_taps=64, mu=1.0, rho=0.0, epsilon=10.0, relaxed_sparsity=None,
                        warmup_steps=0)
        assert summary["experiment"] == {
            "scenario": {
                "full_len": 64, "n_tones": 2, "n_samples": 24, "snr_db": None, "seed": 0,
            },
            "algorithms": [
                dict(algorithm="lms", sparsity=None, label="complex_lms", **defaults),
                dict(algorithm="hard_lms", sparsity=4, label="complex_hard_lms", **defaults),
            ],
            "n_runs": 1, "base_seed": 0, "snapshot_every": None, "passes": 6,
        }

    def test_spectrum_csv(self, tmp_path):
        cfg = small_spectrum_config()
        report = run_spectrum_experiment(cfg)
        emit_outputs(report, tmp_path, experiment=cfg)
        lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        assert lines[0] == "bin,true_mag,complex_lms,complex_hard_lms"
        assert len(lines) == 65
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["kind"] == "spectrum"
        assert "complex_hard_lms" in summary["hit_rates"]

    def test_unwritable_directory_raises_oserror(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError, match="output"):
            emit_outputs({}, blocker / "sub")
