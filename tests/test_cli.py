import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparselms
from sparselms import cli
from sparselms.cli import _option_types, build_parser, main
from sparselms.signals import check_count


def run_cli(args):
    return main(args)


class TestIdentCommand:
    def test_small_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli([
            "ident", "--taps", "16", "--nonzero", "3", "--signal-len", "100",
            "--sparsity", "3", "--relaxed-sparsity", "6", "--warmup", "30",
            "--mu", "0.02", "--runs", "2", "--seed", "1",
            "--snapshot-every", "50", "--out", str(out),
        ])
        assert code == 0
        assert (out / "curves.csv").exists()
        assert (out / "summary.json").exists()
        captured = capsys.readouterr().out
        assert "final ESR" in captured
        assert "wrote" in captured
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"]["n_runs"] == 2
        assert len(summary["experiment"]["algorithms"]) == 7

    def test_algorithm_subset(self, tmp_path):
        out = tmp_path / "res"
        code = run_cli([
            "ident", "--taps", "8", "--nonzero", "2", "--signal-len", "50",
            "--sparsity", "2", "--mu", "0.05", "--runs", "1",
            "--algorithms", "lms,za_lms", "--out", str(out),
        ])
        assert code == 0
        header = (out / "curves.csv").read_text().split("\n")[0]
        assert header == "iteration,lms,za_lms"

    def test_unknown_algorithm_fails(self, tmp_path, capsys):
        code = run_cli([
            "ident", "--algorithms", "lms,nlms", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "nlms" in capsys.readouterr().err

    def test_invalid_field_reports_name(self, tmp_path, capsys):
        code = run_cli([
            "ident", "--taps", "8", "--nonzero", "2", "--signal-len", "50",
            "--sparsity", "9", "--runs", "1", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "sparsity" in capsys.readouterr().err


    def test_non_finite_parameter_rejected(self, tmp_path, capsys):
        code = run_cli(["ident", "--mu", "nan", "--runs", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_unusable_tap_value_fails_before_any_draw(self, tmp_path, capsys, value):
        code = run_cli(["ident", "--tap-value", value, "--runs", "1", "--out", str(tmp_path)])
        assert code == 1
        # the one line names the field: no RuntimeWarning from a draw, no divergence report
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("error: tap_value must be finite and nonzero")
        assert not (tmp_path / "curves.csv").exists()

    def test_diverging_filter_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli(["ident", "--runs", "1", "--mu", "0.5", "--algorithms", "lms",
                        "--out", str(out)])
        assert code == 1
        # the step-size warning comes first, then the error and nothing else
        warning, err = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: mu 0.5")
        assert err.startswith("error:")
        assert "lms" in err and "diverged" in err and "iteration" in err
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize(
        "algorithms,mu,warned",
        [
            pytest.param("lms,hard_lms", None, {}, id="None-False"),
            pytest.param("lms,hard_lms", "0.0077", {}, id="0.0077-False"),
            pytest.param("lms,hard_lms", "0.0078", {"lms": (256, "0.007752")}, id="0.0078-True"),
            pytest.param("lms,hard_lms", "0.01", {"lms": (256, "0.007752")}, id="0.01-True"),
            # a hard variant thresholding from the first update adapts only its keep-count
            pytest.param("hard_rel_lms", "0.01", {}, id="hard_rel_lms-0.01"),
            pytest.param("hard_init_lms,hard_rel_lms", "0.04",
                         {"hard_init_lms": (256, "0.007752"), "hard_rel_lms": (56, "0.03448")},
                         id="hard_init_lms,hard_rel_lms-0.04"),
            pytest.param("lms,hard_lms", "0.07",
                         {"lms": (256, "0.007752"), "hard_lms": (28, "0.06667")},
                         id="lms,hard_lms-0.07"),
        ],
    )
    def test_step_size_warning(self, tmp_path, capsys, algorithms, mu, warned):
        # the white-input mean-square bound 2/(K+2) is 0.0077519 at the default 256 taps;
        # hard_lms keeps s = 28 taps and hard_rel_lms d = 56, while hard_init_lms warms up on all
        argv = ["ident", "--runs", "1", "--signal-len", "60", "--algorithms", algorithms]
        argv += [] if mu is None else ["--mu", mu]
        code = run_cli([*argv, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.err.splitlines()
        assert len(lines) == len(warned)
        for line, (label, (keep, bound)) in zip(lines, warned.items()):
            assert line.startswith(f"warning: mu {mu} exceeds")
            assert f"2/(K+2) = {bound} of {label} (K = {keep});" in line
        first = algorithms.split(",")[0]
        assert captured.out.splitlines()[0].startswith(f"{first}: final ESR")
        assert (tmp_path / "summary.json").exists()

    def test_each_variant_records_only_its_own_parameters(self, tmp_path):
        # every tuning flag away from its default, all seven variants
        out = tmp_path / "res"
        code = run_cli([
            "ident", "--taps", "16", "--nonzero", "3", "--signal-len", "60", "--mu", "0.02",
            "--rho", "1e-4", "--epsilon", "5", "--sparsity", "3", "--relaxed-sparsity", "6",
            "--warmup", "7", "--runs", "1", "--out", str(out),
        ])
        assert code == 0
        algorithms = json.loads((out / "summary.json").read_text())["experiment"]["algorithms"]
        defaults = dict(n_taps=16, mu=0.02, rho=0.0, epsilon=10.0, sparsity=None,
                        relaxed_sparsity=None, warmup_steps=0)
        own = {
            "lms": {},
            "za_lms": dict(rho=1e-4),
            "rza_lms": dict(rho=1e-4, epsilon=5.0),
            "sza_lms": dict(rho=1e-4, sparsity=3),
            "hard_lms": dict(sparsity=3),
            "hard_init_lms": dict(sparsity=3, warmup_steps=7),
            "hard_rel_lms": dict(sparsity=3, relaxed_sparsity=6),
        }
        assert algorithms == [
            {**defaults, **params, "algorithm": name, "label": name} for name, params in own.items()
        ]

    def test_snapshot_cadence_beyond_signal_rejected(self, tmp_path, capsys):
        code = run_cli(["ident", "--signal-len", "100", "--snapshot-every", "500",
                        "--runs", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "snapshot_every" in capsys.readouterr().err

    def test_default_snapshot_cadence_capped_at_signal(self, tmp_path):
        out = tmp_path / "res"
        code = run_cli([
            "ident", "--taps", "8", "--nonzero", "2", "--signal-len", "60",
            "--sparsity", "2", "--relaxed-sparsity", "4", "--warmup", "20",
            "--runs", "1", "--algorithms", "lms", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"]["snapshot_every"] == 60
        assert summary["experiment"]["passes"] == 1  # identification steps its samples once
        assert [r["iteration"] for r in summary["diagnostics"]["lms"]] == [60]


class TestRunSettings:
    @pytest.mark.parametrize(
        "argv,field",
        [
            (["ident", "--algorithms", ","], "algorithms"),
            (["ident", "--algorithms", ""], "algorithms"),
            (["ident", "--workers", "0"], "workers"),
            (["ident", "--workers", "-3"], "workers"),
            (["spectrum", "--workers", "-2"], "workers"),
            (["ident", "--seed", "-1"], "seed"),
            (["spectrum", "--seed", "-1"], "seed"),
        ],
    )
    def test_bad_run_setting_names_field(self, tmp_path, capsys, argv, field):
        out = tmp_path / "res"
        code = run_cli([*argv, "--runs", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()


# (command, option, out-of-range value, the field its error names), one case per integer
# option of each subcommand and both sides of every two-sided bound
OUT_OF_RANGE = [
    ("ident", "--taps", "-5", "n_taps"),
    ("ident", "--nonzero", "0", "n_nonzero"),
    ("ident", "--nonzero", "257", "n_nonzero"),
    ("ident", "--signal-len", "0", "signal_len"),
    ("ident", "--sparsity", "0", "sparsity"),
    ("ident", "--sparsity", "256", "sparsity"),
    ("ident", "--relaxed-sparsity", "27", "relaxed_sparsity"),
    ("ident", "--relaxed-sparsity", "256", "relaxed_sparsity"),
    ("ident", "--warmup", "-1", "warmup_steps"),
    ("ident", "--snapshot-every", "0", "snapshot_every"),
    ("ident", "--snapshot-every", "2001", "snapshot_every"),
    ("ident", "--runs", "0", "n_runs"),
    ("ident", "--seed", "-1", "seed"),
    ("ident", "--workers", "0", "max_workers"),
    ("spectrum", "--full-len", "0", "full_len"),
    ("spectrum", "--tones", "0", "n_tones"),
    ("spectrum", "--tones", "500", "n_tones"),
    ("spectrum", "--samples", "0", "n_samples"),
    ("spectrum", "--samples", "1001", "n_samples"),
    ("spectrum", "--passes", "0", "passes"),
    ("spectrum", "--sparsity", "0", "sparsity"),
    ("spectrum", "--sparsity", "1000", "sparsity"),
    ("spectrum", "--runs", "0", "n_runs"),
    ("spectrum", "--seed", "-1", "seed"),
    ("spectrum", "--workers", "0", "max_workers"),
]


def assert_one_error_line(tmp_path, capsys, argv, field, value):
    """``argv`` exits 1 with one stderr line naming ``field`` and ``value``, and writes nothing."""
    out = tmp_path / "res"
    assert run_cli([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {field} must ") and line.endswith(f", got {value}")
    assert not out.exists()


@pytest.mark.parametrize("command,option,value,field", OUT_OF_RANGE)
def test_out_of_range_integer_names_its_own_field(tmp_path, capsys, command, option, value, field):
    assert_one_error_line(tmp_path, capsys, [command, option, value], field, value)


@pytest.mark.parametrize(
    "option,value,field", [row[1:] for row in OUT_OF_RANGE if row[0] == "ident"]
)
def test_out_of_range_integer_fails_before_any_step_size_warning(
    tmp_path, capsys, option, value, field
):
    # --mu 0.01 is above the 256-tap stability bound, so a run that started would warn first
    argv = ["ident", "--mu", "0.01", option, value]
    assert_one_error_line(tmp_path, capsys, argv, field, value)


def test_every_integer_option_swept():
    swept = {(command, option) for command, option, _, _ in OUT_OF_RANGE}
    for command in ("ident", "spectrum"):
        for dest, convert in _option_types(build_parser(), command).items():
            if convert is int:
                assert (command, "--" + dest.replace("_", "-")) in swept


WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def worker_count_table():
    """The ``(name, counts, argv)`` rows of the workflow's worker-count step, read as text.

    The rows are the lines of the step's first here-document that are
    neither blank nor ``#`` comments.
    """
    lines = iter(WORKFLOW.read_text().splitlines())
    for line in lines:
        if line.strip() == "- name: CLI artifacts independent of the worker count":
            break
    for line in lines:
        if line.strip().endswith("<<'EOF'"):
            break
    rows = []
    for line in map(str.strip, lines):
        if line == "EOF":
            return rows
        if line and not line.startswith("#"):
            name, counts, *argv = line.split()
            rows.append((name, counts, argv))
    raise AssertionError(f"{WORKFLOW}: the worker-count table has no closing EOF")


def test_workflow_worker_count_table_builds():
    rows = worker_count_table()
    assert len(rows) >= 9
    names = [name for name, _, _ in rows]
    assert len(set(names)) == len(names)
    for name, counts, argv in rows:
        # each count is one --workers value compared against the one-worker run
        for count in counts.split(","):
            check_count("max_workers", int(count), 2)
        args = build_parser().parse_args(argv)
        # the loop supplies --workers and --out
        assert (args.workers, args.out) == (1, "results"), name
        experiment = cli._ident_experiment if args.command == "ident" else cli._spectrum_experiment
        experiment(args)


class TestSpectrumCommand:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli([
            "spectrum", "--full-len", "64", "--tones", "2", "--samples", "24",
            "--sparsity", "4", "--passes", "5", "--runs", "1", "--out", str(out),
        ])
        assert code == 0
        assert (out / "spectrum.csv").exists()
        assert "hit rate" in capsys.readouterr().out

    def test_snapshot_every_is_ident_only(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"snapshot_every": 10}))
        code = run_cli(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path / "res")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown option 'snapshot_every'" in err
        assert not (tmp_path / "res").exists()

    def test_summary_scenario_and_cadence(self, tmp_path):
        out = tmp_path / "res"
        code = run_cli([
            "spectrum", "--full-len", "64", "--tones", "2", "--samples", "24",
            "--sparsity", "4", "--passes", "2", "--runs", "1", "--out", str(out),
        ])
        assert code == 0
        experiment = json.loads((out / "summary.json").read_text())["experiment"]
        # spectrum records no diagnostics, so it has no cadence
        assert experiment["snapshot_every"] is None
        assert experiment["passes"] == 2
        assert sorted(experiment["scenario"]) == [
            "full_len", "n_samples", "n_tones", "seed", "snr_db",
        ]

    def test_default_parameters_recorded(self, tmp_path):
        out = tmp_path / "res"
        code = run_cli([
            "spectrum", "--full-len", "64", "--tones", "2", "--samples", "24",
            "--sparsity", "4", "--runs", "1", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"]["passes"] == 10
        labels = [a["label"] for a in summary["experiment"]["algorithms"]]
        assert labels == ["complex_lms", "complex_hard_lms"]


SMALL_RUNS = {
    "ident": ["--taps", "16", "--nonzero", "3", "--signal-len", "60", "--sparsity", "3",
              "--relaxed-sparsity", "6", "--warmup", "7", "--mu", "0.02"],
    "spectrum": ["--full-len", "64", "--tones", "2", "--samples", "24", "--sparsity", "4",
                 "--passes", "1"],
}


@pytest.mark.parametrize("snr_db", ["nan", "-inf", "-3100", "-4000"])
@pytest.mark.parametrize("command", ["ident", "spectrum"])
def test_unusable_snr_fails_cleanly(tmp_path, command, snr_db):
    # a child process, so that warnings and tracebacks reach its stderr
    out = tmp_path / "res"
    argv = [command, *SMALL_RUNS[command], "--runs", "1", f"--snr-db={snr_db}", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(sparselms.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "sparselms.cli", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "snr_db" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_diverging_run_prints_no_numpy_warning(tmp_path, workers):
    # a child process, so that NumPy's overflow warnings would reach its stderr; two runs,
    # so that two workers step them in a pool where there are two CPUs
    out = tmp_path / "res"
    argv = ["ident", "--runs", "2", "--mu", "0.5", "--signal-len", "400", "--algorithms", "lms",
            "--workers", workers, "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(sparselms.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "sparselms.cli", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 1
    warning, error = done.stderr.splitlines()
    assert warning.startswith("warning: mu 0.5 exceeds the mean-square stability bound")
    assert "2/(K+2) = 0.007752 of lms (K = 256);" in warning
    assert error.startswith("error: algorithms[lms]: run 0 diverged, its ESR is non-finite")
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "tap_value,runs", [("1e200", False), ("1e155", False), ("1e-170", False),
                       ("1e150", True), ("1e-150", True)],
)
def test_tap_value_energy_checked_before_any_draw(tmp_path, tap_value, runs):
    # the truth's energy 28 * tap_value**2 must be a normal float: 1e155 overflows it,
    # 1e-170 underflows it to zero
    out = tmp_path / "res"
    extra = SMALL_RUNS["ident"] if runs else []
    argv = ["ident", *extra, "--runs", "1", "--tap-value", tap_value, "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(sparselms.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "sparselms.cli", *argv], env=env, capture_output=True, text=True
    )
    if runs:
        assert done.returncode == 0 and done.stderr == ""
        assert (out / "curves.csv").exists()
        return
    assert done.returncode == 1
    (err,) = done.stderr.splitlines()
    assert err.startswith("error: tap_value must be finite and nonzero")
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"signal_len": 60, "runs": 2}))
        out = tmp_path / "res"
        code = run_cli([
            "ident", "--taps", "8", "--nonzero", "2", "--sparsity", "2",
            "--relaxed-sparsity", "4", "--warmup", "20",
            "--signal-len", "999", "--runs", "1",
            "--config", str(cfg_file), "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"]["scenario"]["signal_len"] == 60
        assert summary["experiment"]["n_runs"] == 2

    def test_dashed_keys_accepted(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"signal-len": 40}))
        out = tmp_path / "res"
        code = run_cli([
            "ident", "--taps", "8", "--nonzero", "2", "--sparsity", "2",
            "--relaxed-sparsity", "4", "--warmup", "20",
            "--runs", "1", "--config", str(cfg_file), "--out", str(out),
        ])
        assert code == 0
        lines = (out / "curves.csv").read_text().strip().split("\n")
        assert len(lines) == 41

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        code = run_cli(["ident", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_values_converted_like_flags(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"runs": "2", "mu": "0.05", "signal_len": 40}))
        out = tmp_path / "res"
        code = run_cli([
            "ident", "--taps", "8", "--nonzero", "2", "--sparsity", "2",
            "--relaxed-sparsity", "4", "--warmup", "20",
            "--config", str(cfg_file), "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"]["n_runs"] == 2
        assert summary["experiment"]["algorithms"][0]["mu"] == 0.05

    @pytest.mark.parametrize(
        "overrides,field",
        [({"runs": "two"}, "runs"), ({"runs": 2.5}, "runs"), ({"runs": True}, "runs"),
         ({"mu": [0.1]}, "mu"), ({"seed": None}, "seed")],
    )
    def test_bad_value_names_field(self, tmp_path, capsys, overrides, field):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(overrides))
        code = run_cli(["ident", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {field}:")

    def test_malformed_json_fails_cleanly(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("{not json")
        code = run_cli(["ident", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "name,content,reason",
        [
            ("nofile.json", None, "No such file or directory"),
            ("adir", "dir", "Is a directory"),
            ("bad.json", b"{not json", "Expecting property name"),
            ("latin.json", b'{"runs": "\xff"}', "can't decode byte 0xff"),
        ],
        ids=["missing", "directory", "invalid-json", "not-utf8"],
    )
    def test_unreadable_file_names_the_option(self, tmp_path, capsys, name, content, reason):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        code = run_cli(["spectrum", "--config", str(path), "--out", str(tmp_path / "res")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {path}: ") and reason in err
        assert not (tmp_path / "res").exists()


class TestDeterminism:
    def test_cli_reruns_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli([
                "ident", "--taps", "8", "--nonzero", "2", "--signal-len", "60",
                "--sparsity", "2", "--relaxed-sparsity", "4", "--warmup", "20",
                "--runs", "2", "--workers", "2", "--out", str(out),
            ])
            assert code == 0
            outs.append(out)
        for name in ("curves.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_import_starts_no_process_pool_machinery():
    # a one-worker run never starts a pool, so importing the CLI must not load one
    code = (
        "import sys, sparselms.cli; "
        "print([m for m in ('concurrent.futures', 'concurrent.futures.process', "
        "'multiprocessing') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sparselms.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestProcessEntry:
    @pytest.mark.parametrize("status", [0, 1])
    def test_run_freezes_then_returns_main_status(self, monkeypatch, status):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or status)
        assert cli.run() == status
        assert calls == ["freeze", "main"]

    def test_main_in_process_does_not_freeze(self, tmp_path, capsys):
        before = gc.get_freeze_count()
        argv = ["ident", *SMALL_RUNS["ident"], "--runs", "1", "--out", str(tmp_path / "res")]
        assert main(argv) == 0
        assert gc.get_freeze_count() == before

    def test_only_the_process_entry_freezes(self):
        # the import heap (~22,000 objects, mostly NumPy's) is frozen by run(), not by the import
        code = (
            "import gc, sparselms.cli as c; print(gc.get_freeze_count()); "
            "c.main = lambda: print(gc.get_freeze_count()) or 0; raise SystemExit(c.run())"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sparselms.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        imported, entered = map(int, done.stdout.split())
        assert imported == 0
        assert entered > 10_000

    @pytest.mark.parametrize(
        "argv",
        [["ident", *SMALL_RUNS["ident"], "--runs", "2", "--snapshot-every", "1"],
         ["spectrum", *SMALL_RUNS["spectrum"], "--runs", "2"]],
        ids=["ident", "spectrum"],
    )
    def test_module_entry_matches_main_in_process(self, tmp_path, monkeypatch, capsys, argv):
        # the same relative --out in two directories, so the "wrote" lines match too
        child, here = tmp_path / "child", tmp_path / "here"
        child.mkdir()
        here.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(sparselms.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "sparselms.cli", *argv, "--out", "res"],
            cwd=child, env=env, capture_output=True, text=True,
        )
        monkeypatch.chdir(here)
        assert main([*argv, "--out", "res"]) == done.returncode == 0
        captured = capsys.readouterr()
        assert (done.stdout, done.stderr) == (captured.out, captured.err)
        names = sorted(p.name for p in (child / "res").iterdir())
        assert names == sorted(p.name for p in (here / "res").iterdir())
        for name in names:
            assert (child / "res" / name).read_bytes() == (here / "res" / name).read_bytes()
