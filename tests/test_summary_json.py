"""summary.json is the stdlib's ``indent=2, sort_keys=True`` text of the summary.

``emit_outputs`` writes the file without the pure-Python encoder that
``json.dumps`` falls back to under ``indent``; these tests hold its bytes
to that encoder's output for the reference conversion in ``helpers``.
"""

import json
import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from helpers import ref_json_safe
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    Algorithm,
    ExperimentConfig,
    FilterConfig,
    IdentScenario,
    LearningCurve,
    cli,
    emit_outputs,
    harness,
    run_ident_experiment,
)


def reference_text(summary):
    return json.dumps(ref_json_safe(summary), indent=2, sort_keys=True) + "\n"


def emit_and_capture(*args, **kwargs):
    """``emit_outputs`` with the summary it encoded, and the summary.json bytes."""
    with mock.patch.object(harness, "_json_text", wraps=harness._json_text) as spy:
        paths = emit_outputs(*args, **kwargs)
    # the first call is emit_outputs' own; the writer recurses through the rest
    (summary,), _ = spy.call_args_list[0]
    path = next(p for p in paths if p.name == "summary.json")
    return summary, path.read_bytes()


TRICKY = [", ", ": ", '"', "\\", '\\"', "é", "中", "\U0001f600", "%s", "%", "\n", "\t", "a"]
labels = st.lists(st.sampled_from(TRICKY) | st.text(max_size=3), max_size=4).map("".join)
special = st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300]
)
floats = special | st.floats()
numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    labels.map(np.str_),
)
numpy_arrays = st.one_of(
    st.lists(floats, max_size=5).map(np.array),
    st.lists(st.integers(-5, 5), max_size=5).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.complex_numbers(), max_size=3).map(lambda v: np.array(v, dtype=complex)),
    st.lists(floats, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2)),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    floats,
    labels,
    st.sampled_from(list(Algorithm)),
    st.complex_numbers(),
    numpy_scalars,
)
keys = labels | st.integers(-2, 2) | st.sampled_from(list(Algorithm)) | st.none()


def record_lists(children):
    """Lists of dicts that share one key set, the shape of the diagnostics records."""
    key_sets = st.lists(keys, min_size=1, max_size=4, unique_by=str)
    records = lambda ks: st.fixed_dictionaries({k: children for k in ks})
    return key_sets.flatmap(lambda ks: st.lists(records(ks), min_size=1, max_size=5))


def extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        record_lists(scalars),
        record_lists(children),
    )


trees = st.recursive(scalars | numpy_arrays, extend, max_leaves=30)
esr_values = st.sampled_from([0.0, math.inf, math.nan, 5e-324, 1e300]) | st.floats(0, 1e3)


class TestStdlibLayout:
    @settings(max_examples=300, deadline=None)
    @given(
        diagnostics=trees,
        curves=st.dictionaries(labels, st.lists(esr_values, max_size=3), max_size=3),
    )
    def test_bytes_equal_reference(self, diagnostics, curves):
        result = {
            label: LearningCurve(label, np.array(esr, dtype=float), 1)
            for label, esr in curves.items()
        }
        with tempfile.TemporaryDirectory() as d:
            summary, written = emit_and_capture(result, d, diagnostics=diagnostics)
        assert summary["diagnostics"] is diagnostics
        assert written == reference_text(summary).encode()

    @pytest.mark.parametrize(
        "obj",
        [
            [{"a, b": 1, "c": "x, y"}, {"a, b": 2, "c": '": "'}],
            [{"k": 1.0}, {"k": [1.5, {"n": math.nan}]}, {"k": ()}],
            [{"k": 1}, {"j": 1}],
            [{1: "int", "1": "str"}] * 2,
            [{}, {}],
            [[], {}, (), [[]]],
            {"%s": [{"%d": "%%"}]},
            [np.float64(math.inf), 1.0, -0.0, True, None, 2**64],
        ],
    )
    def test_fixed_shapes(self, obj, tmp_path):
        summary, written = emit_and_capture({}, tmp_path, diagnostics=obj)
        assert written == reference_text(summary).encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ident", "--runs", "2", "--signal-len", "300", "--snapshot-every", "1"],
            ["spectrum", "--runs", "2", "--full-len", "128", "--tones", "3", "--samples",
             "48", "--sparsity", "6", "--passes", "2"],
        ],
        ids=["ident-every-update", "spectrum"],
    )
    def test_cli_summaries(self, argv, tmp_path):
        with mock.patch.object(harness, "_json_text", wraps=harness._json_text) as spy:
            assert cli.main([*argv, "--seed", "5", "--out", str(tmp_path)]) == 0
        (summary,), _ = spy.call_args_list[0]
        assert (tmp_path / "summary.json").read_bytes() == reference_text(summary).encode()

    def test_unencodable_value_writes_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            emit_outputs({}, tmp_path, diagnostics={"bad": [{"x": 1}, {"x": object()}]})
        # no curves.csv either, and no directory is made for a summary that cannot be encoded
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(TypeError):
            emit_outputs({}, tmp_path / "new", diagnostics={"bad": object()})
        assert list(tmp_path.iterdir()) == []


def test_pure_python_encoder_not_used(tmp_path, monkeypatch):
    """A telemetry summary is written without ``json.encoder._make_iterencode``."""
    algorithms = [
        FilterConfig("lms", n_taps=16, mu=0.05),
        FilterConfig("hard_lms", n_taps=16, mu=0.05, sparsity=3),
    ]
    scenario = IdentScenario(n_taps=16, n_nonzero=3, signal_len=150)
    cfg = ExperimentConfig(scenario, algorithms, n_runs=2, snapshot_every=1)
    curves = run_ident_experiment(cfg)
    diagnostics = {label: c.diagnostics for label, c in curves.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    summary, written = emit_and_capture(curves, tmp_path, experiment=cfg, diagnostics=diagnostics)
    assert len(summary["diagnostics"]["lms"]) == 150
    monkeypatch.undo()
    assert written == reference_text(summary).encode()
