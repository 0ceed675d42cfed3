"""Output checks applied to the artifacts of every benchmarked invocation.

An invocation counts as failed when any check returns a problem; it is
never dropped from the sample.  The checks are:

* the expected artifacts exist and ``summary.json`` has schema version 1
  and the expected ``kind``;
* ``curves.csv`` round-trips through ``sparselms.read_curves_csv``: the
  parsed columns, written back with ``repr``, give the same bytes;
* every headline result (final ESR in dB per algorithm for ``ident``,
  mean support hit rate per algorithm for ``spectrum``) is finite;
* every headline result lies inside the interval recorded for it at the
  seed commit (``reference.json``, see ``record_reference.py``);
* artifacts are byte-identical to those of the first invocation of the
  same seed (for ``ident-par`` that one runs with ``--workers 1``).
"""

import hashlib
import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

ARTIFACTS = {
    "ident": ("curves.csv", "summary.json"),
    "spectrum": ("spectrum.csv", "summary.json"),
}


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["workloads"]


def digests(out_dir, kind):
    """SHA-256 of each artifact, keyed by file name."""
    return {
        name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        for name in ARTIFACTS[kind]
    }


def headline(summary):
    """Per-algorithm headline result of a summary: final ESR dB or hit rate."""
    if summary.get("kind") == "ident":
        return {label: v.get("db") for label, v in summary.get("final_esr", {}).items()}
    return dict(summary.get("hit_rates", {}))


def configured_updates(summary):
    """Filter updates the experiment asks for: runs x algorithms x stream length."""
    exp = summary["experiment"]
    scenario = exp["scenario"]
    if summary["kind"] == "ident":
        per_stream = scenario["signal_len"]
    else:
        per_stream = scenario["n_samples"] * exp["passes"]
    return exp["n_runs"] * len(exp["algorithms"]) * per_stream


def _curves_round_trip(path, labels):
    from sparselms import read_curves_csv

    text = path.read_text()
    parsed_labels, iterations, columns = read_curves_csv(path)
    if list(parsed_labels) != list(labels):
        return f"curves.csv labels {parsed_labels} differ from summary labels {labels}"
    lines = ["iteration" + "".join("," + l for l in parsed_labels)]
    for i, it in enumerate(iterations):
        lines.append(",".join([str(int(it))] + [repr(float(columns[l][i])) for l in parsed_labels]))
    if "\n".join(lines) + "\n" != text:
        return "curves.csv does not round-trip through read_curves_csv"
    return None


def check_outputs(out_dir, kind, reference):
    """Check one invocation's artifacts.

    Returns ``(problems, summary, deviation)``: a list of problem strings
    (empty when every check passes), the parsed summary (None when it
    could not be read) and the largest absolute deviation of a headline
    result from the reference mean (None when not computable).
    """
    out = Path(out_dir)
    missing = [name for name in ARTIFACTS[kind] if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"], None, None
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"], None, None
    problems = []
    if summary.get("schema_version") != 1:
        problems.append(f"summary.json schema_version {summary.get('schema_version')!r} != 1")
    if summary.get("kind") != kind:
        problems.append(f"summary.json kind {summary.get('kind')!r} != {kind!r}")
        return problems, summary, None
    if kind == "ident":
        labels = [a["label"] for a in summary["experiment"]["algorithms"]]
        problem = _curves_round_trip(out / "curves.csv", labels)
        if problem:
            problems.append(problem)
    results = headline(summary)
    deviation = 0.0
    for label, ref_mean in reference["mean"].items():
        value = results.get(label)
        if value is None or not math.isfinite(value):
            problems.append(f"{label}: headline result {value!r} is not finite")
            deviation = None
            continue
        if deviation is not None:
            deviation = max(deviation, abs(value - ref_mean))
        low, high = reference["interval"][label]
        if not low <= value <= high:
            problems.append(
                f"{label}: {value:.6g} {reference['unit']} outside the reference interval "
                f"[{low:.6g}, {high:.6g}]"
            )
    extra = sorted(set(results) - set(reference["mean"]))
    if extra:
        problems.append(f"algorithms without a reference: {extra}")
    return problems, summary, deviation


class Ledger:
    """Checks invocations of one benchmark run and counts the failures."""

    def __init__(self, kind, reference):
        self.kind = kind
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.deviations = []
        self.summary = None
        self._first = None

    def check(self, tag, out_dir, exit_code, detail=""):
        """Check one invocation's exit status and artifacts; True when it passed."""
        self.attempted += 1
        if exit_code != 0:
            found = [f"exit status {exit_code} {detail}".rstrip()]
        else:
            found, summary, deviation = check_outputs(out_dir, self.kind, self.reference)
            if deviation is not None:
                self.deviations.append(deviation)
            if not found:
                self.summary = summary
                hashes = digests(out_dir, self.kind)
                if self._first is None:
                    self._first = hashes
                elif hashes != self._first:
                    found.append("artifacts differ from the first invocation of this seed")
        if found:
            self.failed += 1
            self.problems.extend(f"{tag}: {p}" for p in found)
        return not found
