"""Command line harness for the two benchmark experiments.

``sparselms ident`` reproduces the sparse system identification benchmark
and ``sparselms spectrum`` the undersampled spectrum estimation one.
Flags carry the benchmark defaults; a JSON config file given with
``--config`` overrides any flag value.  Exit status is 0 on success and
nonzero on validation or I/O failure.
"""

import argparse
import gc
import json
import sys

from .filters import _VARIANTS, PARAMETERS, FilterConfig
from .harness import (
    SNAPSHOT_EVERY,
    ExperimentConfig,
    emit_outputs,
    run_ident_experiment,
    run_spectrum_experiment,
)
from .signals import IdentScenario, SpectrumScenario, check_count

IDENT_ALGORITHMS = list(PARAMETERS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparselms",
        description="Sparsity-aware LMS experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ident = sub.add_parser("ident", help="sparse system identification benchmark")
    ident.add_argument("--taps", type=int, default=256, help="filter length N")
    ident.add_argument("--nonzero", type=int, default=28, help="number of nonzero taps")
    ident.add_argument("--tap-value", type=float, default=1.0, help="value of the nonzero taps")
    ident.add_argument("--signal-len", type=int, default=2000, help="input samples per run")
    ident.add_argument("--snr-db", type=float, default=30.0, help="observation SNR in dB")
    ident.add_argument("--mu", type=float, default=0.005, help="step size")
    ident.add_argument("--rho", type=float, default=5e-5, help="zero-attractor strength")
    ident.add_argument("--epsilon", type=float, default=10.0, help="RZA reweighting constant")
    ident.add_argument("--sparsity", type=int, default=28, help="threshold keep-count s")
    ident.add_argument("--relaxed-sparsity", type=int, default=56, help="relaxed keep-count d")
    ident.add_argument("--warmup", type=int, default=512, help="warm-up updates before thresholding")
    ident.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help=f"diagnostic snapshot cadence (default {SNAPSHOT_EVERY}, at most --signal-len)",
    )
    ident.add_argument(
        "--algorithms",
        default=",".join(IDENT_ALGORITHMS),
        help="comma-separated subset of: " + ", ".join(IDENT_ALGORITHMS),
    )

    spectrum = sub.add_parser("spectrum", help="undersampled spectrum estimation benchmark")
    spectrum.add_argument("--full-len", type=int, default=1000, help="signal length / DFT size")
    spectrum.add_argument("--tones", type=int, default=10, help="number of sinusoids")
    spectrum.add_argument("--samples", type=int, default=300, help="random time samples kept")
    spectrum.add_argument("--snr-db", type=float, default=20.0, help="signal SNR in dB")
    spectrum.add_argument("--passes", type=int, default=10, help="retraining passes over the samples")
    spectrum.add_argument("--sparsity", type=int, default=20, help="threshold keep-count s")

    for p in (ident, spectrum):
        p.add_argument("--runs", type=int, default=200 if p is ident else 1, help="Monte Carlo runs")
        p.add_argument("--seed", type=int, default=0, help="base seed; run r uses seed + r")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
        p.add_argument("--config", default=None, help="JSON file whose values override the flags")

    return parser


def _option_types(parser, command):
    """Map each option of ``command`` to the type argparse converts it with."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.type or str for a in sub.choices[command]._actions}


def _apply_config_file(args, parser):
    """Override ``args`` with the config file's values, each converted as on the command line."""
    if args.config is None:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decode errors are ValueErrors
        raise ValueError(f"--config {args.config}: {exc}") from None
    if not isinstance(overrides, dict):
        raise ValueError(f"--config {args.config}: expected a JSON object")
    types = _option_types(parser, args.command)
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in types or dest in ("help", "config"):
            raise ValueError(f"--config {args.config}: unknown option {key!r}")
        convert = types[dest]
        # bool is an int to Python but not a value any option takes
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"{dest}: expected a {convert.__name__}, got {value!r}")
        try:
            setattr(args, dest, convert(str(value)))
        except ValueError as exc:
            raise ValueError(f"{dest}: {exc}") from exc


def _ident_experiment(args):
    scenario = IdentScenario(
        n_taps=args.taps,
        n_nonzero=args.nonzero,
        tap_value=args.tap_value,
        signal_len=args.signal_len,
        snr_db=args.snr_db,
        seed=args.seed,
    )
    names = [n.strip() for n in str(args.algorithms).split(",") if n.strip()]
    # each variant gets only the parameters it is configured with
    values = dict(vars(args), warmup_steps=args.warmup)
    algorithms = []
    for name in names:
        if name not in PARAMETERS:
            raise ValueError(f"--algorithms: unknown algorithm {name!r}")
        params = {field: values[field] for field in PARAMETERS[name]}
        algorithms.append(FilterConfig(name, args.taps, args.mu, **params))
    return ExperimentConfig(
        scenario=scenario,
        algorithms=algorithms,
        n_runs=args.runs,
        base_seed=args.seed,
        snapshot_every=args.snapshot_every,
    )


def _spectrum_experiment(args):
    scenario = SpectrumScenario(
        full_len=args.full_len,
        n_tones=args.tones,
        n_samples=args.samples,
        snr_db=args.snr_db,
        seed=args.seed,
    )
    # the paper's comparison: plain and hard-threshold LMS
    algorithms = [
        FilterConfig("lms", args.full_len, 1.0, label="complex_lms"),
        FilterConfig(
            "hard_lms", args.full_len, 1.0, sparsity=args.sparsity, label="complex_hard_lms"
        ),
    ]
    return ExperimentConfig(
        scenario=scenario,
        algorithms=algorithms,
        n_runs=args.runs,
        base_seed=args.seed,
        passes=args.passes,
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser)
        workers = check_count("max_workers", args.workers, 1)
        if args.command == "ident":
            cfg = _ident_experiment(args)
            for a in cfg.algorithms:
                # LMS's mean-square bound on white unit-variance input (Feuer & Weinstein),
                # K the taps it adapts: its keep-count if it thresholds from the start
                field = _VARIANTS[a.algorithm][1]
                keep = getattr(a, field) if field and a.warmup_steps == 0 else a.n_taps
                if a.mu >= 2.0 / (keep + 2):
                    print(f"warning: mu {a.mu} exceeds the mean-square stability bound 2/(K+2) = "
                          f"{2.0 / (keep + 2):.4g} of {a.label} (K = {keep}); it may diverge",
                          file=sys.stderr)
            curves = run_ident_experiment(cfg, max_workers=workers)
            diagnostics = {label: curve.diagnostics for label, curve in curves.items()}
            paths = emit_outputs(curves, args.out, experiment=cfg, diagnostics=diagnostics)
            for label, curve in curves.items():
                print(f"{label}: final ESR {curve.esr_db[-1]:.2f} dB over {curve.n_runs} runs")
        else:
            cfg = _spectrum_experiment(args)
            report = run_spectrum_experiment(cfg, max_workers=workers)
            paths = emit_outputs(report, args.out, experiment=cfg)
            for label, rate in report.hit_rates.items():
                print(f"{label}: mean support hit rate {rate:.3f} over {report.n_runs} runs")
        for path in paths:
            print(f"wrote {path}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run():
    """Process entry: freeze the start-up heap, which no collection walks again, then ``main()``."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
