"""Command-line front end.

Subcommands: classify, analyze, brute, simulate.  stdout carries exactly one
JSON document per run; logs go to stderr.  Exit codes: 0 ok, 2 bad config,
3 resource guard tripped, 4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path

from . import __version__
from .benford import DEFAULT_KS_THRESHOLD, _check_digit_base, benford_report, star_discrepancy, write_digits_csv
from .enumeration import (
    MEASURE_UNIFORM,
    MEASURES,
    _count_text,
    _write_json,
    exact_distribution,
    rotate_distribution,
    write_distribution_csv,
)
from .errors import ConfigError, ResourceLimitError
from .model import (
    DEFAULT_MAX_DENOMINATOR,
    DEFAULT_TOLERANCE,
    _check_real,
    classify_rationality,
    log_base,
    parse_config,
    predict_benford,
    read_config,
)
from .montecarlo import (
    FixedProportions,
    SamplerConfig,
    sample_leaf_residues,
    write_metadata_json,
    write_samples_csv,
)
from .oracle import cross_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

SCALE_CHECK_TOL = 1e-9


def _bounded(msg: str) -> str:
    """msg with each run of over 200 non-blank characters cut to its first 100, then the whole to 500 bytes as
    stderr writes them (argv's lone surrogates as \\udcxx), each cut marked: no refusal echoes a value in full."""
    msg = re.sub(r"\S{201,}", lambda run: f"{run[0][:100]}...({len(run[0])} characters)", msg)
    data = msg.encode(errors="backslashreplace")
    return msg if len(data) <= 500 else f"{data[:500].decode(errors='ignore')}...({len(msg)} characters)"


def _log(msg: str) -> None:
    print(_bounded(msg), file=sys.stderr)


class _Parser(argparse.ArgumentParser):  # its subparsers take its class, so every refusal is _bounded
    def error(self, message: str):
        super().error(_bounded(message))


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _load_model(args: argparse.Namespace):
    """Parse the config file; --base applies only when the file has no base.

    The file is read once: the manifest hashes the bytes parsed here.
    """
    raw, data = read_config(args.config)
    args.config_sha256 = hashlib.sha256(data).hexdigest()
    if isinstance(raw, dict) and "base" not in raw:
        raw = {**raw, "base": args.base}
    model, spec = parse_config(raw)
    return model, spec, raw


def _write_outputs(args: argparse.Namespace, report, writers: dict) -> int:
    """Write writers' files (name -> write(path)), report.json and manifest.json to --out; print the report."""
    manifest = {
        "command": " ".join(args.command_echo),
        "config_sha256": args.config_sha256,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": ["report.json", *writers],
    }
    files = {**writers, "report.json": partial(_write_json, report.to_json_dict()),
             "manifest.json": partial(_write_json, manifest)}
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = {name: write(out_dir / name) for name, write in files.items()}
    except OSError as exc:
        _log(f"cannot write the outputs: {exc}")
        return EXIT_CONFIG
    print(written["report.json"], end="")
    return EXIT_OK


def _classification_dict(spec, classification) -> dict:
    entries = []
    for value, verdict in zip(spec.values(), classification.verdicts):
        entries.append(
            {
                "value": value,
                "verdict": "rational" if verdict.rational else "presumed_irrational",
                "rational": [verdict.numerator, verdict.denominator] if verdict.rational else None,
                "witness": {
                    "numerator": verdict.witness_numerator,
                    "denominator": verdict.witness_denominator,
                    "error": verdict.witness_error,
                },
            }
        )
    return {
        "exponents": entries,
        "base": spec.base,
        "max_denominator": classification.max_denominator,
        "tolerance": classification.tolerance,
        "prediction": predict_benford(classification),
    }


def cmd_classify(args: argparse.Namespace) -> int:
    model, spec, _ = _load_model(args)
    classification = classify_rationality(spec, args.max_denominator, args.tolerance)
    _emit(_classification_dict(spec, classification))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    model, spec, _ = _load_model(args)
    base = _check_digit_base(spec.base)  # refused before the engine runs, with no pointer to simulate
    _log(f"analyzing m={model.m} N={args.N} measure={args.measure}")
    try:
        dist = exact_distribution(model, args.N, base, args.measure)
    except ResourceLimitError as exc:
        _log(f"{exc}; consider `stickfrag simulate` for this size")
        return EXIT_RESOURCE
    if args.length != 1.0:
        # the unrotated distribution's discrepancy first, so it is freed as
        # soon as the rotation returns
        unrotated = star_discrepancy(dist)
        dist = rotate_distribution(dist, log_base(args.length, base))
    report = benford_report(dist, base, args.ks_threshold)
    if args.length != 1.0:
        # the report's discrepancy is star_discrepancy(dist), from the same CDF
        drift = abs(report.star_discrepancy - unrotated)
        _log(f"scale invariance check: star-discrepancy drift {drift:.3e} at L={args.length}")
        if drift > SCALE_CHECK_TOL:
            _log("scale invariance violated")
            return EXIT_VERIFY
    return _write_outputs(args, report, {
        "distribution.csv": partial(write_distribution_csv, dist),
        "digits.csv": partial(write_digits_csv, report.leading_digit_freqs, base),
    })


def cmd_brute(args: argparse.Namespace) -> int:
    model, spec, _ = _load_model(args)
    report = cross_check(model, args.N, spec.base, args.measure)
    _emit(report.to_json_dict())
    if not report.passed:
        _log(f"cross-check failed: max mass deviation {report.max_mass_deviation:.3e}")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    model, spec, raw_config = _load_model(args)
    _check_digit_base(spec.base)
    config = SamplerConfig(
        seed=args.seed, samples=args.samples, mode=FixedProportions(model), measure=args.measure
    )
    _log(f"sampling {_count_text(args.samples)} paths of length {args.N} (seed {args.seed})")
    residues, dist = sample_leaf_residues(config, args.N, spec.base, tasks=args.threads)
    report = benford_report(dist, spec.base, args.ks_threshold)
    return _write_outputs(args, report, {
        "samples.csv": partial(write_samples_csv, residues),
        "metadata.json": partial(write_metadata_json, config, args.N, spec.base, raw_config),
    })


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi), so a bad flag exits 2 before any work."""

    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # argparse echoes a short text; a long one (int() refuses over 4300 digits) is stated by its length
            if len(text) <= 20:
                raise
            raise argparse.ArgumentTypeError(f"invalid integer value of {len(text)} characters") from None
        if value < lo or (hi is not None and value >= hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
            # bounded as the guards state counts; _count_text takes logs, so the sign goes first
            got = "-" * (value < 0) + (_count_text(abs(value)) if value else "0")
            raise argparse.ArgumentTypeError(f"must be {bound}, got {got}")
        return value

    return integer


def _positive_finite_float(text: str) -> float:
    try:
        return _check_real("the value", float(text), 0.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _out_dir(text: str) -> str:
    """argparse type: a path whose nearest existing ancestor is a directory (a dangling link is not)."""
    path = Path(text).absolute()
    try:
        while not (path.exists() or path.is_symlink()):
            path = path.parent
        if path.is_dir():
            return text
    except OSError as exc:  # a name or a path too long for the system (ENAMETOOLONG)
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"{path} is not a directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stickfrag",
        description="Benford analysis of fixed multi-proportion stick fragmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, help="model configuration JSON file")
        p.add_argument("--base", type=int, default=10, help="significand base (config file wins)")
        return p

    p_classify = add_command("classify", "rationality verdicts and Benford prediction", cmd_classify)
    p_classify.add_argument("--max-denominator", type=_int_in(1), default=DEFAULT_MAX_DENOMINATOR)
    p_classify.add_argument("--tolerance", type=_positive_finite_float, default=DEFAULT_TOLERANCE)

    p_analyze = add_command("analyze", "exact distribution, metrics, CSV/JSON outputs", cmd_analyze)
    p_brute = add_command("brute", "cross-check enumeration against brute force", cmd_brute)
    p_sim = add_command("simulate", "Monte Carlo path sampling", cmd_simulate)
    for p in (p_analyze, p_brute, p_sim):
        p.add_argument("--N", type=_int_in(0, 2**63), required=True, help="number of fragmentation stages")
        p.add_argument("--measure", choices=MEASURES, default=MEASURE_UNIFORM)

    p_analyze.add_argument("--out", type=_out_dir, required=True, help="output directory for this run")
    p_analyze.add_argument("--threads", type=_int_in(1), default=1, help="accepted; enumeration runs single-threaded")
    p_analyze.add_argument("--ks-threshold", type=_positive_finite_float, default=DEFAULT_KS_THRESHOLD)
    p_analyze.add_argument("--length", type=_positive_finite_float, default=1.0, help="initial stick length L")

    p_sim.add_argument("--samples", type=_int_in(1), required=True)
    p_sim.add_argument("--seed", type=_int_in(0, 2**64), required=True)
    p_sim.add_argument("--out", type=_out_dir, required=True)
    p_sim.add_argument("--threads", type=_int_in(1), default=1)
    p_sim.add_argument("--ks-threshold", type=_positive_finite_float, default=DEFAULT_KS_THRESHOLD)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses for the rest of the process, built on its first call, not at import.

    Parsing leaves a parser unchanged and returns a new Namespace each time.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    args.command_echo = ["stickfrag"] + argv
    try:
        return args.func(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        _log(str(exc))
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
