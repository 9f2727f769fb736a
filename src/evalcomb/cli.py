"""Command line front end.

Three subcommands:

``combine``
    Read e-values from a file, run the requested combination tests,
    and print one JSON object (or TSV row) per statistic.  Its
    ``statistic`` field is exp(``log_statistic``), the authoritative
    value, and may differ from an exact statistic in the last digits.

``simulate``
    Monte Carlo rejection rates for a scenario, as a single JSON
    object.  Null scenarios run the type-I harness; alternatives run
    the power harness, which also audits betting-vs-max dominance.

``enumerate``
    Exact rational rejection probability for a finite-support scenario,
    printed as ``numerator/denominator = decimal``.

Exit codes: 0 on success, 2 for input-data problems (unreadable or
malformed e-value files), 3 for configuration problems (bad flags,
malformed scenario specs, out-of-range parameters).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import __version__
from .core import Regime, validate_evalues
from .errors import ConfigError, EvalcombError, ValidationError
from .simlab import (
    AdversarialScenario,
    Scenario,
    default_factor_scenario,
    enumerate_exact,
    mc_power,
    mc_type1,
    two_point_scenario,
)
from .testkit import StatKind, TestReport, _reports

__all__ = ["main", "build_parser", "parse_scenario"]

_DEFAULT_STATS = "max_average,optimized_betting"


class _Done(Exception):
    """--help or --version has printed its text; main returns 0."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 3),
    and the end of --help or --version as _Done, instead of calling
    sys.exit itself."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)

    def exit(self, status: int = 0, message: str | None = None) -> None:  # type: ignore[override]
        raise _Done


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evalcomb",
        description="Combine batches of e-values with anytime-valid guarantees.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    combine = sub.add_parser(
        "combine",
        help="test a batch of e-values read from a file",
        description=(
            "Read one e-value per line (blank lines and #-comments are "
            "skipped) and print one result per requested statistic."
        ),
    )
    combine.add_argument("--input", required=True, help="path to the e-value file")
    combine.add_argument(
        "--alpha", type=float, required=True, help="significance level in (0, 1)"
    )
    combine.add_argument(
        "--stat",
        default=_DEFAULT_STATS,
        help=(
            "comma-separated statistics to run: max_average, "
            f"optimized_betting, ville_sequential (default: {_DEFAULT_STATS})"
        ),
    )
    combine.add_argument(
        "--regime",
        default=Regime.UNKNOWN.value,
        choices=[r.value for r in Regime],
        help="dependence regime the e-values were collected under",
    )
    lam_group = combine.add_mutually_exclusive_group()
    lam_group.add_argument(
        "--lambda",
        dest="lambda_",
        type=float,
        default=None,
        help="constant betting fraction for ville_sequential",
    )
    lam_group.add_argument(
        "--lambda-file",
        default=None,
        help="file with one betting fraction per step for ville_sequential",
    )
    combine.add_argument(
        "--format", choices=["json", "tsv"], default="json", help="output format"
    )

    simulate = sub.add_parser(
        "simulate",
        help="Monte Carlo rejection rates for a scenario",
        description=(
            "Scenario specs: 'adversarial', "
            "'two_point:p=0.5,hi=2,lo=0,n=10' (mean= may replace hi=), "
            "'factor:default,n=8'."
        ),
    )
    simulate.add_argument("--scenario", required=True, help="scenario spec")
    simulate.add_argument(
        "--alpha", type=float, required=True, help="significance level in (0, 1)"
    )
    simulate.add_argument(
        "--reps", type=int, required=True, help="number of replications"
    )
    simulate.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )

    enum = sub.add_parser(
        "enumerate",
        help="exact rejection probability for a finite-support scenario",
        description="Prints the probability as 'numerator/denominator = decimal'.",
    )
    enum.add_argument("--scenario", required=True, help="scenario spec")
    enum.add_argument(
        "--threshold",
        required=True,
        help="rejection threshold, as a decimal or a ratio like 9/16",
    )
    enum.add_argument(
        "--stat",
        required=True,
        help="statistic to enumerate: max_average or optimized_betting",
    )
    return parser


# --------------------------------------------------------------------
# input parsing


def _read_number_file(
    path: str, what: str, header: str | None = None, nonnegative: bool = False
) -> np.ndarray:
    """Parse one float per line; blank lines and #-comments are skipped,
    as is an optional leading header line (e.g. ``e_value``).

    All problems here are data problems (ValidationError, exit 2):
    missing or undecodable file, empty file, or a line that is not an
    acceptable number.  Diagnostics cite the 1-based line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    texts = [text for text in map(str.strip, raw_lines) if text and not text.startswith("#")]
    start = int(bool(texts) and header is not None and texts[0].lower() == header)
    if start == len(texts):
        raise ValidationError(f"{what} file {path} contains no values")
    try:
        values = np.fromiter(map(float, texts[start:]), dtype=float, count=len(texts) - start)
    except ValueError:  # a line that is not a number, named below
        values = None
    if values is None or np.isnan(values).any() or (nonnegative and (values < 0).any()):
        # The error path: find the first offending line, in file order.
        linenos = [
            lineno
            for lineno, text in enumerate(map(str.strip, raw_lines), start=1)
            if text and not text.startswith("#")
        ]
        for lineno, text in zip(linenos[start:], texts[start:]):
            try:
                value = float(text)
            except ValueError as exc:
                raise ValidationError(
                    f"{what} file {path}, line {lineno}: not a number: {text!r}"
                ) from exc
            if math.isnan(value):
                raise ValidationError(f"{what} file {path}, line {lineno}: NaN is not allowed")
            if nonnegative and value < 0:
                raise ValidationError(
                    f"{what} file {path}, line {lineno}: negative value {value} "
                    f"is not a valid {what}"
                )
    return values


def _parse_stats(text: str) -> list[StatKind]:
    kinds: list[StatKind] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            kind = StatKind(token)
        except ValueError as exc:
            known = ", ".join(k.value for k in StatKind)
            raise ConfigError(f"unknown statistic {token!r} (known: {known})") from exc
        if kind not in kinds:
            kinds.append(kind)
    if not kinds:
        raise ConfigError("--stat selects no statistics")
    return kinds


def _scenario_n(text: str) -> int | float:
    """n as written: an integer literal exactly, any other number (8.0,
    8e0) as a float, which the scenario accepts when it is integral."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_scenario(spec: str) -> Scenario:
    """Parse a scenario spec string.

    Grammar: ``adversarial`` | ``two_point:key=value,...`` with keys
    p, n, lo, and hi or mean | ``factor:default,n=N``.
    """
    spec = spec.strip()
    if spec == "adversarial":
        return AdversarialScenario()
    head, sep, tail = spec.partition(":")
    if head == "two_point" and sep:
        fields: dict[str, float] = {}
        for part in tail.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or key not in {"p", "hi", "lo", "n", "mean"}:
                raise ConfigError(f"bad two_point field {part!r} in scenario {spec!r}")
            if key in fields:
                raise ConfigError(f"duplicate field {key!r} in scenario {spec!r}")
            try:
                fields[key] = _scenario_n(value) if key == "n" else float(value)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in scenario {spec!r}"
                ) from exc
        if "p" not in fields or "n" not in fields:
            raise ConfigError(f"two_point scenario needs p= and n=: {spec!r}")
        return two_point_scenario(
            p=fields["p"],
            n=fields["n"],
            lo=fields.get("lo", 0.0),
            hi=fields.get("hi"),
            mean=fields.get("mean"),
        )
    if head == "factor" and sep:
        parts = [part.strip() for part in tail.split(",")]
        if len(parts) != 2 or parts[0] != "default" or not parts[1].startswith("n="):
            raise ConfigError(
                f"factor scenario spec must look like factor:default,n=8: {spec!r}"
            )
        try:
            n = _scenario_n(parts[1][2:])
        except ValueError as exc:
            raise ConfigError(f"bad n in scenario {spec!r}") from exc
        return default_factor_scenario(n)
    raise ConfigError(
        f"unknown scenario {spec!r} (expected adversarial, two_point:..., "
        "or factor:default,n=...)"
    )


# --------------------------------------------------------------------
# combine


def _json_number(x: float) -> float | str:
    """x itself, or its name for the infinities JSON has no literal for."""
    return x if math.isfinite(x) else str(x)


def _report_record(report: TestReport, regime: Regime) -> dict:
    return {
        "statistic_kind": report.statistic_kind.value,
        "log_statistic": _json_number(report.log_statistic.log_magnitude),
        "statistic": _json_number(report.log_statistic.value),
        "alpha": report.alpha,
        "reject": report.reject,
        "p_bound": report.p_bound,
        "regime": regime.value,
        "warnings": list(report.warnings),
    }


def _tsv_cell(record: dict, column: str) -> str:
    value = record[column]
    if column == "warnings":
        return ";".join(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cmd_combine(args: argparse.Namespace) -> int:
    kinds = _parse_stats(args.stat)
    regime = Regime(args.regime)
    raw = _read_number_file(args.input, "e-value", header="e_value", nonnegative=True)
    evector = validate_evalues(raw, regime)

    strategy: float | np.ndarray | None = None
    if StatKind.VILLE_SEQUENTIAL in kinds:
        if args.lambda_ is None and args.lambda_file is None:
            raise ConfigError("ville_sequential needs --lambda or --lambda-file")
        if args.lambda_ is not None:
            lam = float(args.lambda_)
            if math.isnan(lam) or not (0.0 <= lam <= 1.0):
                raise ConfigError(f"--lambda must lie in [0, 1], got {lam}")
            strategy = lam
        else:
            strategy = _read_number_file(args.lambda_file, "betting-fraction")
    elif args.lambda_ is not None or args.lambda_file is not None:
        raise ConfigError(
            "--lambda/--lambda-file apply only when ville_sequential is requested"
        )

    reports = _reports(evector, args.alpha, kinds, strategy)
    records = [_report_record(report, regime) for report in reports]

    out = sys.stdout
    if args.format == "json":
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        columns = list(records[0])
        out.write("\t".join(columns) + "\n")
        for record in records:
            out.write("\t".join(_tsv_cell(record, c) for c in columns) + "\n")
    return 0


# --------------------------------------------------------------------
# simulate


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = parse_scenario(args.scenario)
    runner = mc_type1 if scenario.is_null else mc_power
    summary = runner(scenario, args.alpha, args.reps, args.seed)
    record = {
        "scenario": args.scenario,
        "alpha": summary.alpha,
        "replications": summary.replications,
        "seed": summary.seed,
        "rejection_rate": {k.value: v for k, v in summary.rejection_rate.items()},
        "standard_error": {k.value: v for k, v in summary.standard_error.items()},
    }
    if not scenario.is_null:
        record["dominance_violations"] = summary.dominance_violations
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


# --------------------------------------------------------------------
# enumerate


def _format_fraction(value: Fraction) -> str:
    decimal = (
        str(value.numerator // value.denominator)
        if value.denominator == 1
        else repr(float(value))
    )
    return f"{value.numerator}/{value.denominator} = {decimal}"


def _cmd_enumerate(args: argparse.Namespace) -> int:
    probability = enumerate_exact(parse_scenario(args.scenario), args.threshold, args.stat)
    sys.stdout.write(_format_fraction(probability) + "\n")
    return 0


# --------------------------------------------------------------------
# entry point


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "combine":
            return _cmd_combine(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_enumerate(args)
    except _Done:
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvalcombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
