"""Command line front end: build the group, run suites, emit a report.

Exit codes: 0 all selected checks pass, 1 at least one check fails,
2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .report import SUITES, ConfigError, ReportConfig, run


def _parse_lambda(text: str) -> Fraction | None:
    if text == "formal":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid metric parameter {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhg",
        description=(
            "Exact verification of the left-invariant geometry of the "
            "quaternionic Heisenberg groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--p", type=int, default=1, help="number of quaternion copies")
    verify.add_argument(
        "--lambda",
        dest="lam",
        default="formal",
        help='metric parameter: "formal" or a positive rational like 3/2',
    )
    verify.add_argument(
        "--suite",
        action="append",
        choices=SUITES + ("all",),
        help="suite to run (repeatable; default all)",
    )
    verify.add_argument(
        "--format", dest="fmt", choices=("json", "text"), default="text"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = ReportConfig(
            p=args.p,
            lam=_parse_lambda(args.lam),
            suites=tuple(args.suite) if args.suite else ("all",),
            fmt=args.fmt,
        )
        report = run(config)
    except ConfigError as exc:
        print(f"qhg: configuration error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json() if config.fmt == "json" else report.to_text())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
