"""Command line entry point.

    abmink run <config> [--format table|csv|json] [--out PATH]
    abmink list
    abmink check [--tol X] [--format text|json]

``run`` exits with status 1 when the report has errors, and with status 2
when the config cannot be read or parsed or the report cannot be written.
``check`` runs the built-in cross-check suite and exits nonzero if any
residual exceeds its bound; the relative tolerance defaults to 1e-6 and can
be overridden with --tol or the ABMINK_TOL environment variable.  It must be
a finite number > 0, spelled as a config value is (ASCII, no '_'); any other
value exits with status 2.  ``--format json`` prints one strict JSON
document, ``{"checks": [...]}``, with the name, residual, bound and passed of
each check in suite order.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .runner import (
    DEFAULT_TOL,
    SCENARIO_NAMES,
    check_suite,
    emit,
    parse_config,
    parse_tolerance,
    run,
)


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        request = parse_config(text)
        report = run(request)
        payload = emit(report, args.format)
    except ValueError as exc:  # ConfigError and RegimeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            Path(args.out).write_bytes(payload)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    if report.errors:
        sys.stderr.write("".join(f"error: {err}\n" for err in report.errors))
        return 1
    return 0


def _cmd_list(args) -> int:
    for name in SCENARIO_NAMES:
        print(name)
    return 0


def _cmd_check(args) -> int:
    if args.tol is not None:
        source, raw = "--tol", args.tol
    else:
        source, raw = "ABMINK_TOL", os.environ.get("ABMINK_TOL", DEFAULT_TOL)
    try:
        tol = parse_tolerance(raw)
    except ValueError as exc:
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 2
    results = check_suite(tol)
    if args.format == "json":
        checks = [{"name": r.name, "residual": r.residual, "bound": r.bound,
                   "passed": r.passed} for r in results]
        print(json.dumps({"checks": checks}, allow_nan=False))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
                  f"residual {r.residual:.3e} (bound {r.bound:.3e})")
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: parse_args returns
    a fresh namespace each call, so no option carries over."""
    parser = argparse.ArgumentParser(
        prog="abmink",
        description=("Abraham/Minkowski electromagnetic momentum toolkit: "
                     "scenario runner and cross-checks."))
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a scenario config file")
    p_run.add_argument("config", help="path to a key = value config document")
    p_run.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
    p_run.add_argument("--out", help="write the report here instead of stdout")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list", help="list the scenario names")
    p_list.set_defaults(fn=_cmd_list)

    p_check = sub.add_parser("check", help="run the built-in cross-check suite")
    p_check.add_argument("--tol", help="relative tolerance (default ABMINK_TOL or 1e-6)")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
