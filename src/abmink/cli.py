"""Command line entry point.

    abmink run <config> [--format table|csv|json] [--out PATH]
    abmink list
    abmink check [--tol X] [--format text|json]

A plainly spelled command line is matched directly; argparse parses every
other spelling, with the same help and errors.

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

import functools
import os
import sys
from types import SimpleNamespace

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
        with open(args.config, "rb") as f:
            text = f.read().decode("utf-8")
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
            with open(args.out, "wb") as f:
                f.write(payload)
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
        import json  # here alone: a text report never loads it
        checks = [{"name": r.name, "residual": r.residual, "bound": r.bound,
                   "passed": r.passed} for r in results]
        print(json.dumps({"checks": checks}, allow_nan=False))
    else:
        print("\n".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
                        f"residual {r.residual:.3e} (bound {r.bound:.3e})" for r in results))
    return 0 if all(r.passed for r in results) else 1


# command -> handler, help, arguments (name, choices, default, help): read by both parsers
_COMMANDS = {
    "run": (_cmd_run, "evaluate a scenario config file",
            ("config", None, None, "path to a key = value config document"),
            ("--format", ("table", "csv", "json"), "table", None),
            ("--out", None, None, "write the report here instead of stdout")),
    "list": (_cmd_list, "list the scenario names"),
    "check": (_cmd_check, "run the built-in cross-check suite",
              ("--tol", None, None, "relative tolerance (default ABMINK_TOL or 1e-6)"),
              ("--format", ("text", "json"), "text", None)),
}


@functools.cache
def _parser():
    """The argument parser, built on first use and kept: parse_args returns
    a fresh namespace each call, so no option carries over."""
    import argparse  # here alone: a plainly spelled command line never loads it
    parser = argparse.ArgumentParser(
        prog="abmink",
        description=("Abraham/Minkowski electromagnetic momentum toolkit: "
                     "scenario runner and cross-checks."))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, about, *arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for name, choices, default, about in arguments:
            p.add_argument(name, choices=choices, default=default, help=about)
        p.set_defaults(fn=fn)
    return parser


def _plain(argv):
    """parse_args' namespace for a plain argv (the positionals, then exact flags,
    each with a value that does not begin with '-'); None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, *arguments = _COMMANDS[argv[0]]
    args, choices, words = {"command": argv[0], "fn": fn}, {}, list(argv[1:])
    for name, allowed, default, _ in arguments:
        if name.startswith("--"):
            args[name[2:]], choices[name] = default, allowed
        elif words and not words[0].startswith("-"):
            args[name] = words.pop(0)
        else:
            return None
    if len(words) % 2:
        return None
    for flag, value in zip(words[::2], words[1::2]):  # a repeated flag keeps its last value
        if (flag not in choices or value.startswith("-")
                or choices[flag] and value not in choices[flag]):
            return None
        args[flag[2:]] = value
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    args = _plain(sys.argv[1:] if argv is None else argv) or _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
