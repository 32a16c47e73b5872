"""Report emission against the per-cell rendering it replaced, and the CLI
parser kept across calls.

``emit`` renders the rows of an all-float report through one %-template;
``emit_per_cell`` below is the rendering it replaced, kept as the oracle:
``json.dumps(..., indent=2, allow_nan=False)`` for JSON and
``format(v, ".16e")`` per float for CSV.
"""

import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmink import cli
from abmink.runner import ScenarioReport, emit


def emit_per_cell(report: ScenarioReport, fmt: str) -> bytes:
    if fmt == "json":
        payload = {
            "scenario": report.scenario,
            "params": report.params,
            "tag": report.tag,
            "sweep": report.sweep,
            "provenance": report.provenance,
            "columns": report.columns,
            "rows": report.rows,
            "residuals": report.residuals,
            "errors": report.errors,
        }
        return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()
    if fmt == "csv":
        lines = [",".join(report.columns)]
        for row in report.rows:
            lines.append(",".join(
                format(v, ".16e") if isinstance(v, float) else str(v) for v in row))
        return ("\n".join(lines) + "\n").encode()
    return emit(report, fmt)  # the table rendering did not change


def same_bytes_or_same_error(report, fmt):
    try:
        expected = emit_per_cell(report, fmt)
    except ValueError:
        with pytest.raises(ValueError):
            emit(report, fmt)
        return
    assert emit(report, fmt) == expected


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e308, -1.7976931348623157e308, 1e16, 1e-5, 0.1]
_finite = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))
_any_float = st.one_of(_finite, st.sampled_from([math.inf, -math.inf, math.nan]))
_cell = st.one_of(_any_float, _finite.map(np.float64), st.integers(-10**20, 10**20),
                  st.booleans(), st.text(max_size=6))
_names = st.text("abcdefghij_%,\"", min_size=1, max_size=8)


def _reports(cell, ragged: bool, min_columns: int = 0):
    def build(args):
        columns, rows, scenario, errors = args
        return ScenarioReport(scenario=scenario, params={"n": 1.5}, tag="both",
                              sweep=None, provenance="p = 1 \"q\"\n",
                              columns=columns, rows=rows,
                              residuals={"r": 1e-16}, errors=errors)

    def with_rows(columns):
        width = st.integers(0, len(columns) + 1) if ragged else st.just(len(columns))
        row = width.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k))
        return st.tuples(st.just(columns), st.lists(row, max_size=6),
                         st.sampled_from(["drag", "rows", '"rows": []']),
                         st.lists(st.text(max_size=8), max_size=2))

    return st.lists(_names, min_size=min_columns, max_size=5).flatmap(with_rows).map(build)


@settings(max_examples=300, deadline=None)
@given(_reports(_finite, ragged=False), st.sampled_from(["csv", "json"]))
def test_all_float_reports_render_as_per_cell(report, fmt):
    same_bytes_or_same_error(report, fmt)


@settings(max_examples=300, deadline=None)
@given(_reports(_any_float, ragged=False), st.sampled_from(["csv", "json"]))
def test_non_finite_floats_render_or_fail_as_per_cell(report, fmt):
    same_bytes_or_same_error(report, fmt)


@settings(max_examples=300, deadline=None)
@given(_reports(_cell, ragged=True), st.sampled_from(["csv", "json"]))
def test_mixed_and_ragged_reports_render_as_per_cell(report, fmt):
    same_bytes_or_same_error(report, fmt)


def test_empty_and_float_subclass_rows_render_as_per_cell():
    for columns, rows in [(["a"], []), ([], []), ([], [[]]), (["a", "b"], [[], []]),
                          (["a"], [[np.float64(0.1)], [0.1]]),
                          (["a", "b"], [[1e308, -0.0], [5e-324, "spacelike"]])]:
        report = ScenarioReport(scenario="s", params={}, tag="both", sweep=None,
                                provenance="", columns=columns, rows=rows)
        for fmt in ("csv", "json"):
            same_bytes_or_same_error(report, fmt)


def _bits(rows):
    return [[struct.pack("<d", v) for v in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(_reports(_finite, ragged=False, min_columns=1))  # a row of no cells is an empty line
def test_csv_json_csv_round_trip_is_bit_exact(report):
    csv = emit(report, "csv")
    parsed = [[float(c) for c in line.split(",")]
              for line in csv.decode().splitlines()[1:]]
    assert _bits(parsed) == _bits(report.rows)
    report.rows = parsed
    through_json = json.loads(emit(report, "json"))["rows"]
    assert _bits(through_json) == _bits(parsed)
    report.rows = through_json
    assert emit(report, "csv") == csv


# ---------------------------------------------------------------------------
# the CLI parser is built once and reused
# ---------------------------------------------------------------------------

FIBER_CFG = "scenario = fiber\npulse_energy_J = 2.7e-3\nn = 1.5\n"


def test_successive_runs_leak_no_options(tmp_path, capsysbinary):
    config = tmp_path / "fiber.cfg"
    config.write_text(FIBER_CFG)
    out = tmp_path / "report.json"
    assert cli.main(["run", str(config), "--format", "json", "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert cli.main(["run", str(config)]) == 0
    table = capsysbinary.readouterr().out
    assert table.startswith(b"# scenario: fiber")  # stdout, and the default format
    assert json.loads(out.read_bytes())["scenario"] == "fiber"


def test_successive_checks_leak_no_tolerance(monkeypatch, capsys):
    monkeypatch.delenv("ABMINK_TOL", raising=False)
    assert cli.main(["check", "--tol", "1e-3"]) == 0
    assert "(bound 1.000e-03)" in capsys.readouterr().out
    assert cli.main(["check"]) == 0
    assert "(bound 1.000e-06)" in capsys.readouterr().out  # the default
    monkeypatch.setenv("ABMINK_TOL", "1e-18")
    assert cli.main(["check"]) == 1
    assert "(bound 1.000e-18)" in capsys.readouterr().out


def test_the_parser_is_built_on_first_use_and_kept():
    fresh = subprocess.run(
        [sys.executable, "-c", "import abmink.cli as c; "
         "print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True)
    assert fresh.stdout == "0\n"  # importing does not build it
    assert cli._parser() is cli._parser()
