"""Report emission against the per-cell rendering it replaced, and the CLI
parser kept across calls.

``emit`` renders a report whose rows are a finite float table block by
block, through a %-template or, for a block of many varying cells, the
format's vectorized kernel (%.16e, repr or %.6e), formatting each constant
column once;
``emit_per_cell`` below is the rendering it replaced, kept as the oracle
(for rows as lists of cells):
``json.dumps(..., indent=2, allow_nan=False)`` for JSON, ``format(v,
".16e")`` per float for CSV and ``f"{v:.6e}"`` per float, right-justified to
its column's widest cell, for the table.
"""

import dataclasses
import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmink import cli, emission, runner
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
    if fmt == "table":
        cells = [[f"{v:.6e}" if isinstance(v, float) else str(v) for v in row]
                 for row in report.rows]
        widths = [max(len(name), *(len(r[i]) for r in cells), 1)
                  if cells else len(name)
                  for i, name in enumerate(report.columns)]
        lines = [f"# scenario: {report.scenario}  (tag: {report.tag})",
                 f"# {report.provenance}"]
        lines.append("  ".join(name.ljust(w)
                               for name, w in zip(report.columns, widths)))
        for r in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        for key, val in report.residuals.items():
            lines.append(f"# residual {key} = {val:.6e}")
        for err in report.errors:
            lines.append(f"# error: {err}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format '{fmt}'")


def same_bytes_or_same_error(report, fmt, per_cell=None):
    """``emit(report)`` gives the bytes or the error of ``emit_per_cell`` of
    ``per_cell``, by default the report itself."""
    try:
        expected = emit_per_cell(per_cell or report, fmt)
    except (ValueError, IndexError) as exc:  # non-finite JSON; a ragged table
        with pytest.raises(type(exc)):
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


FORMATS = ["table", "csv", "json"]


@settings(max_examples=300, deadline=None)
@given(_reports(_finite, ragged=False), st.sampled_from(FORMATS))
def test_all_float_reports_render_as_per_cell(report, fmt):
    same_bytes_or_same_error(report, fmt)


@settings(max_examples=300, deadline=None)
@given(_reports(_any_float, ragged=False), st.sampled_from(FORMATS))
def test_non_finite_floats_render_or_fail_as_per_cell(report, fmt):
    same_bytes_or_same_error(report, fmt)


@settings(max_examples=300, deadline=None)
@given(_reports(_cell, ragged=True), st.sampled_from(FORMATS))
def test_mixed_and_ragged_reports_render_as_per_cell(report, fmt):
    same_bytes_or_same_error(report, fmt)


def test_empty_and_float_subclass_rows_render_as_per_cell():
    for columns, rows in [(["a"], []), ([], []), ([], [[]]), (["a", "b"], [[], []]),
                          (["a"], [[np.float64(0.1)], [0.1]]),
                          (["a", "b"], [[1e308, -0.0], [5e-324, "spacelike"]]),
                          ([], np.empty((0, 0))), (["a", "b"], np.empty((0, 2))),
                          (["a"], np.array([[1], [2]]))]:
        report = ScenarioReport(scenario="s", params={}, tag="both", sweep=None,
                                provenance="", columns=columns, rows=rows)
        for fmt in FORMATS:
            same_bytes_or_same_error(report, fmt, _per_cell_copy(report))


def _bits(rows):
    return [[struct.pack("<d", v) for v in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(_reports(_finite, ragged=False, min_columns=1))  # a row of no cells is an empty line
def test_csv_json_csv_round_trip_is_bit_exact(report):
    csv = emit(report, "csv")
    parsed = [[float(c) for c in line.split(",")]
              for line in csv.decode().splitlines()[1:]]
    assert _bits(parsed) == _bits(report.rows)
    report = dataclasses.replace(report, rows=parsed)
    through_json = json.loads(emit(report, "json"))["rows"]
    assert _bits(through_json) == _bits(parsed)
    report = dataclasses.replace(report, rows=through_json)
    assert emit(report, "csv") == csv


# ---------------------------------------------------------------------------
# float tables: constant columns formatted once, varying ones through %
# ---------------------------------------------------------------------------

_E100, _E99 = emission._E100, emission._E99
# where a cell's text changes length: sign, three-digit exponents, rounding
# up to the next decade, subnormals and the ends of the double range
_TABLE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, -1.7976931348623157e308, 9.9999996e99,
                -9.9999996e99, 9.9999995e99, 1e100, _E100, math.nextafter(_E100, 0.0),
                _E99, -_E99, math.nextafter(_E99, 0.0), 1e-99, 9.9999995e-100, 1e-100,
                9.9999996e-100, 1e16, 0.1, -1.0]
_table_float = st.one_of(st.sampled_from(_TABLE_EDGES),
                         st.floats(allow_nan=False, allow_infinity=False))


def _column(m: int):
    """m cells of one column: one value throughout, signed zeros, or any."""
    return st.one_of(
        _table_float.map(lambda v: [v] * m),
        st.lists(st.sampled_from([0.0, -0.0]), min_size=m, max_size=m),
        st.lists(_table_float, min_size=m, max_size=m))


@st.composite
def _table_reports(draw, max_rows: int = 8):
    m = draw(st.integers(1, max_rows))
    k = draw(st.integers(1, 5))
    table = np.array([draw(_column(m)) for _ in range(k)]).T.reshape(m, k)
    # names from one character to far wider than any cell
    columns = draw(st.lists(st.text("abcdefghij_%,\"", min_size=1, max_size=18),
                            min_size=k, max_size=k))
    residuals = draw(st.dictionaries(st.sampled_from(["r", "s"]), _table_float))
    errors = draw(st.lists(st.text(max_size=8), max_size=2))
    return ScenarioReport(
        scenario=draw(st.sampled_from(["drag", "rows", '"rows": []'])),
        params={"n": 1.5}, tag="both", sweep=None, provenance="p = 1 \"q\"",
        columns=columns, rows=table, residuals=residuals, errors=errors)


def _per_cell_copy(report: ScenarioReport) -> ScenarioReport:
    """The report with its rows as lists of cells, for ``emit_per_cell``."""
    if isinstance(report.rows, list):
        return report
    return dataclasses.replace(report, rows=report.rows.tolist())


@settings(max_examples=400, deadline=None)
@given(_table_reports(), st.sampled_from(FORMATS))
def test_float_tables_render_as_per_cell(report, fmt):
    assert isinstance(report.rows, np.ndarray)
    assert emit(report, fmt) == emit_per_cell(_per_cell_copy(report), fmt)


@settings(max_examples=100, deadline=None)
@given(_table_reports(max_rows=40), st.integers(1, 7), st.sampled_from(FORMATS))
def test_float_tables_render_the_same_in_any_block_size(report, block, fmt):
    expected = emit_per_cell(_per_cell_copy(report), fmt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emission, "_BLOCK_ROWS", block)
        assert emit(report, fmt) == expected


@settings(max_examples=100, deadline=None)
@given(_table_reports(max_rows=40), st.integers(1, 7), st.integers(1, 12),
       st.sampled_from(FORMATS))
def test_tables_render_the_same_through_the_kernels(report, block, cut_off, fmt):
    """With a small cell cut-off, blocks of either kind in one report."""
    expected = emit_per_cell(_per_cell_copy(report), fmt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emission, "_BLOCK_ROWS", block)
        mp.setitem(emission._KERNEL_CELLS, fmt, cut_off)
        assert emit(report, fmt) == expected


def _one_row_paths(report, fmt):
    """The bytes of the float-table path and of the cell path for a one-row
    report, which must be equal, and those of emit, which takes the cell path."""
    assert report.rows.shape[0] == 1
    cells = emission._emit_cells(report, report.rows.tolist(), fmt)
    assert emission._emit_table(report, report.rows, fmt) == cells
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emission, "_emit_table", None)  # emit must not reach it
        assert emit(report, fmt) == cells


@settings(max_examples=300, deadline=None)
@given(_table_reports(max_rows=1), st.sampled_from(FORMATS))
def test_one_row_tables_render_the_same_through_either_path(report, fmt):
    _one_row_paths(report, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("config", [
    "scenario = wgm\na_m = 100e-6\nP0_W = 100\nomega0_rad_per_s = 1000\nt_s = 1e-3\n",
    "scenario = mirror\nn = 1.33\nE0_V_per_m = 1e3\nomega_rad_per_s = 3e15\n"
    "sigma_S_per_m = 5e7\n"])
def test_one_row_reports_render_the_same_through_either_path(config, fmt):
    _one_row_paths(runner.run(runner.parse_config(config)), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_signed_zeros_keep_a_column_varying(fmt):
    table = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
    report = ScenarioReport(scenario="s", params={}, tag="both", sweep=None,
                            provenance="", columns=["z", "one"], rows=table)
    assert emit(report, fmt) == emit_per_cell(_per_cell_copy(report), fmt)
    assert b"-0.0" in emit(report, fmt)


# each format's kernel: %.16e for CSV, repr for JSON, %{w}.6e for the table
KERNELS = {"csv": "_e16", "json": "_repr", "table": "_e6"}


@pytest.fixture(params=FORMATS)
def fmt(request):
    return request.param


@pytest.fixture
def kernel_calls(monkeypatch, fmt):
    """The sizes of the arrays emit hands to the format's kernel."""
    calls, kernel = [], getattr(emission, KERNELS[fmt])

    def counted(x, *width):
        calls.append(len(x))
        return kernel(x, *width)

    monkeypatch.setattr(emission, KERNELS[fmt], counted)
    return calls


def _as_per_cell(table: np.ndarray, fmt: str, columns=None) -> None:
    report = ScenarioReport(scenario="s", params={}, tag="both", sweep=None, provenance="",
                            columns=columns or [f"c{j}" for j in range(table.shape[1])],
                            rows=table)
    assert emit(report, fmt) == emit_per_cell(_per_cell_copy(report), fmt)


def _spread(rng, m: int) -> np.ndarray:
    """m values of either sign over the whole exponent range."""
    return rng.normal(size=m) * 10.0 ** rng.integers(-320, 300, m)


@pytest.mark.parametrize("below", [1, 0])
def test_cell_cut_off(below, fmt, kernel_calls):
    cells = emission._KERNEL_CELLS[fmt] - below
    rng = np.random.default_rng(cells)
    # one varying column between constant ones: cells rows
    _as_per_cell(np.column_stack([np.full(cells, 1.5), _spread(rng, cells),
                                  np.full(cells, -0.0)]), fmt)
    assert kernel_calls == ([cells] if cells >= emission._KERNEL_CELLS[fmt] else [])


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
def test_blocks_at_the_block_edges(rows, fmt, kernel_calls):
    rng = np.random.default_rng(rows)
    table = np.column_stack([_spread(rng, rows), np.full(rows, 2.5e-7),
                             _spread(rng, rows), np.linspace(1.0, 1.6, rows)])
    _as_per_cell(table, fmt)
    blocks = [min(emission._BLOCK_ROWS, rows - start)
              for start in range(0, rows, emission._BLOCK_ROWS)]
    # a last block of one row has 3 varying cells: it goes through %
    assert kernel_calls == [3 * b for b in blocks if 3 * b >= emission._KERNEL_CELLS[fmt]]


def test_constant_columns_splice_into_kernel_blocks(fmt, kernel_calls):
    rows = 2 * emission._KERNEL_CELLS[fmt]
    rng = np.random.default_rng(7)
    _as_per_cell(np.column_stack([np.full(rows, -0.0), _spread(rng, rows),
                                  np.full(rows, 0.0), np.full(rows, -1.7976931348623157e308),
                                  np.full(rows, 5e-324)]), fmt)
    assert kernel_calls == [rows]
    for value in (-0.0, 1e-300, -1e300):  # all columns constant: nothing varies
        _as_per_cell(np.full((2049, 3), value), fmt)
    assert kernel_calls == [rows]


def test_signed_zero_columns_go_through_the_kernels(fmt, kernel_calls):
    rows = emission._KERNEL_CELLS[fmt]
    zeros = np.where(np.arange(rows) % 3 == 0, -0.0, 0.0)
    _as_per_cell(np.column_stack([zeros, np.full(rows, 1.0), zeros[::-1]]), fmt)
    assert kernel_calls == [2 * rows]


@pytest.mark.parametrize("fmt", ["table"])
@pytest.mark.parametrize("widest", [12, 13, 14])
@pytest.mark.parametrize("name", ["v", "a_name_of_twenty_one"])
def test_table_columns_right_justify_through_the_kernel(fmt, widest, name, kernel_calls):
    """A varying column whose widest %.6e cell has 12, 13 or 14 characters
    (a sign, a three-digit exponent, or both), under a short or a long name:
    each cell is padded to the column's width."""
    rows = emission._KERNEL_CELLS[fmt]
    values = np.random.default_rng(widest).uniform(1.0, 9.0, rows)
    if widest >= 13:
        values[::2] *= -1.0
    if widest == 14:
        values[1::3] *= 1e-150
    assert emission._widest(values[:, None]) == [widest]
    _as_per_cell(np.column_stack([values, np.linspace(0.0, 1.0, rows)]), "table", [name, "x"])
    assert kernel_calls == [2 * rows]


# cells each kernel hands back to %: exact decimal ties of its rounding; for
# repr also powers of two, a digit string on the rounding bound (2**54 + 4)
# and a subnormal
TIES = {"csv": [1e15 + 0.25, 1e15 + 0.75, 3e14 + 0.375, 1e14 + 0.125, 1e13 + 0.0625],
        "table": [1234567.5, 12345675.0, 1500000.5, 10000005.0, 1e8 + 50.0],
        "json": [2.0 ** 60, 2.0 ** -20, 2.0 ** 54 + 4.0, 1e23, 5e-324]}


def test_kernel_block_with_signs_exponents_and_ties(fmt, kernel_calls):
    rng = np.random.default_rng(19)
    ties = TIES[fmt]
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-100, -1e100,
             1.7976931348623157e308, -9.999999999999999e99, 1e23, 1e16, 1e17]
    values = np.concatenate([ties, np.negative(ties), edges,
                             _spread(rng, 1200 - 2 * len(ties) - len(edges))])
    _as_per_cell(rng.permutation(values).reshape(300, 4), fmt)
    assert kernel_calls == [1200]


def test_three_digit_exponent_thresholds():
    assert "%.6e" % _E100 == "1.000000e+100"
    assert "%.6e" % math.nextafter(_E100, 0.0) == "9.999999e+99"
    assert "%.6e" % _E99 == "1.000000e-99"
    assert "%.6e" % math.nextafter(_E99, 0.0) == "9.999999e-100"
    assert "%.6e" % 9.9999996e99 == "1.000000e+100"


def test_a_table_with_rows_that_are_not_finite_is_kept_as_rows():
    table = np.array([[1.0, math.nan], [2.0, 3.0]])
    report = ScenarioReport(scenario="s", params={}, tag="both", sweep=None,
                            provenance="", columns=["a", "b"], rows=table)
    assert report.rows is table  # as given; emit renders it cell by cell
    for fmt in FORMATS:
        same_bytes_or_same_error(report, fmt, _per_cell_copy(report))
    with pytest.raises(ValueError):
        emit(report, "json")


def _fiber_sweep():
    return runner.run(runner.parse_config(
        "scenario = fiber\nn = 1.5\nsweep = pulse_energy_J:[0, 1e-3, 5]\n"))


def test_rows_are_a_read_only_table_of_python_floats():
    report = _fiber_sweep()
    assert report.rows.dtype == np.float64 and report.rows.shape == (5, 3)
    assert not report.rows.flags.writeable
    rows = report.rows.tolist()
    assert {type(v) for row in rows for v in row} == {float}
    assert emit(report, "csv") == emit_per_cell(_per_cell_copy(report), "csv")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("change", [
    lambda rows: rows[0].__setitem__(0, -0.0),  # equal to the 0.0 there
    lambda rows: rows[0].__setitem__(2, 0),  # equal too, but an int
    lambda rows: rows[1].__setitem__(1, 2.0),
    lambda rows: rows.append([1.0, 2.0, 3.0]),
    lambda rows: rows.__setitem__(slice(None), [[-0.0, 1.5, 0.0]]),
])
def test_rows_changed_in_a_derived_report_are_emitted(change, fmt):
    report = _fiber_sweep()
    before = emit(report, fmt)
    rows = report.rows.tolist()
    change(rows)
    edited = dataclasses.replace(report, rows=rows)
    assert emit(edited, fmt) == emit_per_cell(edited, fmt)
    assert emit(report, fmt) == before  # the report itself is unchanged


def test_rows_cannot_be_set_and_a_derived_report_sets_them():
    report = _fiber_sweep()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.rows = [[0.0, 1.5, 0.0]]
    edited = dataclasses.replace(report, rows=[[0.0, 1.5, 0.0]])
    assert emit(edited, "csv") == emit_per_cell(edited, "csv")
    table = report.rows.copy()
    table[1, 1] = 2.0  # a writable copy, still a float table
    edited = dataclasses.replace(report, rows=table)
    for fmt in FORMATS:
        assert emit(edited, fmt) == emit_per_cell(_per_cell_copy(edited), fmt)


def test_non_finite_cell_put_in_a_copy_of_the_rows_fails_json():
    report = _fiber_sweep()
    with pytest.raises(ValueError):  # run's rows are read-only
        report.rows[2, 2] = math.nan
    table = report.rows.copy()
    table[2, 2] = math.nan
    edited = dataclasses.replace(report, rows=table)
    with pytest.raises(ValueError):
        emit(edited, "json")
    assert b"nan" in emit(edited, "csv") and b"nan" in emit(edited, "table")


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


def test_the_parser_is_built_on_first_use_and_kept(tmp_path):
    config = tmp_path / "fiber.cfg"
    config.write_text(FIBER_CFG)
    out = tmp_path / "report.csv"
    plain_run = f"c.main(['run', {str(config)!r}, '--format', 'csv', '--out', {str(out)!r}])"
    for code in ("", plain_run):
        fresh = subprocess.run(
            [sys.executable, "-c", f"import abmink.cli as c; {code}\n"
             "print(c._parser.cache_info().currsize)"],
            capture_output=True, text=True, check=True)
        # neither importing nor a plainly spelled run builds it
        assert fresh.stdout == "0\n"
    assert out.read_bytes().startswith(b"pulse_energy_J,")
    assert cli._parser() is cli._parser()
