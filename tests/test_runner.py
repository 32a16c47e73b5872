"""Tests for config parsing, scenario dispatch and report emission."""

import collections
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from abmink import (SI, FieldPoint, Medium, MomentumTag, RegimeError, covariant,
                    runner, scenarios)
from abmink.runner import (
    MAX_SWEEP_COUNT,
    SCENARIO_NAMES,
    ConfigError,
    check_suite,
    emit,
    parse_config,
    run,
)

MIRROR_CFG = """
# immersed mirror, both tags
scenario = mirror
n = 1.33
E0_V_per_m = 1.0e3
omega_rad_per_s = 3.0e15
sigma_S_per_m = 5.0e7
"""
# a swept key may not also be set
MIRROR_SWEEPS_N = MIRROR_CFG.replace("n = 1.33\n", "")

WGM_CFG = """
scenario = wgm
a_m = 100e-6
P0_W = 100
omega0_rad_per_s = 1000
"""

SPHERE_CFG = """
scenario = sphere-kick
M_kg = 1.0e-10
a_m = 25e-6
deltaG_kg_m_per_s = 8.1e-12
pulse_energy_J = 5.9e-6
n = 1.33
viscosity_Pa_s = 1.0e-3
L0_m = 300e-6
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_mirror_defaults_to_both_tags():
    req = parse_config(MIRROR_CFG)
    assert req.scenario == "mirror"
    assert req.tag is None
    assert req.sweep is None
    assert req.params["n"] == 1.33
    assert req.params["guard_k_over_alpha"] == 0.2  # default applied


def test_parse_wgm_applies_index_default():
    req = parse_config(WGM_CFG)
    assert req.params["n"] == 1.45


def test_parse_sweep():
    req = parse_config(MIRROR_SWEEPS_N + "sweep = n:[1.0, 1.6, 13]\n")
    assert req.sweep.param == "n"
    assert req.sweep.count == 13
    assert (req.sweep.lo, req.sweep.hi) == (1.0, 1.6)


def test_parse_tag():
    req = parse_config(WGM_CFG + "tag = abraham\n")
    assert req.tag is MomentumTag.ABRAHAM
    assert parse_config(WGM_CFG + "tag = both\n").tag is None


@pytest.mark.parametrize("snippet, needle", [
    ("scenario = torque\n", "unknown scenario"),
    ("scenario = wgm\na_m = 1e-4\nP0_W = 1\n", "omega0_rad_per_s"),
    ("scenario = wgm\na_m = 1e-4\nP0_W = 1\nomega0_rad_per_s = abc\n",
     "omega0_rad_per_s"),
    (WGM_CFG + "P0_mW = 1\n", "P0_mW"),
    (WGM_CFG + "sweep = n:[1.0,1.6]\n", "sweep"),
    (WGM_CFG + "sweep = q:[1,2,5]\n", "'q'"),
    (WGM_CFG + "sweep = n:[1.0,1.6,1]\n", ">= 2"),
    (WGM_CFG + "tag = einstein\n", "tag"),
    (WGM_CFG + "P0_W = 5\n", "duplicate"),
    ("scenario = covariant-checks\nsweep = n:[1.0,1.6,5]\n",
     "does not support sweeps"),
    (MIRROR_CFG.replace("n = 1.33", "n = nan"), "'n' must be finite"),
    ("scenario = interface\nE_t_V_per_m = inf\nn_from = 1\nn_to = 1.33\n",
     "'E_t_V_per_m' must be finite"),
    (MIRROR_CFG + "sweep = n:[1, nan, 5]\n", "'sweep hi' must be finite"),
    (MIRROR_CFG + "sweep = n:[-inf, 1, 5]\n", "'sweep lo' must be finite"),
    # the mirror's Lorentz route is closed: it has no quadrature tolerance
    (MIRROR_CFG + "quadrature_tol = 1e-8\n", "^unknown key 'quadrature_tol'"),
    (MIRROR_CFG + "quadrature_tol = 0\n", "^unknown key 'quadrature_tol'"),
    (MIRROR_CFG + "quadrature_tol = -1e-8\n", "^unknown key 'quadrature_tol'"),
    (MIRROR_CFG + "guard_k_over_alpha = 0\n", "'guard_k_over_alpha' must be > 0"),
    (MIRROR_CFG + "guard_k_over_alpha = inf\n", "'guard_k_over_alpha' must be finite"),
    (MIRROR_CFG + "sweep = guard_k_over_alpha:[-0.1, 0.2, 4]\n",
     "'guard_k_over_alpha' must be > 0"),
    (MIRROR_CFG + "sweep = n:[1,2,2.7]\n", "sweep count"),
    (MIRROR_CFG + "sweep = n:[1,2,1e3]\n", "sweep count"),
    (MIRROR_CFG + "sweep = n:[1,2,100001]\n", "sweep count"),
    ("scenario = fiber\npulse_energy_J = 1e-3\nn = 0.5\n", "'n' must be >= 1"),
    ("scenario = bec\nn = -2\nomega_rad_per_s = 3e15\n", "'n' must be >= 1"),
    ("scenario = interface\nE_t_V_per_m = 1\nn_from = 0.9\nn_to = 1.3\n",
     "'n_from' must be >= 1"),
    ("scenario = interface\nE_t_V_per_m = 1\nn_from = 1\nn_to = 0\n",
     "'n_to' must be >= 1"),
    (SPHERE_CFG + "n0 = 0.99\n", "'n0' must be >= 1"),
    (MIRROR_SWEEPS_N + "sweep = n:[0.5, 3.0, 11]\n", "'n' must be >= 1, got 0.5"),
    ("scenario = fiber\npulse_energy_J = 1e-3\nsweep = n:[1.5, 0.8, 4]\n",
     "'n' must be >= 1, got 0.8"),
    ("scenario = wgm\na_m = 1e-4\nP0_W = 1\nomega0_rad_per_s = 1e3\nn = 0.7\n",
     "'n' must be >= 1"),
    ("scenario = covariant-checks\nmu_r = 0\n", "'mu_r' must be > 0, got 0.0"),
    ("scenario = covariant-checks\nmu_r = -1\n", "'mu_r' must be > 0, got -1.0"),
    ("scenario = covariant-checks\ngrid_step = 0\n", "'grid_step' must be > 0"),
    ("scenario = covariant-checks\ngrid_step = -1e-3\n", "'grid_step' must be > 0"),
    # a span beyond the double range would make linspace give nan and inf
    ("scenario = drag\nsigma_a_m2 = 1e-19\nomega_rad_per_s = 1.6e13\nn = 3.5\n"
     "sweep = intensity_W_per_m2:[-1.7e308, 1.7e308, 5]\n", "sweep span"),
    (SPHERE_CFG.replace("viscosity_Pa_s = 1.0e-3\n", "")
     + "sweep = viscosity_Pa_s:[-1.7e308, 1.7e308, 5]\n", "sweep span"),
])
def test_parse_errors_name_the_offender(snippet, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(snippet)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_every_key_rejects_a_non_finite_value(scenario, raw):
    record = runner._SCENARIOS[scenario]
    for key in record.keys:
        with pytest.raises(ConfigError, match=f"value for '{key}' must be finite"):
            parse_config(f"scenario = {scenario}\n{key} = {raw}\n")
        if record.sweepable:
            for end, span in (("lo", f"{raw}, 1"), ("hi", f"1, {raw}")):
                with pytest.raises(ConfigError,
                                   match=f"value for 'sweep {end}' must be finite"):
                    parse_config(f"scenario = {scenario}\nsweep = {key}:[{span}, 3]\n")


# float() also reads these: 1_5 as 15, and digits of other scripts
PYTHON_ONLY_NUMBERS = ["1_5", "1_0.5", "1e1_0", "\u0661.5", "\uff11.\uff15", "1.5\u0663"]


@pytest.mark.parametrize("raw", PYTHON_ONLY_NUMBERS)
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_every_key_rejects_a_python_only_spelling(scenario, raw):
    record = runner._SCENARIOS[scenario]
    message = re.escape(f"is not a number: {raw!r}")
    for key in record.keys:
        with pytest.raises(ConfigError, match=f"^value for '{key}' {message}$"):
            parse_config(f"scenario = {scenario}\n{key} = {raw}\n")
        if record.sweepable:
            for end, span in (("lo", f"{raw}, 1"), ("hi", f"1, {raw}")):
                with pytest.raises(ConfigError, match=f"^value for 'sweep {end}' {message}$"):
                    parse_config(f"scenario = {scenario}\nsweep = {key}:[{span}, 3]\n")


@pytest.mark.parametrize("raw", ["15", "1.5", "+1.5", ".5e1", "1E1", "1.5e+00", " 1.5  "])
def test_plain_ascii_numbers_still_parse(raw):
    req = parse_config(f"scenario = bec\nn = {raw}\nomega_rad_per_s = 1e15\n")
    assert req.params["n"] == float(raw)


def test_a_leading_byte_order_mark_is_dropped():
    bec = "scenario = bec\nn = 1.5\nomega_rad_per_s = 1e15\n"
    assert parse_config("\ufeff" + bec) == parse_config(bec)
    assert parse_config("\ufeff" + MIRROR_CFG) == parse_config(MIRROR_CFG)
    # one mark, at the start of the document: any other is part of a key
    with pytest.raises(ConfigError, match="missing required key 'scenario'"):
        parse_config("\ufeff\ufeff" + bec)
    with pytest.raises(ConfigError, match="unknown key '\ufeffn'"):
        parse_config(bec.replace("n = 1.5", "\ufeffn = 1.5"))


def test_parse_sweep_count_up_to_the_bound():
    req = parse_config(MIRROR_SWEEPS_N + f"sweep = n:[1, 2, {MAX_SWEEP_COUNT}]\n")
    assert req.sweep.count == MAX_SWEEP_COUNT


def test_parse_missing_P0_names_the_key():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = wgm\na_m = 1e-4\nomega0_rad_per_s = 1e3\n")
    assert "P0" in str(err.value)


# per sweepable scenario, a config in regime whose defaulted keys are unset
_IN_REGIME = {
    "mirror": MIRROR_CFG,
    "drag": ("scenario = drag\nintensity_W_per_m2 = 1e4\nsigma_a_m2 = 1e-19\n"
             "omega_rad_per_s = 1.6e13\nn = 3.5\n"),
    "wgm": WGM_CFG,
    "sphere-kick": SPHERE_CFG,
    "fiber": "scenario = fiber\npulse_energy_J = 2.7e-3\nn = 1.5\n",
    "bec": "scenario = bec\nn = 1.33\nomega_rad_per_s = 3e15\n",
    "interface": "scenario = interface\nE_t_V_per_m = 1e4\nn_from = 1.2\nn_to = 1.5\n",
}


@pytest.mark.parametrize("scenario", [name for name in SCENARIO_NAMES
                                      if runner._SCENARIOS[name].sweepable])
def test_a_key_both_set_and_swept_is_rejected(scenario):
    text = _IN_REGIME[scenario]
    point = run(parse_config(text))
    assert list(point.params) == list(runner._SCENARIOS[scenario].keys)
    for key, value in point.params.items():  # defaults included
        unset = "".join(line for line in text.splitlines(keepends=True)
                        if not line.startswith(key + " "))
        sweep = f"sweep = {key}:[{value!r}, {value!r}, 2]\n"
        with pytest.raises(ConfigError, match=f"^'{key}' is both set and swept"):
            parse_config(f"{unset}{key} = {value!r}\n{sweep}")
        report = run(parse_config(unset + sweep))
        assert key not in report.params and report.errors == []
        assert report.rows.tolist() == 2 * point.rows.tolist()


def test_sweep_parameter_may_be_omitted_from_params():
    text = """
scenario = fiber
pulse_energy_J = 2.7e-3
sweep = n:[1.0, 1.6, 7]
"""
    report = run(parse_config(text))
    assert len(report.rows) == 7
    n_col = report.columns.index("n")
    assert [row[n_col] for row in report.rows] == pytest.approx(
        [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6])


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def test_run_is_deterministic():
    req = parse_config(MIRROR_CFG)
    a = emit(run(req), "json")
    b = emit(run(req), "json")
    assert a == b


def test_run_wgm_reports_amplitude():
    report = run(parse_config(WGM_CFG))
    idx = report.columns.index("amplitude_abraham_N_m")
    assert report.rows[0][idx] == pytest.approx(7.7076e-20, rel=1e-4)
    idx_m = report.columns.index("amplitude_minkowski_N_m")
    assert report.rows[0][idx_m] == 0.0


def test_run_sphere_kick_reports_correction():
    text = """
scenario = sphere-kick
M_kg = 1.0e-10
a_m = 25e-6
deltaG_kg_m_per_s = 8.1e-12
pulse_energy_J = 5.9e-6
n = 1.33
viscosity_Pa_s = 1.0e-3
L0_m = 300e-6
"""
    report = run(parse_config(text))
    idx = report.columns.index("correction_magnitude")
    assert report.rows[0][idx] == pytest.approx(7.7339e-3, rel=1e-4)


def test_run_fiber():
    report = run(parse_config("scenario = fiber\npulse_energy_J = 2.7e-3\nn = 1.5\n"))
    idx = report.columns.index("impulse_N_s")
    assert report.rows[0][idx] == pytest.approx(4.5e-12, rel=1e-2)


def test_run_mirror_includes_three_routes_and_residual():
    report = run(parse_config(MIRROR_CFG))
    for col in ("pressure_flux_Pa", "pressure_lorentz_Pa",
                "pressure_divergence_Pa"):
        assert col in report.columns
    assert report.residuals["three_way_max_rel_diff"] <= 1e-9


_JSON_FIELDS = ["scenario", "params", "tag", "sweep", "provenance", "columns",
                "rows", "residuals", "errors"]


@pytest.mark.parametrize("text", [
    MIRROR_SWEEPS_N + "sweep = n:[1.0,1.6,5]\n",
    "scenario = fiber\npulse_energy_J = 2.7e-3\nn = 1.5\n",
    "scenario = covariant-checks\n",
])
def test_the_report_is_frozen(text):
    report = run(parse_config(text))
    for name in _JSON_FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, getattr(report, name))
    assert list(vars(report)) == _JSON_FIELDS
    assert list(json.loads(emit(report, "json"))) == _JSON_FIELDS
    if report.scenario == "covariant-checks":  # cells of words and floats
        assert isinstance(report.rows, list)
        return
    assert report.rows.dtype == np.float64
    assert report.rows.shape == (len(report.rows), len(report.columns))
    with pytest.raises(ValueError):
        report.rows[0, 0] = 2.0
    edited = dataclasses.replace(report, errors=["edited"])
    assert edited.rows is report.rows and report.errors == []


@pytest.mark.parametrize("text", [
    MIRROR_SWEEPS_N + "sweep = n:[1.0,1.6,5]\n",
    "scenario = fiber\npulse_energy_J = 2.7e-3\nn = 1.5\n",
    "scenario = covariant-checks\n",  # lists of cells
    MIRROR_CFG.replace("sigma_S_per_m = 5.0e7", "sigma_S_per_m = 1.0e5"),  # no row
])
def test_reports_are_equal_field_by_field(text):
    report = run(parse_config(text))
    assert (report == run(parse_config(text))) is True
    copy = dataclasses.replace(report, rows=report.rows.copy())
    assert copy == report and not copy != report
    assert report != dataclasses.replace(report, errors=[*report.errors, "edited"])
    assert report != dataclasses.replace(report, params={})
    if len(report.rows):
        assert report != dataclasses.replace(report, rows=report.rows[:-1])
    assert report != text


@pytest.mark.parametrize("text", [
    MIRROR_CFG.replace("sigma_S_per_m = 5.0e7", "sigma_S_per_m = 1.0e5"),
    MIRROR_CFG.replace("E0_V_per_m = 1.0e3", "E0_V_per_m = 1e200"),
    "scenario = bec\nn = 1.33\nsweep = omega_rad_per_s:[-3e15, -1e15, 4]\n",
    "scenario = interface\nn_from = 1\nn_to = 1.33\n"
    "sweep = E_t_V_per_m:[1e160, 1e170, 3]\n",
])
def test_a_report_without_rows_has_no_columns(text):
    report = run(parse_config(text))
    assert report.errors and report.columns == []
    assert report.rows.shape == (0, 0) and not report.rows.flags.writeable
    for fmt in ("table", "csv", "json"):
        assert emit(report, fmt) == emit(dataclasses.replace(report, rows=[]), fmt)


def test_a_sweep_with_no_rejected_point_keeps_the_evaluated_table(monkeypatch):
    tables, non_finite = [], runner._non_finite

    def recording(table, names):
        tables.append((table, non_finite(table, names)))
        return tables[-1][1]

    monkeypatch.setattr(runner, "_non_finite", recording)
    report = run(parse_config(MIRROR_SWEEPS_N + "sweep = n:[1.0,1.6,5]\n"))
    assert report.errors == [] and report.rows is tables[0][0]
    # the points the rules reject are dropped before the finiteness check
    report = run(parse_config(MIRROR_SWEEPS_N + "sweep = n:[1.0,8.0,5]\n"))
    table, bad = tables[1]
    assert report.errors and bad == {} and report.rows is table
    assert len(table) == 5 - len(report.errors)


def test_run_tag_filters_columns():
    report = run(parse_config(WGM_CFG + "tag = minkowski\n"))
    assert "torque_minkowski_N_m" in report.columns
    assert "torque_abraham_N_m" not in report.columns


def test_run_out_of_regime_point_reports_bound():
    text = MIRROR_CFG.replace("sigma_S_per_m = 5.0e7",
                              "sigma_S_per_m = 1.0e5")
    report = run(parse_config(text))
    assert report.rows.tolist() == []
    assert len(report.errors) == 1
    assert "k/alpha" in report.errors[0]      # the violated bound ...
    assert "0.2" in report.errors[0]          # ... its value ...
    assert "got" in report.errors[0]          # ... and the supplied value


def test_run_sweep_collects_valid_points_and_errors():
    text = (MIRROR_CFG.replace("sigma_S_per_m = 5.0e7\n", "")
            + "sweep = sigma_S_per_m:[1.0e5, 1.0e8, 4]\n")
    report = run(parse_config(text))
    assert len(report.rows) + len(report.errors) == 4
    assert len(report.errors) >= 1


def test_mirror_json_params_are_the_mirror_keys():
    params = json.loads(emit(run(parse_config(MIRROR_CFG)), "json"))["params"]
    assert params == {"n": 1.33, "E0_V_per_m": 1e3, "omega_rad_per_s": 3e15,
                      "sigma_S_per_m": 5e7, "guard_k_over_alpha": 0.2}


_COVARIANT_CHECKS = ["constitutive_rest_frame_max_rel_err", "divergence_ratio_coarse",
                     "divergence_ratio_fine", "four_momentum_class_minkowski",
                     "four_momentum_class_abraham", "four_momentum_class_vacuum"]
_COVARIANT_RESIDUALS = ["constitutive_max_rel_err", "divergence_ratio_err"]
_NAN_RATIOS = ("divergence_ratio_coarse", "divergence_ratio_fine",
               "divergence_ratio_err")


# for covariant-checks, the checks and residuals that come out nan, in report
# order, and the four-momentum classes reported
_CLASSES = {"four_momentum_class_minkowski": "spacelike",
            "four_momentum_class_abraham": "timelike",
            "four_momentum_class_vacuum": "null"}


@pytest.mark.parametrize("text, needle, nan_checks, classes", [
    (MIRROR_CFG.replace("E0_V_per_m = 1.0e3", "E0_V_per_m = 1e200"),
     "result 'incident_flux_W_per_m2' is not finite: inf", (), None),
    ("scenario = interface\nE_t_V_per_m = 1e200\nn_from = 1\nn_to = 1.33\n",
     "result 'pressure_Pa' is not finite: -inf", (), None),
    ("scenario = drag\nintensity_W_per_m2 = 1e300\nsigma_a_m2 = 1e10\n"
     "omega_rad_per_s = 1e13\nn = 1.5\n",
     "result 'field_minkowski_V_per_m' is not finite: inf", (), None),
    ("scenario = covariant-checks\ngrid_step = 1e300\n",
     "result 'divergence_ratio_err' is not finite: nan", _NAN_RATIOS, _CLASSES),
    # the pulse energy squared overflows (an OverflowError traceback once,
    # then c^2|G|^2 - W^2 = inf - inf classed the Minkowski pulse timelike)
    ("scenario = covariant-checks\nmu_r = 1e-300\n",
     "result 'divergence_ratio_err' is not finite: nan", _NAN_RATIOS, _CLASSES),
    # n * n overflows (once an unkeyed antisymmetry error, exit 2); the
    # pulse in the medium is nan, so its two classes cannot be decided
    ("scenario = covariant-checks\nn = 1e200\n",
     "result 'divergence_ratio_err' is not finite: nan",
     ("constitutive_rest_frame_max_rel_err", "divergence_ratio_coarse",
      "divergence_ratio_fine", "four_momentum_class_minkowski",
      "four_momentum_class_abraham", "constitutive_max_rel_err",
      "divergence_ratio_err"),
     {"four_momentum_class_vacuum": "null"}),
])
def test_run_non_finite_point_is_an_error_and_output_stays_valid(text, needle,
                                                                nan_checks, classes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning leaks
        report = run(parse_config(text))
    if report.scenario == "covariant-checks":  # one row per check
        assert report.errors == [f"result '{name}' is not finite: nan"
                                 for name in nan_checks]
        assert [row[0] for row in report.rows] == [
            name for name in _COVARIANT_CHECKS if name not in nan_checks]
        assert {name: value for name, value in report.rows
                if "class" in name} == classes
        assert list(report.residuals) == [
            name for name in _COVARIANT_RESIDUALS if name not in nan_checks]
        assert {type(value) for row in report.rows for value in row} <= {str, float}
        lines = emit(report, "csv").decode().splitlines()
        assert lines[0] == "check,value" and len(lines) == 1 + len(report.rows)
        assert all(math.isfinite(float(line.split(",")[1])) for line in lines[1:]
                   if "class" not in line)
    else:
        assert report.rows.tolist() == [] and len(report.errors) == 1
        assert emit(report, "csv") == b"\n"
    assert needle in report.errors[-1]
    assert json.loads(emit(report, "json"))["errors"] == report.errors
    assert f"# error: {report.errors[0]}" in emit(report, "table").decode()


def test_finite_row_whose_sum_overflows_is_kept():
    report = run(parse_config(
        "scenario = drag\nintensity_W_per_m2 = 1e308\nsigma_a_m2 = 1e-300\n"
        "omega_rad_per_s = 1e308\nn = 1.5\n"))
    assert report.errors == [] and len(report.rows) == 1
    assert math.isinf(sum(report.rows[0].tolist()))


@pytest.mark.parametrize("text, finite", [
    (MIRROR_CFG.replace("E0_V_per_m = 1.0e3\n", "")
     + "sweep = E0_V_per_m:[1e3, 2e154, 5]\n", 3),
    ("scenario = interface\nn_from = 1\nn_to = 1.33\n"
     "sweep = E_t_V_per_m:[1e150, 1e160, 5]\n", 1),
])
def test_sweep_into_overflow_keeps_its_finite_rows(text, finite):
    report = run(parse_config(text))
    assert len(report.rows) == finite
    assert len(report.errors) == 5 - finite
    assert all(re.match(r"\w+=[0-9.e+]+: ", e) for e in report.errors)
    assert all(math.isfinite(v) for row in report.rows for v in row)
    residual = report.residuals.get("three_way_max_rel_diff", 0.0)
    assert math.isfinite(residual) and residual <= 1e-9
    payload = json.loads(emit(report, "json"))
    assert payload["rows"] == report.rows.tolist()
    csv_rows = emit(report, "csv").decode().strip().splitlines()[1:]
    assert [[float(c) for c in line.split(",")] for line in csv_rows] == report.rows.tolist()


def test_run_covariant_checks():
    report = run(parse_config("scenario = covariant-checks\n"))
    rows = {row[0]: row[1] for row in report.rows}
    assert rows["constitutive_rest_frame_max_rel_err"] <= 1e-12
    assert rows["divergence_ratio_coarse"] == pytest.approx(4.0, rel=0.2)
    assert rows["four_momentum_class_minkowski"] == "spacelike"
    assert rows["four_momentum_class_abraham"] == "timelike"
    assert rows["four_momentum_class_vacuum"] == "null"


# n = 1, the vacuum, is a valid input: there the truncation errors of a single
# wave cancel, so the check differentiates two waves, whose errors cannot
@pytest.mark.parametrize("mu_r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [1.0, 1.0 + 1e-7])
def test_covariant_checks_converge_at_n_one(n, mu_r):
    report = run(parse_config(f"scenario = covariant-checks\nn = {n!r}\n"
                              f"mu_r = {mu_r!r}\n"))
    assert report.errors == [] and len(report.rows) == 6
    assert report.residuals["divergence_ratio_err"] <= 0.2


@pytest.mark.parametrize("grid_step", [1.0, 2.0])
@pytest.mark.parametrize("n", [1.0, 1.5])
def test_covariant_checks_fail_an_unresolved_step_on_a_finite_error(n, grid_step):
    report = run(parse_config(f"scenario = covariant-checks\nn = {n!r}\n"
                              f"grid_step = {grid_step!r}\n"))
    err = report.residuals["divergence_ratio_err"]
    assert math.isfinite(err) and err > 0.2
    # the rows and residuals stay; the failed bound is the one error
    assert len(report.rows) == 6 and list(report.residuals) == _COVARIANT_RESIDUALS
    assert report.errors == [
        f"divergence_ratio_err = {err:.6g} is above its bound 0.2: the four-divergence "
        "residual does not shrink 4x per halving of grid_step"]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_csv_contract():
    report = run(parse_config(MIRROR_CFG))
    text = emit(report, "csv").decode()
    lines = text.strip().splitlines()
    assert lines[0].split(",") == report.columns   # unit-annotated header
    assert len(lines) == 1 + len(report.rows)
    for cell in lines[1].split(","):
        assert "e" in cell      # scientific notation
        float(cell)             # '.' decimal separator, parseable


def test_emit_csv_json_roundtrip_bit_exact():
    report = run(parse_config(MIRROR_SWEEPS_N + "sweep = n:[1.0,1.6,5]\n"))
    csv_lines = emit(report, "csv").decode().strip().splitlines()
    parsed = [[float(c) for c in line.split(",")] for line in csv_lines[1:]]
    through_json = json.loads(json.dumps(parsed))
    assert through_json == report.rows.tolist()  # repr round-trip keeps every bit


def test_emit_sweep_row_order():
    report = run(parse_config(MIRROR_SWEEPS_N + "sweep = n:[1.0,1.6,13]\n"))
    assert len(report.rows) == 13
    n_col = report.columns.index("n")
    ns = [row[n_col] for row in report.rows]
    assert ns == sorted(ns)


def test_emit_json_mirrors_report_fields():
    report = run(parse_config(WGM_CFG))
    payload = json.loads(emit(report, "json").decode())
    assert set(payload) == {"scenario", "params", "tag", "sweep", "provenance",
                            "columns", "rows", "residuals", "errors"}
    assert payload["scenario"] == "wgm"
    assert payload["sweep"] is None
    assert payload["rows"] == report.rows.tolist()


def test_emit_json_refuses_non_finite_values():
    report = run(parse_config(MIRROR_CFG))
    with pytest.raises(ValueError):  # run's rows are read-only
        report.rows[0, -1] = math.nan
    rows = report.rows.copy()
    rows[0, -1] = math.nan
    with pytest.raises(ValueError):
        emit(dataclasses.replace(report, rows=rows), "json")


def test_emit_json_echoes_sweep():
    report = run(parse_config(MIRROR_SWEEPS_N + "sweep = n:[1.0,1.6,5]\n"))
    payload = json.loads(emit(report, "json").decode())
    assert payload["sweep"] == {"param": "n", "lo": 1.0, "hi": 1.6, "count": 5}


def test_emit_table_contains_columns():
    report = run(parse_config(WGM_CFG))
    table = emit(report, "table").decode()
    for col in report.columns:
        assert col in table


def test_emit_rejects_unknown_format():
    report = run(parse_config(WGM_CFG))
    with pytest.raises(ValueError):
        emit(report, "yaml")


def test_scenario_names_are_the_eight():
    assert SCENARIO_NAMES == ("mirror", "drag", "wgm", "sphere-kick",
                              "fiber", "bec", "interface", "covariant-checks")


def test_every_scenario_dispatches():
    docs = {
        "mirror": MIRROR_CFG,
        "drag": ("scenario = drag\nintensity_W_per_m2 = 1e4\n"
                 "sigma_a_m2 = 1e-19\nomega_rad_per_s = 1.6e12\nn = 4.0\n"),
        "wgm": WGM_CFG,
        "sphere-kick": ("scenario = sphere-kick\nM_kg = 1e-10\na_m = 25e-6\n"
                        "deltaG_kg_m_per_s = 8.1e-12\npulse_energy_J = 5.9e-6\n"
                        "n = 1.33\nviscosity_Pa_s = 1e-3\nL0_m = 300e-6\n"),
        "fiber": "scenario = fiber\npulse_energy_J = 2.7e-3\nn = 1.5\n",
        "bec": "scenario = bec\nn = 1.0\nomega_rad_per_s = 2.4e15\n",
        "interface": ("scenario = interface\nE_t_V_per_m = 1e3\n"
                      "n_from = 1.0\nn_to = 1.33\n"),
        "covariant-checks": "scenario = covariant-checks\n",
    }
    assert set(docs) == set(SCENARIO_NAMES)
    for name, doc in docs.items():
        report = run(parse_config(doc))
        assert report.scenario == name
        assert len(report.rows) and not report.errors


# ---------------------------------------------------------------------------
# built-in cross-check suite
# ---------------------------------------------------------------------------

def test_check_suite_passes_at_default_tolerance():
    results = check_suite()
    assert [r.name for r in results] == ["three-way-mirror",
                                         "divergence-convergence",
                                         "momentum-ledger"]
    assert all(r.passed for r in results)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0, "abc"])
def test_check_suite_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
        check_suite(tol)


def test_check_suite_fails_at_absurd_tolerance():
    results = check_suite(tol=1e-18)
    assert not all(r.passed for r in results)


def test_check_suite_divergence_residual_is_the_covariant_checks_one():
    got = {r.name: r.residual for r in check_suite()}["divergence-convergence"]
    want = runner._covariant_check_rows(1.5, 1.0, 1e-3)[1]["divergence_ratio_err"]
    assert got.hex() == want.hex()


@pytest.fixture
def sampler_builds(monkeypatch):
    """The (n, mu_r) of each covariant.plane_wave_sampler call."""
    builds, build = [], covariant.plane_wave_sampler

    def spy(n, mu_r, *args, **kwargs):
        builds.append((n, mu_r))
        return build(n, mu_r, *args, **kwargs)

    monkeypatch.setattr(covariant, "plane_wave_sampler", spy)
    return builds


def test_check_suite_builds_its_inputs_once_and_its_results_every_call(
        monkeypatch, sampler_builds):
    calls, form = collections.Counter(), runner._SCENARIOS["mirror"]

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    check_rules = runner.check_rules

    def judged(rules, config, size=None):
        calls["mirror rules"] += rules is form.config.RULES
        return check_rules(rules, config, size)

    for owner, name in ((Medium, "from_index"), (FieldPoint, "from_EH"),
                        (covariant, "divergence_residual"),
                        (scenarios, "mirror_pressures")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    monkeypatch.setattr(runner, "check_rules", judged)
    runner._check_inputs.cache_clear()
    results = [check_suite() for _ in range(3)]
    # the wave pair, the ledger's medium and the mirror grid's rules once;
    # every result, the three mirror routes among them, on each call
    assert sampler_builds == [(1.5, 1.0)] and calls["from_index"] == 1
    assert calls["mirror rules"] == 1
    assert [calls[name] for name in ("mirror_pressures", "divergence_residual",
                                     "from_EH")] == [3] * 3
    assert results[0] == results[1] == results[2]


def test_covariant_checks_build_their_samplers_from_each_request(sampler_builds):
    coarse = [dict(run(parse_config(f"scenario = covariant-checks\nn = {n}\n")).rows)[
        "divergence_ratio_coarse"] for n in (1.4, 1.6)]
    # the wave pair, then the single wave in the medium and in vacuum
    assert sampler_builds == [(1.4, 1.0), ([1.4, 1.0], [1.0, 1.0]),
                              (1.6, 1.0), ([1.6, 1.0], [1.0, 1.0])]
    assert coarse[0] != coarse[1]


@pytest.mark.parametrize("skipped", ["classify_four_momentum",
                                     "excitation_from_constitutive"])
def test_check_suite_takes_only_the_divergence_ratio_of_the_covariant_checks(
        monkeypatch, skipped):
    def fail(*args, **kwargs):
        raise AssertionError("not read by the check suite")

    monkeypatch.setattr(covariant, skipped, fail)
    assert all(r.passed for r in check_suite())
    # covariant-checks still computes the rows the suite skips
    with pytest.raises(AssertionError, match="not read"):
        run(parse_config("scenario = covariant-checks\n"))


def test_check_suite_evaluates_its_mirror_grid_once_and_keeps_every_point(monkeypatch):
    # an empty grid would give no residual: the check must not pass on one
    calls, pressures = [], scenarios.mirror_pressures

    def recording(config):
        calls.append(pressures(config))
        return calls[-1]

    monkeypatch.setattr(scenarios, "mirror_pressures", recording)
    check_suite()
    [columns] = calls
    assert {key: np.shape(column) for key, column in columns.items()} == dict.fromkeys(
        columns, (12,))


@pytest.fixture
def mirror_guard(monkeypatch):
    """Sets the mirror's default guard that check_suite's grid is built at;
    the grid is rebuilt on the next use, and again after the test."""
    def set_guard(guard):
        monkeypatch.setitem(runner._SCENARIOS["mirror"].keys, "guard_k_over_alpha", guard)
        runner._check_inputs.cache_clear()

    yield set_guard
    monkeypatch.undo()
    runner._check_inputs.cache_clear()


@pytest.mark.parametrize("guard", [0.05, 1e-3])
def test_check_suite_fails_on_a_grid_row_beyond_the_guard_instead_of_dropping_it(
        mirror_guard, guard):
    # 0.05 rejects 6 of the 12 rows and 1e-3 all of them: either way the
    # first check_suite raises the first rejected row's error
    mirror_guard(guard)
    with pytest.raises(RegimeError, match=re.escape(f"requires k/alpha < {guard}")):
        check_suite()


def test_check_suite_mirror_residual_is_that_of_the_mirror_evaluator():
    # the runner's evaluation path stays the reference for the direct call
    p, form = runner._check_inputs()[0], runner._SCENARIOS["mirror"]
    _, rows, residuals, errors = form.evaluate(form, p, None, 12)
    assert errors == {} and len(rows) == 12
    got = {r.name: r.residual for r in check_suite()}["three-way-mirror"]
    assert got.hex() == residuals["three_way_max_rel_diff"].hex()


def test_check_suite_mirror_residual_is_that_of_its_n_sweeps():
    assert np.linspace(1.0, 1.6, 3).tolist() == [1.0, 1.3, 1.6]
    reports = [run(parse_config(
        f"scenario = mirror\nE0_V_per_m = 1e3\nsigma_S_per_m = {sigma!r}\n"
        f"omega_rad_per_s = {omega!r}\nsweep = n:[1.0, 1.6, 3]\n"))
        for sigma in (1e7, 1e8) for omega in (2.6e15, 4.0e15)]
    assert all(r.errors == [] and len(r.rows) == 3 for r in reports)
    want = max(r.residuals["three_way_max_rel_diff"] for r in reports)
    got = {r.name: r.residual for r in check_suite()}["three-way-mirror"]
    assert got.hex() == want.hex()


def test_consecutive_check_suites_agree():
    assert check_suite() == check_suite()


def test_check_suite_ledger_is_that_of_its_weyl_sample():
    # u = k sqrt(p) mod 1 for k = 1..1000 and the primes p = 2..17, cell by
    # cell in Python floats: *, % and sqrt round correctly, as numpy's do
    u = np.array([[k * math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17)]
                  for k in range(1, 1001)])
    n, E, H = 1.0 + u[:, 0], 2.0 * u[:, 1:4] - 1.0, 2.0 * u[:, 4:] - 1.0
    H = H / SI.mu0 / SI.c  # c mu0 H in [-1, 1), in V/m
    assert 1.0 <= n.min() < 1.001 and 1.999 < n.max() < 2.0  # n spans [1, 2)
    medium, got_E, got_H = runner._check_inputs()[2]
    for got, want in ((medium.n, n), (got_E, E), (got_H, H)):
        assert got.tobytes() == want.tobytes()
    got = {r.name: r.residual for r in check_suite()}["momentum-ledger"]
    want = runner._ledger_residual(Medium.from_index(n), E, H)
    assert got.hex() == want.hex()


def test_check_suite_ledger_fails_on_a_mechanical_momentum_off_by_1e_5(monkeypatch):
    # a negative control: the sample's points make a 1e-5 miss visible
    g_mech = runner.mechanical_momentum_density
    monkeypatch.setattr(runner, "mechanical_momentum_density",
                        lambda medium, fp: g_mech(medium, fp) * (1.0 + 1e-5))
    ledger = {r.name: r for r in check_suite()}["momentum-ledger"]
    assert ledger.bound == runner.DEFAULT_TOL and not ledger.passed


@pytest.mark.parametrize("cache", ["_check_inputs", "_constitutive_draws"])
def test_cached_draws_are_read_only(cache):
    if cache == "_check_inputs":
        mirror, _, (medium, E, H) = runner._check_inputs()
        with pytest.raises(TypeError):  # the mirror's parameters, a read-only mapping
            mirror["n"] = mirror["n"]
        cached = [mirror["n"], mirror["sigma_S_per_m"], mirror["omega_rad_per_s"],
                  medium.eps_r, medium.n, E, H]
    else:
        draws, F, scale = runner._constitutive_draws()
        cached = [draws, F.M, scale]  # the field tensor's matrix stack
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0


def test_a_sweep_whose_step_overflows_runs_without_a_warning():
    # linspace multiplies its step by each point's index, and 6 (max / 6)
    # overflows before the last value is set to hi; the span itself is finite
    report = run(parse_config("scenario = fiber\nn = 1.5\n"
                              "sweep = pulse_energy_J:[-0.0, 1.7976931348623157e308, 7]\n"))
    assert report.errors == [] and report.rows[-1, 0] == 1.7976931348623157e308
