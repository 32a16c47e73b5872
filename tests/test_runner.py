"""Tests for config parsing, scenario dispatch and report emission."""

import json
import math
import re
import warnings

import pytest

from abmink import MomentumTag, runner
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
    req = parse_config(MIRROR_CFG + "sweep = n:[1.0, 1.6, 13]\n")
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
    (MIRROR_CFG + "quadrature_tol = 0\n", "'quadrature_tol' must be > 0"),
    (MIRROR_CFG + "quadrature_tol = -1e-8\n", "'quadrature_tol' must be > 0"),
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
    (MIRROR_CFG + "sweep = n:[0.5, 3.0, 11]\n", "'n' must be >= 1, got 0.5"),
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


def test_parse_sweep_count_up_to_the_bound():
    req = parse_config(MIRROR_CFG + f"sweep = n:[1, 2, {MAX_SWEEP_COUNT}]\n")
    assert req.sweep.count == MAX_SWEEP_COUNT


def test_parse_missing_P0_names_the_key():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = wgm\na_m = 1e-4\nomega0_rad_per_s = 1e3\n")
    assert "P0" in str(err.value)


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


def test_run_tag_filters_columns():
    report = run(parse_config(WGM_CFG + "tag = minkowski\n"))
    assert "torque_minkowski_N_m" in report.columns
    assert "torque_abraham_N_m" not in report.columns


def test_run_out_of_regime_point_reports_bound():
    text = MIRROR_CFG.replace("sigma_S_per_m = 5.0e7",
                              "sigma_S_per_m = 1.0e5")
    report = run(parse_config(text))
    assert report.rows == []
    assert len(report.errors) == 1
    assert "k/alpha" in report.errors[0]      # the violated bound ...
    assert "0.2" in report.errors[0]          # ... its value ...
    assert "got" in report.errors[0]          # ... and the supplied value


def test_run_sweep_collects_valid_points_and_errors():
    text = MIRROR_CFG + "sweep = sigma_S_per_m:[1.0e5, 1.0e8, 4]\n"
    report = run(parse_config(text))
    assert len(report.rows) + len(report.errors) == 4
    assert len(report.errors) >= 1


def test_run_unreachable_quadrature_tol_names_the_key(capfd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run(parse_config(MIRROR_CFG + "quadrature_tol = 1e-300\n"
                                  + "sweep = n:[1.0, 1.6, 13]\n"))
    assert report.errors
    assert all(e.startswith("n=") and "quadrature_tol" in e
               for e in report.errors)
    assert len(report.rows) + len(report.errors) == 13
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("text, needle", [
    (MIRROR_CFG.replace("E0_V_per_m = 1.0e3", "E0_V_per_m = 1e200"),
     "result 'incident_flux_W_per_m2' is not finite: inf"),
    ("scenario = interface\nE_t_V_per_m = 1e200\nn_from = 1\nn_to = 1.33\n",
     "result 'pressure_Pa' is not finite: -inf"),
    ("scenario = drag\nintensity_W_per_m2 = 1e300\nsigma_a_m2 = 1e10\n"
     "omega_rad_per_s = 1e13\nn = 1.5\n",
     "result 'field_minkowski_V_per_m' is not finite: inf"),
    ("scenario = covariant-checks\ngrid_step = 1e300\n",
     "result 'divergence_ratio_err' is not finite: nan"),
])
def test_run_non_finite_point_is_an_error_and_output_stays_valid(text, needle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no RuntimeWarning leaks
        report = run(parse_config(text))
    if report.scenario == "covariant-checks":  # one row per check
        nan = ["divergence_ratio_coarse", "divergence_ratio_fine"]
        assert report.errors == [f"result '{name}' is not finite: nan"
                                 for name in nan + ["divergence_ratio_err"]]
        assert [row[0] for row in report.rows] == [
            "constitutive_rest_frame_max_rel_err", "four_momentum_class_minkowski",
            "four_momentum_class_abraham", "four_momentum_class_vacuum"]
        assert list(report.residuals) == ["constitutive_max_rel_err"]
    else:
        assert report.rows == [] and len(report.errors) == 1
        assert emit(report, "csv") == b"\n"
    assert needle in report.errors[-1]
    assert json.loads(emit(report, "json"))["errors"] == report.errors
    assert f"# error: {report.errors[0]}" in emit(report, "table").decode()


def test_finite_row_whose_sum_overflows_is_kept():
    report = run(parse_config(
        "scenario = drag\nintensity_W_per_m2 = 1e308\nsigma_a_m2 = 1e-300\n"
        "omega_rad_per_s = 1e308\nn = 1.5\n"))
    assert report.errors == [] and len(report.rows) == 1
    assert math.isinf(sum(report.rows[0]))


@pytest.mark.parametrize("text, finite", [
    (MIRROR_CFG + "sweep = E0_V_per_m:[1e3, 2e154, 5]\n", 3),
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
    assert payload["rows"] == report.rows
    csv_rows = emit(report, "csv").decode().strip().splitlines()[1:]
    assert [[float(c) for c in line.split(",")] for line in csv_rows] == report.rows


def test_run_covariant_checks():
    report = run(parse_config("scenario = covariant-checks\n"))
    rows = {row[0]: row[1] for row in report.rows}
    assert rows["constitutive_rest_frame_max_rel_err"] <= 1e-12
    assert rows["divergence_ratio_coarse"] == pytest.approx(4.0, rel=0.2)
    assert rows["four_momentum_class_minkowski"] == "spacelike"
    assert rows["four_momentum_class_abraham"] == "timelike"
    assert rows["four_momentum_class_vacuum"] == "null"


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
    report = run(parse_config(MIRROR_CFG + "sweep = n:[1.0,1.6,5]\n"))
    csv_lines = emit(report, "csv").decode().strip().splitlines()
    parsed = [[float(c) for c in line.split(",")] for line in csv_lines[1:]]
    through_json = json.loads(json.dumps(parsed))
    assert through_json == report.rows  # repr round-trip keeps every bit


def test_emit_sweep_row_order():
    report = run(parse_config(MIRROR_CFG + "sweep = n:[1.0,1.6,13]\n"))
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
    assert payload["rows"] == report.rows


def test_emit_json_refuses_non_finite_values():
    report = run(parse_config(MIRROR_CFG))
    report.rows[0][-1] = math.nan
    with pytest.raises(ValueError):
        emit(report, "json")


def test_emit_json_echoes_sweep():
    report = run(parse_config(MIRROR_CFG + "sweep = n:[1.0,1.6,5]\n"))
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
        assert report.rows and not report.errors


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
