"""Differential tests of the batched immersed-mirror evaluator.

The reference for the Lorentz route is the adaptive-quadrature integral the
scenario used before it moved to fixed-order Gauss-Laguerre and then to the
closed form, with its own copy of the metal-skin field formulas, and the same
integral over the fields of ``metal_fields``.
"""

import cmath
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from abmink import SI, Medium, RegimeError
from abmink.runner import parse_config, run
from abmink.scenarios import (
    MirrorBatch,
    MirrorConfig,
    metal_fields,
    mirror_batch,
    mirror_three_way_sweep,
)


def lorentz_oracle(n, E0, omega, sigma, tol=1e-10):
    """(mu0 sigma / 2) Re int_0^inf E_y H_z* dx by scipy's adaptive quad."""
    k = n * omega / SI.c
    alpha = math.sqrt(SI.mu0 * sigma * omega / 2.0)
    prefactor = 0.5 * SI.mu0 * sigma

    def integrand(u):
        envelope = cmath.exp((-1.0 + 1.0j) * alpha * (u / alpha))
        E_y = (k * E0 / alpha) * (1.0 - 1.0j) * envelope
        H_z = (k * E0 / (SI.mu0 * omega)) \
            * (2.0 + (1.0j - 1.0) * (k / alpha)) * envelope
        return prefactor * (E_y * H_z.conjugate()).real / alpha

    value, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=tol, limit=200)
    return value


def sigma_for_ratio(n, omega, k_over_alpha):
    alpha = n * omega / SI.c / k_over_alpha
    return 2.0 * alpha**2 / (SI.mu0 * omega)


def test_lorentz_route_matches_quad_oracle():
    rng = np.random.default_rng(20261017)
    m = 60
    n = rng.uniform(1.0, 2.5, m)
    omega = rng.uniform(1e15, 5e15, m)
    ratio = rng.uniform(1e-3, 0.2, m)
    ratio[:10] = 0.2 * (1.0 - 10.0 ** -rng.uniform(3.0, 12.0, 10))  # near the guard
    E0 = 10.0 ** rng.uniform(0.0, 5.0, m)
    E0[-1] = 0.0
    sigma = sigma_for_ratio(n, omega, ratio)
    batch = mirror_batch(n, E0, omega, sigma)
    assert batch.errors == (None,) * m
    got = batch.columns["pressure_lorentz_Pa"]
    for i in range(m - 1):
        want = lorentz_oracle(n[i], E0[i], omega[i], sigma[i])
        assert abs(got[i] - want) <= 1e-13 * abs(want)
    assert got[-1] == 0.0
    assert lorentz_oracle(n[-1], 0.0, omega[-1], sigma[-1]) == 0.0


@settings(max_examples=80, deadline=None)
@given(n=st.floats(1.0, 2.5), log_sigma=st.floats(6.0, 9.0),
       omega=st.floats(1e13, 5e15), E0=st.floats(1e-3, 1e6))
def test_routes_agree_and_match_the_oracle_at_random_points(n, log_sigma, omega, E0):
    sigma = 10.0**log_sigma
    assume(n * omega / SI.c / math.sqrt(SI.mu0 * sigma * omega / 2.0) < 0.2)
    batch = mirror_batch(n, E0, omega, sigma)
    assert batch.errors == (None,)
    assert batch.columns["max_rel_diff"][0] <= 1e-12
    assert batch.spread <= 1e-12
    got = batch.columns["pressure_lorentz_Pa"][0]
    want = lorentz_oracle(n, E0, omega, sigma)
    assert abs(got - want) <= 1e-13 * abs(want)


@settings(max_examples=60, deadline=None)
@given(n=st.floats(1.0, 2.0), log_omega=st.floats(14.0, 16.0),
       log_sigma=st.floats(6.0, 8.5), log_E0=st.floats(0.0, 6.0))
def test_lorentz_column_is_the_depth_integral_of_metal_fields(n, log_omega,
                                                              log_sigma, log_E0):
    omega, sigma, E0 = 10.0**log_omega, 10.0**log_sigma, 10.0**log_E0
    assume(n * omega / SI.c / math.sqrt(SI.mu0 * sigma * omega / 2.0) < 0.2)
    cfg = MirrorConfig(Medium.from_index(n), E0, omega, sigma)

    def integrand(u):  # u = alpha x, the depth in skin depths
        s = metal_fields(cfg, u / cfg.alpha)
        return (s.E_y * s.H_z.conjugate()).real

    value, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    want = 0.5 * SI.mu0 * sigma * value / cfg.alpha
    got = mirror_batch(n, E0, omega, sigma).columns["pressure_lorentz_Pa"][0]
    assert abs(got - want) <= 1e-12 * abs(want)


def test_lorentz_column_is_the_algebraic_closed_form():
    # (mu0 sigma / (4 alpha)) Re(E_y H_z*) at the surface reduces to
    # eps0 n^2 E0^2 (1 - k/alpha); the route keeps the skin-field form
    rng = np.random.default_rng(16)
    m = 2000
    n, E0 = rng.uniform(1.0, 2.0, m), 10.0 ** rng.uniform(0.0, 6.0, m)
    omega, sigma = 10.0 ** rng.uniform(14.0, 16.0, m), 10.0 ** rng.uniform(6.0, 8.5, m)
    batch = mirror_batch(n, E0, omega, sigma)
    ok = np.array([exc is None for exc in batch.errors])
    assert ok.sum() > m // 2
    k, alpha = n * omega / SI.c, np.sqrt(SI.mu0 * sigma * omega / 2.0)
    want = (SI.eps0 * n * n * E0**2 * (1.0 - k / alpha))[ok]
    got = batch.columns["pressure_lorentz_Pa"][ok]
    assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()


def test_the_lorentz_route_has_no_quadrature_knob():
    assert MirrorBatch._fields == ("columns", "errors", "spread", "table")
    with pytest.raises(TypeError, match="quadrature_tol"):
        mirror_batch(1.33, 1e3, 3e15, 5e7, quadrature_tol=1e-8)
    with pytest.raises(TypeError, match="quadrature_tol"):
        mirror_three_way_sweep([1.33], [5e7], [3e15], quadrature_tol=1e-8)


def test_zero_amplitude_point_reports_zero_pressures():
    # all three routes are exactly zero, so they agree with zero spread
    report = run(parse_config("scenario = mirror\nn = 1.33\nE0_V_per_m = 0\n"
                              "omega_rad_per_s = 3e15\nsigma_S_per_m = 5e7\n"))
    assert report.errors == []
    row = dict(zip(report.columns, report.rows[0]))
    for col in ("pressure_flux_Pa", "pressure_lorentz_Pa",
                "pressure_divergence_Pa", "max_rel_diff"):
        assert row[col] == 0.0
    assert report.residuals == {"three_way_max_rel_diff": 0.0}


@pytest.mark.parametrize("sweep", [
    "n:[1.0, 2.4, 29]",
    "sigma_S_per_m:[1.0e5, 1.0e8, 31]",
    "omega_rad_per_s:[1.0e15, 9.0e15, 17]",
])
def test_sweep_rows_equal_scalar_api(sweep):
    params = ("n = 1.33\nE0_V_per_m = 2.5e3\nomega_rad_per_s = 3.0e15\n"
              "sigma_S_per_m = 5.0e7\n")
    swept = sweep.partition(":")[0]  # a swept key may not also be set
    text = "scenario = mirror\n" + "".join(
        line for line in params.splitlines(keepends=True)
        if not line.startswith(swept + " ")) + f"sweep = {sweep}\n"
    report = run(parse_config(text))
    assert len(report.rows)
    for values in report.rows.tolist():
        row = dict(zip(report.columns, values))
        b = mirror_batch(row["n"], 2.5e3, row["omega_rad_per_s"], row["sigma_S_per_m"])
        assert b.errors == (None,)
        assert row == {name: float(column[0]) for name, column in b.columns.items()}


@pytest.mark.parametrize("base, sweep", [
    ("", "sigma_S_per_m:[1.0e5, 1.0e8, 12]"),
    ("", "n:[1.0, 8.0, 11]"),
    ("", "guard_k_over_alpha:[0.01, 0.3, 9]"),
    ("E0_V_per_m = -1\n", "n:[1.0, 1.6, 4]"),
])
def test_sweep_errors_keep_the_per_point_form(base, sweep):
    params = {"n": 1.33, "E0_V_per_m": 1.0e3, "omega_rad_per_s": 3.0e15,
              "sigma_S_per_m": 5.0e7, "guard_k_over_alpha": 0.2}
    text = "scenario = mirror\n" + "".join(
        f"{k} = {v!r}\n" for k, v in params.items()
        if not base.startswith(k) and not sweep.startswith(k + ":")
    ) + base + f"sweep = {sweep}\n"
    request = parse_config(text)
    p, s = request.params, request.sweep
    expected = []
    for value in np.linspace(s.lo, s.hi, s.count):
        point = {**p, s.param: float(value)}
        try:
            MirrorConfig(Medium.from_index(point["n"]), point["E0_V_per_m"],
                         point["omega_rad_per_s"], point["sigma_S_per_m"],
                         point["guard_k_over_alpha"])
        except ValueError as exc:
            expected.append(f"{s.param}={value:g}: {exc}")
    report = run(request)
    assert expected
    assert report.errors == expected
    assert len(report.rows) + len(report.errors) == s.count


def test_long_sweep_matches_per_point_batches():
    count = 4133
    report = run(parse_config(
        "scenario = mirror\nE0_V_per_m = 2.5e3\nomega_rad_per_s = 3e15\n"
        f"sigma_S_per_m = 5e7\nsweep = n:[8.0, 1.0, {count}]\n"))
    rows, errors = [], []  # in regime from n = 6.1 down, so across the seam
    for value in np.linspace(8.0, 1.0, count):
        b = mirror_batch(float(value), 2.5e3, 3e15, 5e7)
        if b.errors[0] is None:
            rows.append([float(c[0]) for c in b.columns.values()])
        else:
            errors.append(f"n={value:g}: {b.errors[0]}")
    assert errors and rows
    assert report.rows.tolist() == rows
    assert report.errors == errors


@pytest.mark.parametrize("n, E0, omega, sigma, guard", [
    (1.0 - 2.0**-53, 1e3, 3e15, 5e7, 0.2),
    (1.0, 1e3, 3e15, 5e7, 0.2),
    (0.0, 1e3, 3e15, 5e7, 0.2),
    (-1.5, 1e3, 3e15, 5e7, 0.2),
    (1.33, -1e-300, 3e15, 5e7, 0.2),
    (1.33, 0.0, 3e15, 5e7, 0.2),
    (1.33, 1e3, 0.0, 5e7, 0.2),
    (1.33, 1e3, 3e15, -5e7, 0.2),
    (1.33, 1e3, 3e15, 1e5, 0.2),
    (1.33, 1e3, 3e15, 5e7, 0.0),
    (1e200, 1e3, 3e15, 5e7, 0.2),
    (math.nan, 1e3, 3e15, 5e7, 0.2),
    (1.33, math.inf, 3e15, 5e7, 0.2),
    (1.33, math.nan, 3e15, 5e7, 0.2),
    (1.33, 1e3, math.nan, 5e7, 0.2),
    (1.33, 1e3, 3e15, math.nan, 0.2),
])
def test_batch_rejects_exactly_what_the_config_rejects(n, E0, omega, sigma, guard):
    try:
        MirrorConfig(Medium.from_index(n), E0, omega, sigma, guard)
        want = None
    except ValueError as exc:
        want = (type(exc), str(exc))
    batch = mirror_batch(n, E0, omega, sigma, guard)
    got = batch.errors[0]
    if want is None and not all(math.isfinite(c[0]) for c in batch.columns.values()):
        # beyond the config's rules the batch rejects only non-finite results
        assert type(got) is ValueError and "is not finite" in str(got)
    else:
        assert (None if got is None else (type(got), str(got))) == want


@pytest.mark.parametrize("guard", [math.nan, 0.0, -0.2])
def test_config_rejects_a_guard_not_above_zero(guard):
    # a NaN guard once passed the k/alpha rule, which compares against it
    with pytest.raises(ValueError, match=f"^guard must be > 0, got {guard}$") as err:
        MirrorConfig(Medium.from_index(1.33), 1e3, 3e15, 1e5, guard=guard)
    assert not isinstance(err.value, RegimeError)
    batch = mirror_batch(1.33, 1e3, 3e15, 1e5, guard=guard)
    assert str(batch.errors[0]) == str(err.value)


@pytest.mark.parametrize("E0, omega, sigma, message", [
    (math.nan, 3e15, 5e7, "E0 must be >= 0, got nan"),
    (1e3, math.nan, 5e7, "omega and conductivity must be > 0"),
    (1e3, 3e15, math.nan, "omega and conductivity must be > 0"),
])
def test_a_nan_input_breaks_its_rule(E0, omega, sigma, message):
    # a NaN E0, omega or conductivity once passed every rule, and the batch
    # rejected the point only for a result that is not finite
    with pytest.raises(ValueError, match=f"^{message}$") as err:
        MirrorConfig(Medium.from_index(1.33), E0, omega, sigma)
    assert not isinstance(err.value, RegimeError)
    batch = mirror_batch(np.array([1.0, 1.33, 1.6]), E0, omega, sigma)
    assert [type(e) for e in batch.errors] == [ValueError] * 3
    assert [str(e) for e in batch.errors] == [message] * 3
    assert batch.spread is None


def test_three_way_sweep_rows_are_the_batch_columns():
    grid = (np.linspace(1.0, 1.6, 4), np.logspace(5, 8, 4), np.linspace(2.6e15, 4.5e15, 3))
    points = mirror_three_way_sweep(*grid, E0=2e3)
    n, sigma, omega = np.meshgrid(*grid, indexing="ij")
    b = mirror_batch(n, 2e3, omega, sigma, 0.2)
    accepted = [i for i, exc in enumerate(b.errors) if exc is None]
    assert 0 < len(accepted) < n.size  # a part of the grid is beyond the guard
    assert [list(pt) for pt in points] == [list(b.columns)] * len(accepted)
    assert [list(pt.values()) for pt in points] == b.table[accepted].tolist()


def test_three_way_sweep_raises_rejections_other_than_the_guard():
    with pytest.raises(ValueError, match="eps_r") as err:
        mirror_three_way_sweep(n_values=[0.5], sigma_values=[1e8],
                               omega_values=[3e15])
    assert not isinstance(err.value, RegimeError)


def test_magnetic_liquid_is_rejected():
    with pytest.raises(RegimeError, match="nonmagnetic"):
        MirrorConfig(Medium.from_index(1.5, mu_r=1.2), 1e3, 3e15, 5e7)


def test_import_loads_no_scipy():
    code = ("import sys, abmink; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
