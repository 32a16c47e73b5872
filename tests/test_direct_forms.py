"""The direct forms of the mirror transport route and the ledger's row
maxima against the formulations they replaced, and the check suite's mirror
grid, evaluated at once, against its points one by one.

The former code is copied below verbatim as the oracle:

* the transport route built a stack of plane-wave ``FieldPoint``s and took
  the x components of the core momentum density and Poynting vector;
  ``mirror_pressures`` now multiplies D_y B_z and E_y H_z directly;
* the momentum ledger took each row's maximum with ``np.max(axis=1)``.

Each must agree bit for bit.  The one input where the transport route's
bits differ is pinned: when eps0 n^2 overflows, the former cross product's
inf * 0 made the route NaN, where the direct product is inf.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from abmink import SI, runner
from abmink.core import (
    FieldPoint,
    Medium,
    MomentumTag,
    mechanical_momentum_density,
    momentum_density,
    poynting,
)
from abmink.runner import _ledger_residual, parse_config, run
from abmink.scenarios import mirror_pressures

# ---------------------------------------------------------------------------
# the former formulations, verbatim
# ---------------------------------------------------------------------------


def former_transport_route(n, E0, R):
    """c g_x / n + n R S_i / c through stacked plane-wave field points."""
    E, H = np.zeros((n.size, 3)), np.zeros((n.size, 3))
    E[:, 1] = E0  # polarization y, propagation x, t = 0 at the origin
    H[:, 2] = n * E0 / (SI.mu0 * SI.c)
    fp = FieldPoint(E=E, D=(SI.eps0 * (n * n))[:, None] * E, H=H, B=SI.mu0 * H)
    # peak fields carry twice the time-averaged quadratic quantities
    g_x = momentum_density(fp, MomentumTag.MINKOWSKI)[:, 0] / 2.0
    S_i = poynting(fp)[:, 0] / 2.0
    return SI.c * g_x / n + n * R * S_i / SI.c


def former_ledger_residual(n, E, H) -> float:
    medium = Medium.from_index(n)
    fp = FieldPoint.from_EH(medium, E, H / SI.mu0 / SI.c)
    g_a = momentum_density(fp, MomentumTag.ABRAHAM)
    g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
    g_mech = mechanical_momentum_density(medium, fp)
    scale = np.max(np.abs(g_m), axis=1)
    kept = scale != 0.0
    rel = [np.max(np.abs(d), axis=1)[kept] / scale[kept]
           for d in (g_a + g_mech - g_m, (n * n)[:, None] * g_a - g_m)]
    return float(np.max(rel, initial=0.0))


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def evaluate_mirror(n, E0, omega, sigma):
    """The runner's one evaluation of the mirror at m points: (columns,
    rows, residuals, row -> error), the guard at its default."""
    p = {"n": n, "E0_V_per_m": E0, "omega_rad_per_s": omega, "sigma_S_per_m": sigma,
         "guard_k_over_alpha": np.float64(0.2)}
    form = runner._SCENARIOS["mirror"]
    with np.errstate(all="ignore"):
        return form.evaluate(form, p, None, n.size)


# ---------------------------------------------------------------------------
# the transport route
# ---------------------------------------------------------------------------

_E0 = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1e8))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_transport_route_equals_the_field_point_form(data):
    m = data.draw(st.integers(1, 12))
    n = np.array(data.draw(st.lists(st.floats(1.0, 3.0), min_size=m, max_size=m)))
    E0 = np.array(data.draw(st.lists(_E0, min_size=m, max_size=m)))
    omega = np.array(data.draw(st.lists(st.floats(1e14, 1e16), min_size=m, max_size=m)))
    sigma = np.array(data.draw(st.lists(st.floats(1e5, 1e9), min_size=m, max_size=m)))
    with np.errstate(all="ignore"):  # points beyond the guard evaluate too
        c = mirror_pressures(runner._mirror_config(
            {"n": n, "E0_V_per_m": E0, "omega_rad_per_s": omega, "sigma_S_per_m": sigma,
             "guard_k_over_alpha": 0.2}))
    want = former_transport_route(n, E0, c["reflectance"])
    assert (bits(c["pressure_divergence_Pa"]) == bits(want)).all()
    # the spread over the three routes, as mirror_pressures forms it
    routes = np.array([c["pressure_flux_Pa"], c["pressure_lorentz_Pa"], want])
    scale = np.abs(routes).max(axis=0)
    with np.errstate(invalid="ignore"):  # routes that are all zero agree
        spread = np.where(scale != 0.0,
                          (routes.max(axis=0) - routes.min(axis=0)) / scale, 0.0)
    assert (bits(c["max_rel_diff"]) == bits(spread)).all()
    # the residual is the largest spread of the points the runner keeps
    _, _, residuals, errors = evaluate_mirror(n, E0, omega, sigma)
    kept = [spread[i] for i in range(m) if i not in errors]
    if kept:
        assert bits(residuals["three_way_max_rel_diff"]) == bits(max(kept))
    else:
        assert residuals == {}


def test_overflowing_eps0_n2_reports_an_infinite_transport_route():
    n, E0, omega, sigma = (np.array([v]) for v in (1e155, 1e3, 1e-300, 1e300))
    _, _, _, errors = evaluate_mirror(n, E0, omega, sigma)
    assert errors == {0: "result 'pressure_divergence_Pa' is not finite: inf"}
    with np.errstate(all="ignore"):  # eps0 n^2 overflows
        c = mirror_pressures(runner._mirror_config(
            {"n": n, "E0_V_per_m": E0, "omega_rad_per_s": omega, "sigma_S_per_m": sigma,
             "guard_k_over_alpha": 0.2}))
        assert c["pressure_divergence_Pa"][0] == np.inf
        # the former cross product read D_z B_y = (eps0 n^2 * 0) * 0 = nan
        assert np.isnan(former_transport_route(n, 1e3, c["reflectance"]))
    # the input passes the config boundary; the point is a report error
    report = run(parse_config(
        "scenario = mirror\nn = 1e155\nE0_V_per_m = 1e3\n"
        "omega_rad_per_s = 1e-300\nsigma_S_per_m = 1e300\n"))
    assert report.rows.tolist() == []
    assert report.errors == ["result 'pressure_divergence_Pa' is not finite: inf"]


# ---------------------------------------------------------------------------
# the momentum ledger
# ---------------------------------------------------------------------------

_COMPONENT = st.one_of(st.floats(-1e3, 1e3),
                       st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ledger_residual_equals_the_axis_reduction(data):
    m = data.draw(st.integers(1, 10))
    n = data.draw(arrays(float, m, elements=st.floats(1.0, 2.0)))
    fields = data.draw(arrays(float, (2, m, 3), elements=_COMPONENT))
    # points whose E and H are zero: g_M is zero there, and the point is skipped
    fields[:, data.draw(arrays(bool, m))] = 0.0
    E, H = fields
    with np.errstate(all="ignore"):
        want = former_ledger_residual(n, E, H)
        got = _ledger_residual(Medium.from_index(n), E, H / SI.mu0 / SI.c)
    assert bits(got) == bits(want)


def test_ledger_residual_of_the_check_suite_sample():
    rng = np.random.default_rng(7)
    n = rng.uniform(1.0, 2.0, 1000)
    E, H = rng.normal(size=(2, n.size, 3))
    got = _ledger_residual(Medium.from_index(n), E, H / SI.mu0 / SI.c)
    assert bits(got) == bits(former_ledger_residual(n, E, H))


# ---------------------------------------------------------------------------
# a mirror grid in one evaluation, as the check suite takes it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", [
    ((1.0, 1.3, 1.6), (1e7, 1e8), (2.6e15, 4.0e15)),
    (np.linspace(1.0, 1.6, 4), np.logspace(5, 8, 4), np.linspace(2.6e15, 4.5e15, 3)),
])
def test_a_grid_in_one_evaluation_equals_its_one_point_runs(grid):
    n, sigma, omega = (a.ravel() for a in np.meshgrid(*grid, indexing="ij"))
    columns, rows, residuals, errors = evaluate_mirror(n, np.float64(1e3), omega, sigma)
    want_rows, want_errors = [], {}
    for i, point in enumerate(zip(n.tolist(), sigma.tolist(), omega.tolist())):
        report = run(parse_config(
            "scenario = mirror\nn = %r\nsigma_S_per_m = %r\nomega_rad_per_s = %r\n"
            "E0_V_per_m = 1e3\n" % point))
        want_rows += report.rows.tolist()
        want_errors.update((i, e) for e in report.errors)
        if report.rows.size:
            assert report.columns == columns
    assert errors == want_errors
    assert rows.shape == (n.size - len(errors), len(columns))
    assert (bits(rows) == bits(want_rows)).all()
    assert bits(residuals["three_way_max_rel_diff"]) == bits(np.max(rows[:, -1]))
