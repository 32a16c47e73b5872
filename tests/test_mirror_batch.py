"""Differential tests of the immersed mirror's m-point evaluation.

``mirror_pressures`` gives the report columns of a config whose fields are
numbers or (m,) arrays; the runner judges the config's rules and rejects
non-finite rows around it, as for every closed-form scenario.

The reference for the Lorentz route is the adaptive-quadrature integral the
scenario used before it moved to fixed-order Gauss-Laguerre and then to the
closed form, with its own copy of the metal-skin field formulas, and the same
integral over the fields of ``metal_fields``.
"""

import cmath
import collections
import functools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from abmink import SI, RegimeError, runner
from abmink.core import check_rules, unchecked
from abmink.runner import ConfigError, parse_config, run
from abmink.scenarios import MirrorConfig, metal_fields, mirror_pressures


def pressures(n, E0, omega, sigma, guard=0.2):
    """The columns of a checked config: it raises where a point is rejected."""
    return mirror_pressures(MirrorConfig(n, E0, omega, sigma, guard))


def evaluate(n, E0, omega, sigma, guard=0.2):
    """The runner's mirror evaluation of these np.float64 parameters, one
    point or an (m,) array of n: (columns, rows, residuals, row -> error)."""
    p = {"n": n, "E0_V_per_m": E0, "omega_rad_per_s": omega, "sigma_S_per_m": sigma,
         "guard_k_over_alpha": guard}
    p = {key: np.asarray(v, dtype=float)[()] for key, v in p.items()}
    form = runner._SCENARIOS["mirror"]
    with np.errstate(all="ignore"):
        return form.evaluate(form, p, None, np.size(n))


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
    got = pressures(n, E0, omega, sigma)["pressure_lorentz_Pa"]
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
    columns = pressures(n, E0, omega, sigma)
    assert columns["max_rel_diff"][0] <= 1e-12
    got = columns["pressure_lorentz_Pa"][0]
    want = lorentz_oracle(n, E0, omega, sigma)
    assert abs(got - want) <= 1e-13 * abs(want)


@settings(max_examples=60, deadline=None)
@given(n=st.floats(1.0, 2.0), log_omega=st.floats(14.0, 16.0),
       log_sigma=st.floats(6.0, 8.5), log_E0=st.floats(0.0, 6.0))
def test_lorentz_column_is_the_depth_integral_of_metal_fields(n, log_omega,
                                                              log_sigma, log_E0):
    omega, sigma, E0 = 10.0**log_omega, 10.0**log_sigma, 10.0**log_E0
    assume(n * omega / SI.c / math.sqrt(SI.mu0 * sigma * omega / 2.0) < 0.2)
    cfg = MirrorConfig(n, E0, omega, sigma)

    def integrand(u):  # u = alpha x, the depth in skin depths
        s = metal_fields(cfg, u / cfg.alpha)
        return (s.E_y * s.H_z.conjugate()).real

    value, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    want = 0.5 * SI.mu0 * sigma * value / cfg.alpha
    got = mirror_pressures(cfg)["pressure_lorentz_Pa"][0]
    assert abs(got - want) <= 1e-12 * abs(want)


def test_lorentz_column_is_the_algebraic_closed_form():
    # (mu0 sigma / (4 alpha)) Re(E_y H_z*) at the surface reduces to
    # eps0 n^2 E0^2 (1 - k/alpha); the route keeps the skin-field form
    rng = np.random.default_rng(16)
    m = 2000
    n, E0 = rng.uniform(1.0, 2.0, m), 10.0 ** rng.uniform(0.0, 6.0, m)
    omega, sigma = 10.0 ** rng.uniform(14.0, 16.0, m), 10.0 ** rng.uniform(6.0, 8.5, m)
    cfg = unchecked(MirrorConfig, n=n, E0_V_per_m=E0, omega_rad_per_s=omega,
                    sigma_S_per_m=sigma, guard_k_over_alpha=0.2)
    ok = np.ones(m, dtype=bool)
    ok[list(check_rules(MirrorConfig.RULES, cfg, m))] = False
    assert ok.sum() > m // 2
    k, alpha = n * omega / SI.c, np.sqrt(SI.mu0 * sigma * omega / 2.0)
    want = (SI.eps0 * n * n * E0**2 * (1.0 - k / alpha))[ok]
    got = mirror_pressures(cfg)["pressure_lorentz_Pa"][ok]
    assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()


def test_the_lorentz_route_has_no_quadrature_knob():
    cfg = MirrorConfig(1.33, 1e3, 3e15, 5e7)
    with pytest.raises(TypeError, match="quadrature_tol"):
        mirror_pressures(cfg, quadrature_tol=1e-8)
    with pytest.raises(TypeError, match="quadrature_tol"):
        MirrorConfig(1.33, 1e3, 3e15, 5e7, quadrature_tol=1e-8)
    with pytest.raises(ConfigError, match="^unknown key 'quadrature_tol'"):
        parse_config("scenario = mirror\nn = 1.33\nE0_V_per_m = 1e3\n"
                     "omega_rad_per_s = 3e15\nsigma_S_per_m = 5e7\nquadrature_tol = 1e-8\n")


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
        columns = pressures(row["n"], 2.5e3, row["omega_rad_per_s"], row["sigma_S_per_m"])
        assert row == {name: float(column[0]) for name, column in columns.items()}


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
            MirrorConfig(point["n"], point["E0_V_per_m"],
                         point["omega_rad_per_s"], point["sigma_S_per_m"],
                         point["guard_k_over_alpha"])
        except ValueError as exc:
            expected.append(f"{s.param}={value:g}: {exc}")
    report = run(request)
    assert expected
    assert report.errors == expected
    assert len(report.rows) + len(report.errors) == s.count


def test_long_sweep_matches_per_point_configs():
    count = 4133
    report = run(parse_config(
        "scenario = mirror\nE0_V_per_m = 2.5e3\nomega_rad_per_s = 3e15\n"
        f"sigma_S_per_m = 5e7\nsweep = n:[8.0, 1.0, {count}]\n"))
    rows, errors = [], []  # in regime from n = 6.1 down, so across the seam
    for value in np.linspace(8.0, 1.0, count):
        try:
            columns = pressures(float(value), 2.5e3, 3e15, 5e7)
        except ValueError as exc:
            errors.append(f"n={value:g}: {exc}")
        else:
            rows.append([float(c[0]) for c in columns.values()])
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
def test_run_rejects_exactly_what_the_config_rejects(n, E0, omega, sigma, guard):
    try:
        MirrorConfig(n, E0, omega, sigma, guard)
        want = None
    except ValueError as exc:
        want = (type(exc), str(exc))
    with np.errstate(all="ignore"):
        cfg = unchecked(MirrorConfig, n=n, E0_V_per_m=E0, omega_rad_per_s=omega,
                        sigma_S_per_m=sigma, guard_k_over_alpha=guard)
    rule = check_rules(MirrorConfig.RULES, cfg, 1).get(0)
    assert rule == (None if want is None else want[1])
    # the raising path gives the runner's config the rule's own error type
    try:
        check_rules(MirrorConfig.RULES, cfg)
        raised = None
    except ValueError as exc:
        raised = (type(exc), str(exc))
    assert raised == want
    _, rows, residuals, errors = evaluate(n, E0, omega, sigma, guard)
    if want is None and errors:
        # beyond the config's rules the runner rejects only non-finite results
        assert "is not finite" in errors[0]
        columns = pressures(n, E0, omega, sigma, guard)
        assert not all(math.isfinite(c[0]) for c in columns.values())
    else:
        assert errors.get(0) == (None if want is None else want[1])
    assert len(rows) == (not errors) and (residuals != {}) == (not errors)


@pytest.mark.parametrize("guard", [math.nan, 0.0, -0.2])
def test_config_rejects_a_guard_not_above_zero(guard):
    # a NaN guard once passed the k/alpha rule, which compares against it
    with pytest.raises(ValueError,
                       match=f"^guard_k_over_alpha must be > 0, got {guard}$") as err:
        MirrorConfig(1.33, 1e3, 3e15, 1e5, guard_k_over_alpha=guard)
    assert not isinstance(err.value, RegimeError)
    assert evaluate(1.33, 1e3, 3e15, 1e5, guard)[3] == {0: str(err.value)}


@pytest.mark.parametrize("E0, omega, sigma, message", [
    (math.nan, 3e15, 5e7, "E0_V_per_m must be >= 0, got nan"),
    (1e3, math.nan, 5e7, "omega_rad_per_s must be > 0, got nan"),
    (1e3, 3e15, math.nan, "sigma_S_per_m must be > 0, got nan"),
])
def test_a_nan_input_breaks_its_rule(E0, omega, sigma, message):
    # a NaN E0, omega or conductivity once passed every rule, and the batch
    # rejected the point only for a result that is not finite
    with pytest.raises(ValueError, match=f"^{message}$") as err:
        MirrorConfig(1.33, E0, omega, sigma)
    assert not isinstance(err.value, RegimeError)
    n = np.array([1.0, 1.33, 1.6])
    with np.errstate(all="ignore"):
        cfg = unchecked(MirrorConfig, n=n, E0_V_per_m=E0, omega_rad_per_s=omega,
                        sigma_S_per_m=sigma, guard_k_over_alpha=0.2)
    assert check_rules(MirrorConfig.RULES, cfg, 3) == {0: message, 1: message, 2: message}
    for v in n.tolist():  # each row's scalar config raises the rule's own type
        with pytest.raises(ValueError, match=f"^{message}$") as row:
            MirrorConfig(v, E0, omega, sigma)
        assert type(row.value) is ValueError
    columns, rows, residuals, errors = evaluate(n, E0, omega, sigma)
    assert errors == {0: message, 1: message, 2: message}
    assert (columns, rows.size, residuals) == ([], 0, {})


def test_a_guard_sweep_keeps_every_row_and_its_bits():
    # no column reads the guard: each row is the one-point row, none rejected
    text = ("scenario = mirror\nn = 1.33\nE0_V_per_m = 2.5e3\nomega_rad_per_s = 3e15\n"
            "sigma_S_per_m = 5e7\n")
    point = run(parse_config(text))
    report = run(parse_config(text + "sweep = guard_k_over_alpha:[0.1, 0.9, 9]\n"))
    assert report.errors == [] and report.rows.shape == (9, 10)
    assert (report.rows.view(np.int64) == point.rows.view(np.int64)).all()
    assert report.residuals == point.residuals
    # a config of numbers gives (1,) columns, the bits of the (m,) rows
    columns = pressures(1.33, 2.5e3, 3e15, 5e7)
    assert {c.shape for c in columns.values()} == {(1,)}
    assert np.array(list(columns.values())).T.tobytes() == point.rows.tobytes()


def test_one_point_columns_are_the_rows_of_a_stack():
    # numpy rounds a complex product of scalars apart from its array loop;
    # mirror_pressures keeps every point on the array loop
    rng = np.random.default_rng(21)
    n, E0 = rng.uniform(1.0, 2.0, 64), 10.0 ** rng.uniform(0.0, 6.0, 64)
    omega = rng.uniform(2e15, 4e15, 64)
    sigma = sigma_for_ratio(n, omega, rng.uniform(0.01, 0.19, 64))
    stack = pressures(n, E0, omega, sigma)
    for i in range(n.size):
        point = pressures(n[i], E0[i], omega[i], sigma[i])
        assert all(point[name].tobytes() == column[i:i + 1].tobytes()
                   for name, column in stack.items())


def test_a_magnetic_liquid_cannot_be_set():
    # the liquid is nonmagnetic by construction: the config holds its index alone
    with pytest.raises(TypeError, match="mu_r"):
        MirrorConfig(1.5, 1e3, 3e15, 5e7, mu_r=1.2)


def test_import_loads_no_scipy():
    code = ("import sys, abmink; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# one evaluation per request
# ---------------------------------------------------------------------------

MIRROR_TEXT = {"n": "1.33", "E0_V_per_m": "1e3", "omega_rad_per_s": "3e15",
               "sigma_S_per_m": "5e7"}
# k/alpha is about 0.043 at the base point and crosses the guard 0.2 near
# n = 6.1, omega = 6.4e16 and sigma = 2.3e6: n and omega reject the high
# end of their sweeps, sigma the low end
GUARD_CROSSINGS = [("n", "1.0", "10.0", "tail"), ("omega_rad_per_s", "1e15", "1e17", "tail"),
                   ("sigma_S_per_m", "1e6", "1e8", "head")]


def mirror_text(swept=None, lo=None, hi=None, count=40, **values):
    keys = {**MIRROR_TEXT, **values}
    lines = [f"{k} = {v}" for k, v in keys.items() if k != swept]
    if swept:
        lines.append(f"sweep = {swept}:[{lo}, {hi}, {count}]")
    return "scenario = mirror\n" + "\n".join(lines) + "\n"


# the other closed-form scenarios: the keys they keep, the key they vary, a
# value in range, one a rule rejects (interface has no rule: one whose result
# overflows) and a sweep across the two
OTHER_REQUESTS = {
    "drag": ("sigma_a_m2 = 1e-19\nomega_rad_per_s = 1.6e13\nn = 3.5\n",
             "intensity_W_per_m2", "1e4", "-1", "[-1, 1e4, 5]"),
    "wgm": ("P0_W = 100\nomega0_rad_per_s = 1e3\n", "a_m", "1e-4", "0", "[-1e-4, 1e-4, 5]"),
    "sphere-kick": ("M_kg = 1e-10\na_m = 25e-6\ndeltaG_kg_m_per_s = 8.1e-12\n"
                    "pulse_energy_J = 5.9e-6\nn = 1.33\nviscosity_Pa_s = 1e-3\n",
                    "L0_m", "300e-6", "0", "[-1e-4, 3e-4, 5]"),
    "fiber": ("n = 1.45\n", "pulse_energy_J", "1e-6", "-5", "[-5, 5, 5]"),
    "bec": ("n = 1.33\n", "omega_rad_per_s", "3e15", "-3", "[-3, 3, 5]"),
    "interface": ("n_from = 1.0\nn_to = 1.33\n", "E_t_V_per_m", "1e3", "1e200",
                  "[1e3, 1e200, 5]"),
}


def closed_form_texts(scenario):
    """A point, a rejected point and sweeps that keep some points and reject
    the others; the last is such a sweep."""
    if scenario == "mirror":
        return [mirror_text(), mirror_text(sigma_S_per_m="1e5")] + [
            mirror_text(*crossing[:3]) for crossing in GUARD_CROSSINGS]
    keys, key, point, rejected, span = OTHER_REQUESTS[scenario]
    head = f"scenario = {scenario}\n{keys}"
    return [f"{head}{key} = {point}\n", f"{head}{key} = {rejected}\n",
            f"{head}sweep = {key}:{span}\n"]


def test_a_mirror_request_builds_one_config_and_one_k_over_alpha(monkeypatch):
    # and a request of any closed-form scenario builds one config: the one
    # its rules judge is the one its columns evaluate
    calls = collections.Counter()

    def config(cls, **p):
        calls["config"] += 1
        return unchecked(cls, **p)

    closed_form = [name for name, form in runner._SCENARIOS.items() if form.columns]
    assert len(closed_form) == 7
    # the runner builds each config, unchecked, through this name
    monkeypatch.setattr(runner, "unchecked", config)
    for name in ("k", "alpha", "k_over_alpha"):
        def counted_property(self, func=getattr(MirrorConfig, name).func, name=name):
            calls[name] += 1
            return func(self)
        prop = functools.cached_property(counted_property)
        prop.__set_name__(MirrorConfig, name)
        monkeypatch.setattr(MirrorConfig, name, prop)
    for scenario in closed_form:
        want = {"config": 1} | ({"k": 1, "alpha": 1, "k_over_alpha": 1}
                                if scenario == "mirror" else {})
        for text in closed_form_texts(scenario):
            calls.clear()
            report = run(parse_config(text))
            assert calls == want, text
        assert report.errors and len(report.rows), text


@pytest.mark.parametrize("param, lo, hi, rejected", GUARD_CROSSINGS)
def test_kept_rows_are_the_rows_of_the_in_regime_points_alone(param, lo, hi, rejected):
    report = run(parse_config(mirror_text(param, lo, hi)))
    values = np.linspace(float(lo), float(hi), 40)
    kept = report.rows[:, report.columns.index(param)]
    assert 0 < len(report.errors) < 40 and len(kept) + len(report.errors) == 40
    # the rejected points lie on one side of the guard, the kept on the other
    assert (kept == (values[-len(kept):] if rejected == "head" else values[:len(kept)])).all()
    rows = np.vstack([run(parse_config(mirror_text(**{param: repr(v)}))).rows
                      for v in kept.tolist()])
    assert rows.tobytes() == report.rows.tobytes()
    # and so are the rows of one evaluation of the kept points as arrays
    p = {key: np.float64(v) for key, v in report.params.items()} | {param: kept.copy()}
    form = runner._SCENARIOS["mirror"]
    with np.errstate(all="ignore"):
        columns, table, residuals, errors = form.evaluate(form, p, None, len(kept))
    assert errors == {} and table.tobytes() == report.rows.tobytes()
    assert residuals == report.residuals
