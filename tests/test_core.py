"""Tests for the 3+1 field quantities and force densities."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import abmink
from abmink import core, runner
from abmink import (
    SI,
    FieldPoint,
    Medium,
    MomentumTag,
    PlaneWave,
    RegimeError,
    SourceDensities,
    abraham_force_density,
    abraham_term,
    em_quantities,
    energy_density,
    interface_pressure,
    mechanical_momentum_density,
    minkowski_force_density,
    momentum_density,
    poynting,
    stress_tensor,
    time_average,
)

VACUUM = Medium.from_index(1.0)


def random_nonmagnetic_fieldpoint(rng):
    medium = Medium.from_index(rng.uniform(1.0, 2.0))
    E = rng.normal(size=3)
    H = rng.normal(size=3) / (SI.mu0 * SI.c)  # comparable magnetic scale
    return medium, FieldPoint.from_EH(medium, E, H)


# ---------------------------------------------------------------------------
# constants and domain types
# ---------------------------------------------------------------------------

def test_constants_consistency():
    assert abs(SI.c**2 * SI.eps0 * SI.mu0 - 1.0) < 1e-12
    for value in (SI.c, SI.eps0, SI.mu0, SI.hbar, SI.e_charge):
        assert value > 0.0


def test_constants_are_one_instance_with_nothing_to_set():
    assert "PhysicalConstants" not in vars(core) and "PhysicalConstants" not in vars(abmink)
    assert SI.eps0 == 1.0 / (4e-7 * math.pi * 299792458.0**2)
    with pytest.raises(AttributeError):
        SI.c = 1.0
    with pytest.raises(TypeError):
        type(SI)(c=1.0)


def test_medium_index_consistency():
    m = Medium(eps_r=2.25, mu_r=1.0)
    assert m.n == pytest.approx(1.5, rel=1e-15)
    assert Medium.from_index(1.33).eps_r == pytest.approx(1.33**2, rel=1e-15)
    with pytest.raises(ValueError):
        Medium(eps_r=2.25, mu_r=1.0, n=1.4)


@pytest.mark.parametrize("kwargs", [
    dict(eps_r=0.5),
    dict(eps_r=2.0, mu_r=0.0),
])
def test_medium_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        Medium(**kwargs)


@pytest.mark.parametrize("mu_r", [0.0, -0.0, -1.0, math.nan])
def test_medium_from_index_rejects_zero_mu_r_by_its_rule(mu_r):
    # n * n / mu_r would divide by zero, or give an eps_r the caller never
    # passed, before the rule could word it
    with pytest.raises(ValueError, match=re.escape(f"mu_r must be > 0, got {mu_r}")):
        Medium.from_index(1.5, mu_r=mu_r)
    with pytest.raises(ValueError, match=re.escape(f"mu_r must be > 0, got {mu_r}")):
        Medium.from_index(np.array([1.5, 2.0]), mu_r=mu_r)


@pytest.mark.parametrize("build", [
    # inf <= inf once passed the n check, and from_index's eps_r = n * n / inf
    # = 0 broke the eps_r rule, which names a key the caller never set
    lambda: Medium(eps_r=2.25, mu_r=math.inf, n=1.5),
    lambda: Medium(eps_r=2.25, mu_r=math.inf),
    lambda: Medium.from_index(1.5, mu_r=math.inf),
    lambda: Medium.from_index(np.array([1.5, 2.0]), mu_r=math.inf),
])
def test_medium_rejects_an_infinite_mu_r_by_its_rule(build):
    with pytest.raises(ValueError, match="^mu_r must be finite, got inf$"):
        build()


@pytest.mark.parametrize("kwargs, message", [
    # a row-major reading of these names the wrong row or indexes past it
    (dict(eps_r=np.array([[2.0, 0.5], [3.0, 4.0]])), "eps_r must have shape () or (m,), "
     "got (2, 2)"),
    (dict(eps_r=np.array([[2.0, 3.0], [0.5, 4.0]])), "eps_r must have shape () or (m,), "
     "got (2, 2)"),
    (dict(eps_r=2.25, n=np.array([[1.5], [1.5]])), "n must have shape () or (m,), "
     "got (2, 1)"),
    (dict(eps_r=np.ones((1, 1, 3)), n=np.ones(3)), "eps_r must have shape () or (m,), "
     "got (1, 1, 3)"),
])
def test_medium_rejects_other_shapes_by_name(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Medium(**kwargs)


def test_medium_takes_0d_and_1d_arrays_as_before():
    m = Medium(eps_r=np.array(2.25))
    assert m.n == 1.5 and m.eps_r.shape == ()
    rows = Medium(eps_r=np.array([2.25, 4.0]))
    np.testing.assert_array_equal(rows.n, [1.5, 2.0])
    with pytest.raises(ValueError, match=re.escape("eps_r must be >= 1, got 0.5")):
        Medium(eps_r=np.array([2.0, 0.5]))
    with pytest.raises(ValueError, match=re.escape("eps_r must be >= 1, got 0.5")):
        Medium(eps_r=np.array(0.5))


NAN = math.nan


@pytest.mark.parametrize("build, message", [
    (lambda: Medium.from_index(NAN), "eps_r must be >= 1, got nan"),
    (lambda: Medium(eps_r=NAN), "eps_r must be >= 1, got nan"),
    (lambda: Medium(eps_r=2.0, mu_r=NAN), "mu_r must be > 0, got nan"),
    (lambda: Medium(eps_r=2.25, n=NAN), "n=nan inconsistent"),
    # the array path: the first row the scalar rules reject
    (lambda: Medium.from_index(np.array([1.5, NAN])), "eps_r must be >= 1, got nan"),
    (lambda: Medium(eps_r=np.array([2.25, NAN])), "eps_r must be >= 1, got nan"),
    (lambda: Medium(eps_r=np.array([2.25, 4.0]), n=np.array([1.5, NAN])),
     "n=nan inconsistent"),
])
def test_medium_rejects_nan(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_fieldpoint_constitutive_exact():
    m = Medium.from_index(1.5)
    E = np.array([1.0, -2.0, 0.5])
    H = np.array([0.3, 0.0, -7.0])
    fp = FieldPoint.from_EH(m, E, H)
    # multiplication by the same scalars, so bit-exact
    assert np.array_equal(fp.D, SI.eps0 * m.eps_r * E)
    assert np.array_equal(fp.B, SI.mu0 * m.mu_r * H)


# ---------------------------------------------------------------------------
# poynting / momentum / energy / stress
# ---------------------------------------------------------------------------

def test_poynting_unit_cross_product():
    fp = FieldPoint.from_EH(VACUUM, [1, 0, 0], [0, 1, 0])
    np.testing.assert_allclose(poynting(fp), [0, 0, 1], atol=0)


def test_poynting_zero_field():
    np.testing.assert_array_equal(poynting(FieldPoint.zero()), np.zeros(3))


def test_poynting_hand_value():
    fp = FieldPoint.from_EH(VACUUM, [2, 0, 0], [0, 3, 0])
    np.testing.assert_allclose(poynting(fp), [0, 0, 6], rtol=1e-15)


def test_momentum_tags_coincide_in_vacuum():
    fp = FieldPoint.from_EH(VACUUM, [3.0, 1.0, -2.0], [0.5, 2.0, 1.0])
    g_a = momentum_density(fp, MomentumTag.ABRAHAM)
    g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
    np.testing.assert_allclose(g_m, g_a, rtol=1e-12)


def test_momentum_ratio_is_n_squared():
    wave = PlaneWave(E0=250.0, omega=3e15, direction=(1, 0, 0),
                     polarization=(0, 1, 0), medium=Medium.from_index(1.5))
    fp = wave.field_at(t=0.1e-15)
    g_a = momentum_density(fp, MomentumTag.ABRAHAM)
    g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
    np.testing.assert_allclose(g_m, 2.25 * g_a, rtol=1e-12)


def test_stacked_field_points_match_one_by_one():
    rng = np.random.default_rng(3)
    medium = Medium.from_index(1.4)
    E, H = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    stack = FieldPoint.from_EH(medium, E, H)
    assert stack.D.shape == (5, 3) and not stack.B.flags.writeable
    for i in range(5):
        fp = FieldPoint.from_EH(medium, E[i], H[i])
        np.testing.assert_array_equal(poynting(stack)[i], poynting(fp))
        for tag in MomentumTag:
            np.testing.assert_array_equal(momentum_density(stack, tag)[i],
                                          momentum_density(fp, tag))
    with pytest.raises(ValueError):
        FieldPoint.from_EH(medium, np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# E x H, computed once per FieldPoint
# ---------------------------------------------------------------------------

def test_em_quantities_and_the_ledger_form_e_cross_h_once(monkeypatch):
    calls, cross = [], core.cross

    def spy(a, b):
        calls.append(1)
        return cross(a, b)

    monkeypatch.setattr(core, "cross", spy)
    em_quantities(random_nonmagnetic_fieldpoint(np.random.default_rng(4))[1])
    assert len(calls) == 2  # E x H and D x B
    calls.clear()
    runner._ledger_residual(*runner._check_inputs()[2])
    assert len(calls) == 2


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                   st.floats(-1e3, 1e3))


def _field(data, mu_r=1.0):
    """A medium and the E and H of a single point or an (m, 3) stack, whose
    rows the medium's index may vary over."""
    shape = data.draw(st.sampled_from([(), (1,), (5,)]))
    index = st.floats(1.0, 3.0)
    n = data.draw(index if not shape else st.one_of(index, arrays(float, shape, elements=index)))
    E, H = (data.draw(arrays(float, shape + (3,), elements=_ENTRY)) for _ in range(2))
    return Medium.from_index(n, mu_r), E, H


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_e_cross_h_kernels_keep_the_bits_of_their_formulas(data):
    medium, E, H = _field(data)
    with np.errstate(all="ignore"):  # inf and nan inputs make invalid products
        fp = FieldPoint.from_EH(medium, E, H)
        got = [mechanical_momentum_density(medium, fp), poynting(fp),
               momentum_density(fp, MomentumTag.ABRAHAM),
               momentum_density(fp, MomentumTag.MINKOWSKI)]
        S = core.cross(fp.E, fp.H)
        want = [core._per_row((np.float_power(medium.n, 2) - 1.0) / SI.c**2) * S,
                S, S / SI.c**2, core.cross(fp.D, fp.B)]
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_the_shared_e_cross_h_cannot_be_written():
    _, fp = random_nonmagnetic_fieldpoint(np.random.default_rng(6))
    S = poynting(fp)
    with pytest.raises(ValueError, match="read-only"):
        S[0] = 1.0
    g = momentum_density(fp, MomentumTag.ABRAHAM)
    g[0] = 1.0  # a derived array is the caller's own
    np.testing.assert_array_equal(poynting(fp), core.cross(fp.E, fp.H))
    np.testing.assert_array_equal(momentum_density(fp, MomentumTag.ABRAHAM),
                                  core.cross(fp.E, fp.H) / SI.c**2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_eh_builds_what_the_checked_constructor_builds(data):
    medium, E, H = _field(data, data.draw(st.sampled_from([1.0, 0.5])))
    with np.errstate(all="ignore"):
        fp = FieldPoint.from_EH(medium, E, H)
        want = FieldPoint(E=E, D=core._per_row(SI.eps0 * medium.eps_r) * E,
                          H=H, B=SI.mu0 * medium.mu_r * H)
    for name in "EDHB":
        got = getattr(fp, name)
        assert got.shape == getattr(want, name).shape
        assert got.tobytes() == getattr(want, name).tobytes()
        assert not got.flags.writeable
        assert not np.shares_memory(got, E) and not np.shares_memory(got, H)


def test_abraham_momentum_hand_value():
    # E = x_hat V/m, H = y_hat A/m in vacuum: g_A = z_hat / c^2
    fp = FieldPoint.from_EH(VACUUM, [1, 0, 0], [0, 1, 0])
    g_a = momentum_density(fp, MomentumTag.ABRAHAM)
    np.testing.assert_allclose(g_a, [0, 0, 1.1126500560536185e-17], rtol=1e-12)


def test_energy_density_zero_and_electric_value():
    assert energy_density(FieldPoint.zero()) == 0.0
    fp = FieldPoint.from_EH(VACUUM, [1, 0, 0], [0, 0, 0])
    # eps0 / 2 with eps0 = 1/(mu0 c^2)
    assert energy_density(fp) == pytest.approx(4.4270939088101946e-12, rel=1e-12)


def test_plane_wave_energy_equipartition():
    wave = PlaneWave(E0=120.0, omega=2.4e15, direction=(0, 0, 1),
                     polarization=(1, 0, 0), medium=Medium.from_index(1.33))
    period = 2 * math.pi / wave.omega
    ts = np.linspace(0.0, period, 257)
    we = time_average([(t, float(wave.field_at(t=t).E @ wave.field_at(t=t).D))
                       for t in ts], period) / 2
    wm = time_average([(t, float(wave.field_at(t=t).H @ wave.field_at(t=t).B))
                       for t in ts], period) / 2
    assert we == pytest.approx(wm, rel=1e-12)


def test_stress_zero_fields():
    np.testing.assert_array_equal(stress_tensor(FieldPoint.zero()),
                                  np.zeros((3, 3)))


def test_stress_pure_electric():
    E0 = 7.0
    fp = FieldPoint.from_EH(VACUUM, [E0, 0, 0], [0, 0, 0])
    expect = np.diag([-1.0, 1.0, 1.0]) * SI.eps0 * E0**2 / 2
    np.testing.assert_allclose(stress_tensor(fp), expect, rtol=1e-14)


def test_stress_symmetric_for_isotropic_fields():
    rng = np.random.default_rng(3)
    for _ in range(50):
        _, fp = random_nonmagnetic_fieldpoint(rng)
        st = stress_tensor(fp)
        np.testing.assert_allclose(st, st.T, atol=1e-15 * np.max(np.abs(st)))


def test_em_quantities_bundle():
    rng = np.random.default_rng(11)
    medium, fp = random_nonmagnetic_fieldpoint(rng)
    q = em_quantities(fp)
    np.testing.assert_array_equal(q.S, poynting(fp))
    assert q.w >= 0.0
    scale = np.max(np.abs(q.g_M))
    np.testing.assert_allclose(q.g_M, medium.n**2 * q.g_A,
                               rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(q.g_A, q.S / SI.c**2, rtol=1e-12)


# ---------------------------------------------------------------------------
# force densities
# ---------------------------------------------------------------------------

def test_minkowski_force_homogeneous_source_free():
    fp = FieldPoint.from_EH(Medium.from_index(1.4), [5, 1, 2], [1, 0, 3])
    f = minkowski_force_density(SourceDensities(), fp, np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(f, np.zeros(3))


def test_minkowski_force_coulomb_term():
    fp = FieldPoint.from_EH(VACUUM, [1, 0, 0], [0, 0, 0])
    f = minkowski_force_density(SourceDensities(rho=1.0), fp,
                                np.zeros(3), np.zeros(3))
    np.testing.assert_allclose(f, [1, 0, 0], rtol=1e-15)


def test_minkowski_force_permittivity_gradient():
    fp = FieldPoint.from_EH(VACUUM, [1, 0, 0], [0, 0, 0])  # E^2 = 1
    f = minkowski_force_density(SourceDensities(), fp, [2.0, 0, 0], np.zeros(3))
    np.testing.assert_allclose(f, [-SI.eps0, 0, 0], rtol=1e-15)


def test_abraham_term_vacuum_and_stationary():
    np.testing.assert_array_equal(
        abraham_term(VACUUM, [9e16, 0, 0]), np.zeros(3))
    np.testing.assert_array_equal(
        abraham_term(Medium.from_index(1.5), np.zeros(3)), np.zeros(3))


def test_abraham_term_hand_value():
    # (n^2 - 1)/c^2 * 9e16 with n = 1.5 and the exact c
    f = abraham_term(Medium.from_index(1.5), [9e16, 0, 0])
    np.testing.assert_allclose(f, [1.2517313130603207, 0, 0], rtol=1e-12)


def test_abraham_term_rejects_magnetic():
    magnetic = Medium(eps_r=2.0, mu_r=1.5)
    with pytest.raises(RegimeError):
        abraham_term(magnetic, [1, 0, 0])


def test_abraham_force_density_composition():
    medium = Medium.from_index(1.5)
    rng = np.random.default_rng(5)
    fp = FieldPoint.from_EH(medium, rng.normal(size=3), rng.normal(size=3))
    grad_n2 = rng.normal(size=3)
    dS_dt = rng.normal(size=3) * 1e10
    total = abraham_force_density(medium, fp, grad_n2, dS_dt)
    shared = abraham_force_density(medium, fp, grad_n2, np.zeros(3))
    term = abraham_term(medium, dS_dt)
    # the two pieces sum exactly (identical float operations)
    np.testing.assert_array_equal(total, shared + term)
    with pytest.raises(RegimeError):
        abraham_force_density(Medium(eps_r=2.0, mu_r=2.0), fp, grad_n2, dS_dt)


def test_abraham_force_homogeneous_stationary_is_zero():
    medium = Medium.from_index(1.5)
    fp = FieldPoint.from_EH(medium, [1, 2, 3], [4, 5, 6])
    f = abraham_force_density(medium, fp, np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(f, np.zeros(3))


def test_static_surface_force_same_for_both_formalisms():
    # with dS/dt = 0 and homogeneous mu the two force densities coincide
    rng = np.random.default_rng(17)
    for _ in range(25):
        medium, fp = random_nonmagnetic_fieldpoint(rng)
        grad_n2 = rng.normal(size=3)
        f_a = abraham_force_density(medium, fp, grad_n2, np.zeros(3))
        f_m = minkowski_force_density(SourceDensities(), fp, grad_n2,
                                      np.zeros(3))  # grad eps = grad n^2
        np.testing.assert_allclose(f_a, f_m, rtol=1e-12,
                                   atol=1e-15 * np.max(np.abs(f_m) + 1e-300))


def test_mechanical_momentum_closes_the_ledger():
    rng = np.random.default_rng(23)
    for _ in range(200):
        medium, fp = random_nonmagnetic_fieldpoint(rng)
        g_a = momentum_density(fp, MomentumTag.ABRAHAM)
        g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
        g_mech = mechanical_momentum_density(medium, fp)
        scale = np.max(np.abs(g_m))
        np.testing.assert_allclose(g_a + g_mech, g_m,
                                   rtol=1e-12, atol=1e-12 * scale)


def test_mechanical_momentum_values():
    np.testing.assert_array_equal(
        mechanical_momentum_density(VACUUM, FieldPoint.from_EH(VACUUM, [1, 2, 3], [4, 5, 6])),
        np.zeros(3))
    # n = 1.5 and E x H = z_hat: (n^2-1)/c^2 along z
    fp = FieldPoint.from_EH(Medium.from_index(1.5), [1, 0, 0], [0, 1, 0])
    g = mechanical_momentum_density(Medium.from_index(1.5), fp)
    np.testing.assert_allclose(g, [0, 0, 1.25 / SI.c**2], rtol=1e-12)
    with pytest.raises(RegimeError):
        mechanical_momentum_density(Medium(eps_r=2.0, mu_r=3.0), fp)


# ---------------------------------------------------------------------------
# time averaging
# ---------------------------------------------------------------------------

def test_time_average_constant():
    ts = np.linspace(0.0, 2.0, 41)
    assert time_average([(t, 3.5) for t in ts], 1.0) == pytest.approx(3.5)


def test_time_average_sine_over_one_period():
    ts = np.linspace(0.0, 1.0, 65)
    avg = time_average([(t, math.sin(2 * math.pi * t)) for t in ts], 1.0)
    assert abs(avg) <= 1e-9


def test_time_average_discards_partial_period():
    # 1.5 periods sampled: the plain mean of sin is biased, the period average is not
    ts = np.linspace(0.0, 1.5, 193)
    vals = [math.sin(2 * math.pi * t) for t in ts]
    assert abs(np.mean(vals)) > 1e-3
    assert abs(time_average(list(zip(ts, vals)), 1.0)) <= 1e-9


def test_time_average_vector_values():
    ts = np.linspace(0.0, 4.0, 129)
    avg = time_average([(t, np.array([math.cos(2 * math.pi * t), 1.0]))
                        for t in ts], 1.0)
    np.testing.assert_allclose(avg, [0.0, 1.0], atol=1e-9)


def test_time_average_rejects_bad_sampling():
    with pytest.raises(ValueError):
        time_average([(0.0, 1.0), (0.1, 1.0), (0.3, 1.0), (1.2, 1.0)], 1.0)
    ts = np.linspace(0.0, 0.5, 33)
    with pytest.raises(ValueError):
        time_average([(t, 1.0) for t in ts], 1.0)


def test_abraham_term_averages_out_for_plane_wave():
    medium = Medium.from_index(1.5)
    wave = PlaneWave(E0=300.0, omega=2.8e15, direction=(1, 0, 0),
                     polarization=(0, 0, 1), medium=medium)
    period = 2 * math.pi / wave.omega
    ts = np.linspace(0.0, 10 * period, 10 * 128 + 1)
    samples = [(t, abraham_term(medium, wave.poynting_time_derivative(t=t)))
               for t in ts]
    peak = (medium.n**2 - 1) / SI.c**2 * wave.E0 * wave.H0 * wave.omega
    avg = time_average(samples, period)
    assert np.max(np.abs(avg)) <= 1e-9 * peak


# ---------------------------------------------------------------------------
# interface pressure
# ---------------------------------------------------------------------------

def test_interface_pressure_no_step():
    assert interface_pressure(1e3, 1.33, 1.33) == 0.0


def test_interface_pressure_air_to_water_pulls_outward():
    # entering the denser medium: force points back toward the air side
    assert interface_pressure(1e3, 1.0, 1.33) < 0.0


def test_interface_pressure_unit_step():
    # E_t = 1 V/m and an n^2 step of one: eps0/2
    assert interface_pressure(1.0, math.sqrt(2.0), 1.0) == pytest.approx(
        4.4270939088101946e-12, rel=1e-12)


# ---------------------------------------------------------------------------
# plane wave type
# ---------------------------------------------------------------------------

def test_plane_wave_validation():
    m = Medium.from_index(1.5)
    with pytest.raises(ValueError):
        PlaneWave(E0=1.0, omega=1e15, direction=(1, 0, 0),
                  polarization=(1, 0, 0), medium=m)
    with pytest.raises(ValueError):
        PlaneWave(E0=1.0, omega=1e15, direction=(2, 0, 0),
                  polarization=(0, 1, 0), medium=m)


@pytest.mark.parametrize("kwargs, message", [
    (dict(omega=NAN), "omega must be > 0, got nan"),
    (dict(direction=(NAN, 0, 0)), "direction must be a unit vector"),
    (dict(polarization=(0, NAN, 0)), "polarization must be a unit vector"),
])
def test_plane_wave_rejects_nan(kwargs, message):
    # each check is written so that NaN breaks it
    wave = dict(E0=1.0, omega=1e15, direction=(1, 0, 0), polarization=(0, 1, 0),
                medium=Medium.from_index(1.5))
    with pytest.raises(ValueError, match=re.escape(message)):
        PlaneWave(**(wave | kwargs))


def test_plane_wave_dispersion():
    wave = PlaneWave(E0=1.0, omega=3e15, direction=(1, 0, 0),
                     polarization=(0, 1, 0), medium=Medium.from_index(1.5))
    assert wave.k == pytest.approx(1.5 * 3e15 / SI.c, rel=1e-15)
