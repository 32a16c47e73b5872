"""Tests for the experiment scenarios."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from abmink import SI, Medium, MomentumTag, RegimeError
from abmink.runner import parse_config, run
from abmink.scenarios import (
    DragConfig,
    MirrorConfig,
    SphereKickConfig,
    TorqueConfig,
    bec_recoil,
    displacement_correction,
    displacement_ratio,
    fiber_exit_impulse,
    metal_fields,
    mirror_pressures,
    photon_drag_field,
    pressure_from_reflectance,
    sphere_kick_trajectory,
    sphere_kick_vmax,
    sphere_total_displacement,
    wgm_torque,
)


def mirror_cfg(n=1.33, sigma=5e7, omega=3e15, E0=1e3, **kw):
    return MirrorConfig(medium=Medium.from_index(n), E0=E0, omega=omega,
                        conductivity=sigma, **kw)


def mirror_point(cfg):
    """The columns of mirror_pressures at the single point of cfg, as floats."""
    return {name: float(column[0]) for name, column in mirror_pressures(cfg).items()}


def cfg_for_ratio(n, k_over_alpha, flux):
    """Mirror config hitting a prescribed k/alpha and incident flux."""
    omega = 3e15
    k = n * omega / SI.c
    alpha = k / k_over_alpha
    sigma = 2.0 * alpha**2 / (SI.mu0 * omega)
    E0 = math.sqrt(2.0 * SI.mu0 * SI.c * flux / n)
    return mirror_cfg(n=n, sigma=sigma, omega=omega, E0=E0)


# ---------------------------------------------------------------------------
# immersed mirror
# ---------------------------------------------------------------------------

def test_mirror_guard_rejects_poor_conductor():
    with pytest.raises(RegimeError, match="k/alpha"):
        mirror_cfg(sigma=1e5)


def test_mirror_flux_hand_value():
    # n = 1.33, R = 0.95, S_i = 1e4 W/m^2 -> n (1+R) S_i / c
    cfg = cfg_for_ratio(n=1.33, k_over_alpha=0.025, flux=1e4)
    res = mirror_point(cfg)
    assert res["reflectance"] == pytest.approx(0.95, rel=1e-12)
    assert res["incident_flux_W_per_m2"] == pytest.approx(1e4, rel=1e-12)
    assert res["pressure_flux_Pa"] == pytest.approx(8.650984808964073e-05, rel=1e-9)
    assert res["phase_rad"] == pytest.approx(math.atan(-0.025), rel=1e-12)


def test_mirror_flux_perfect_reflection_limit():
    cfg = mirror_cfg(sigma=1e12)  # k/alpha ~ 1e-3
    res = mirror_point(cfg)
    ideal = 2.0 * cfg.medium.n * res["incident_flux_W_per_m2"] / SI.c
    assert res["pressure_flux_Pa"] == pytest.approx(ideal, rel=5e-3)
    assert res["reflectance"] > 0.998


def test_mirror_pressure_proportional_to_index():
    # at fixed R and S_i the pressure scales exactly as n
    base = pressure_from_reflectance(1.0, 0.9, 1e4)
    for n in (1.33, 1.5, 1.6):
        assert pressure_from_reflectance(n, 0.9, 1e4) / base == pytest.approx(
            n, abs=1e-12)


def test_mirror_pressure_monotonic_in_index():
    values = [pressure_from_reflectance(n, 0.92, 2e4)
              for n in np.linspace(1.0, 1.6, 13)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_metal_fields_surface_values():
    cfg = mirror_cfg()
    s0 = metal_fields(cfg, 0.0)
    r = cfg.k_over_alpha
    assert abs(s0.E_y) == pytest.approx(math.sqrt(2.0) * cfg.k * cfg.E0 / cfg.alpha,
                                        rel=1e-12)
    expect_h = cfg.k * cfg.E0 / (SI.mu0 * cfg.omega) * abs(2.0 + (1j - 1.0) * r)
    assert abs(s0.H_z) == pytest.approx(expect_h, rel=1e-12)
    # perfect-conductor limit of the magnetic amplitude
    cfg2 = mirror_cfg(sigma=1e12)
    s2 = metal_fields(cfg2, 0.0)
    assert abs(s2.H_z) == pytest.approx(2.0 * cfg2.k * cfg2.E0 / (SI.mu0 * cfg2.omega),
                                        rel=1e-3)


def test_metal_fields_decay():
    cfg = mirror_cfg()
    x40 = 40.0 / cfg.alpha
    s0, s40 = metal_fields(cfg, 0.0), metal_fields(cfg, x40)
    assert abs(s40.E_y) <= 1e-15 * abs(s0.E_y)
    assert abs(s40.H_z) <= 1e-15 * abs(s0.H_z)
    xs = np.linspace(0.0, 5.0 / cfg.alpha, 30)
    mags = [abs(metal_fields(cfg, x).E_y) for x in xs]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    with pytest.raises(ValueError):
        metal_fields(cfg, -1e-9)


@pytest.mark.parametrize("x", [math.nan, -1e-9, np.array([0.0, math.nan, 1e-8]),
                               np.array([1e-8, -0.5e-9]), np.array([math.nan])])
def test_metal_fields_rejects_negative_and_nan_depths(x):
    # the same message for every depth the check breaks on, NaN included
    with pytest.raises(ValueError, match=r"^depth x must be >= 0, got ") as err:
        metal_fields(mirror_cfg(), x)
    assert str(err.value) == f"depth x must be >= 0, got {x}"


def test_metal_fields_accept_zero_and_positive_depths():
    cfg = mirror_cfg()
    xs = np.array([0.0, -0.0, 1e-9, 1.0])
    sample = metal_fields(cfg, xs)
    assert np.isfinite(sample.E_y).all() and np.isfinite(sample.H_z).all()
    assert sample.E_y[0] == sample.E_y[1] == metal_fields(cfg, 0.0).E_y


def test_lorentz_integral_closed_form():
    # Re[(1-i)(2 - (1+i) k/alpha)] = 2 - 2 k/alpha = 1 + R, so the integral
    # reproduces the flux result exactly; check the Lorentz route against both
    cfg = mirror_cfg()
    res = mirror_point(cfg)
    flux = res["pressure_flux_Pa"]
    k, alpha = cfg.k, cfg.alpha
    closed = (0.5 * SI.mu0 * cfg.conductivity
              * (k * cfg.E0 / alpha) * (k * cfg.E0 / (SI.mu0 * cfg.omega))
              * (1.0 + res["reflectance"]) / (2.0 * alpha))
    numeric = res["pressure_lorentz_Pa"]
    assert closed == pytest.approx(flux, rel=1e-12)
    # the skin-field route agrees with the flux route
    assert numeric == pytest.approx(flux, rel=1e-9)


def test_lorentz_zero_amplitude():
    cfg = mirror_cfg(E0=0.0)
    assert mirror_point(cfg)["pressure_lorentz_Pa"] == 0.0


def test_divergence_route_matches_flux():
    for n, sigma, omega in [(1.0, 1e7, 2.6e15), (1.33, 5e7, 3e15),
                            (1.6, 1e8, 4.5e15)]:
        cfg = mirror_cfg(n=n, sigma=sigma, omega=omega)
        res = mirror_point(cfg)
        a, b = res["pressure_flux_Pa"], res["pressure_divergence_Pa"]
        assert b == pytest.approx(a, rel=1e-12)


def test_divergence_route_incident_only_term():
    cfg = mirror_cfg()
    res = mirror_point(cfg)
    flux = res["incident_flux_W_per_m2"]
    incident_part = res["pressure_divergence_Pa"] \
        - cfg.medium.n * res["reflectance"] * flux / SI.c
    assert incident_part == pytest.approx(cfg.medium.n * flux / SI.c, rel=1e-12)


def test_three_way_agreement_over_n_sweeps():
    reports = [run(parse_config(f"scenario = mirror\nE0_V_per_m = 1e3\n"
                                f"sigma_S_per_m = {sigma!r}\nomega_rad_per_s = {omega!r}\n"
                                "sweep = n:[1.0, 1.6, 3]\n"))
               for sigma in np.logspace(7, 8, 3).tolist()
               for omega in np.linspace(2.6e15, 4.5e15, 3).tolist()]
    assert [len(r.rows) for r in reports] == [3] * 9
    assert max(r.residuals["three_way_max_rel_diff"] for r in reports) <= 1e-6


def test_out_of_regime_point_is_an_error_without_rows():
    report = run(parse_config("scenario = mirror\nn = 1.6\nE0_V_per_m = 1e3\n"
                              "sigma_S_per_m = 1e5\nomega_rad_per_s = 4.5e15\n"))
    assert report.rows.size == 0 and report.residuals == {}
    assert report.errors[0].startswith("good-conductor approximation requires k/alpha")


# ---------------------------------------------------------------------------
# photon drag / BEC / fiber
# ---------------------------------------------------------------------------

def test_drag_field_tags_and_ratio():
    cfg = DragConfig(intensity=1e4, sigma_a=1e-19, omega=1.6e12, n=4.0)
    e_m = photon_drag_field(cfg, MomentumTag.MINKOWSKI)
    e_a = photon_drag_field(cfg, MomentumTag.ABRAHAM)
    assert e_m / e_a == pytest.approx(cfg.n**2, rel=1e-12)
    # Minkowski: E = I sigma_a n / (c e)
    assert e_m == pytest.approx(
        cfg.intensity * cfg.sigma_a * cfg.n / (SI.c * SI.e_charge), rel=1e-12)
    vac = DragConfig(intensity=1e4, sigma_a=1e-19, omega=1.6e12, n=1.0)
    assert photon_drag_field(vac, MomentumTag.MINKOWSKI) == pytest.approx(
        photon_drag_field(vac, MomentumTag.ABRAHAM), rel=1e-15)


def test_bec_recoil_vacuum_wavelength():
    omega = 2 * math.pi * SI.c / 780e-9
    # h / lambda for a 780 nm photon
    assert bec_recoil(1.0, omega) == pytest.approx(8.494961730769231e-28,
                                                   rel=1e-12)
    assert bec_recoil(1.0001, omega) == pytest.approx(
        1.0001 * bec_recoil(1.0, omega), rel=1e-15)
    assert bec_recoil(2.0, omega) == pytest.approx(2.0 * bec_recoil(1.0, omega),
                                                   rel=1e-15)


def test_fiber_exit_impulse():
    assert fiber_exit_impulse(2.7e-3, 1.5) == pytest.approx(
        4.5031152851750526e-12, rel=1e-12)
    assert fiber_exit_impulse(2.7e-3, 1.0) == 0.0
    assert fiber_exit_impulse(5.4e-3, 1.5) == pytest.approx(
        2.0 * fiber_exit_impulse(2.7e-3, 1.5), rel=1e-15)


def test_minkowski_scaling_shared_across_scenarios():
    # every Minkowski-tagged prediction reduces to hbar n omega / c per photon
    omega, energy = 2e15, 5.9e-6
    photons = energy / (SI.hbar * omega)
    for n in (1.0, 1.33, 1.5):
        cfg = DragConfig(intensity=2e4, sigma_a=3e-20, omega=2e12, n=n)
        e_m = photon_drag_field(cfg, MomentumTag.MINKOWSKI)
        assert e_m * SI.e_charge * SI.c / (cfg.intensity * cfg.sigma_a) \
            == pytest.approx(n, rel=1e-12)
        assert bec_recoil(n, 2e15) / bec_recoil(1.0, 2e15) == pytest.approx(
            n, rel=1e-12)
        # fiber impulse = photons x (in-medium recoil - vacuum recoil)
        assert fiber_exit_impulse(energy, n) == pytest.approx(
            photons * (bec_recoil(n, omega) - bec_recoil(1.0, omega)),
            rel=1e-12, abs=1e-30)
        # absorbed-pulse momentum = photons x in-medium recoil
        kick = sphere_cfg(n=n)
        assert kick.pulse_momentum(MomentumTag.MINKOWSKI) == pytest.approx(
            (kick.pulse_energy / (SI.hbar * omega)) * bec_recoil(n, omega),
            rel=1e-12)


# ---------------------------------------------------------------------------
# whispering-gallery torque
# ---------------------------------------------------------------------------

def test_wgm_amplitude_default_silica():
    cfg = TorqueConfig(n=1.45, a=100e-6, P0=100.0, omega0=1000.0)
    res = wgm_torque(cfg, 0.0)
    assert res.amplitude == pytest.approx(7.707562598862076e-20, rel=1e-12)
    assert res.torque == 0.0  # sin(0)


def test_wgm_zero_cases():
    cfg = TorqueConfig(n=1.0, a=100e-6, P0=100.0, omega0=1000.0)
    for t in (0.0, 1e-4, 3e-3):
        assert wgm_torque(cfg, t).torque == 0.0


def test_wgm_minkowski_variant_is_null():
    cfg = TorqueConfig(n=1.45, a=100e-6, P0=100.0, omega0=1000.0)
    res = wgm_torque(cfg, 7e-4, MomentumTag.MINKOWSKI)
    assert res.torque == 0.0 and res.amplitude == 0.0


def test_wgm_time_dependence():
    cfg = TorqueConfig(n=1.45, a=100e-6, P0=100.0, omega0=1000.0)
    t = 0.4e-3
    res = wgm_torque(cfg, t)
    assert res.torque == pytest.approx(-res.amplitude * math.sin(cfg.omega0 * t),
                                       rel=1e-15)


def test_wgm_amplitude_matches_volume_integral():
    # independent oracle: integrate r * f_phi over the volume with the
    # circulating flux concentrated in a narrow radial band at the rim
    cfg = TorqueConfig(n=1.45, a=100e-6, P0=100.0, omega0=1000.0)
    width = 1e-4 * cfg.a
    norm = 1.0 / (width * math.sqrt(2.0 * math.pi))

    def radial_profile(r):
        return norm * math.exp(-0.5 * ((r - cfg.a) / width) ** 2)

    moment, _ = quad(lambda r: r * r * radial_profile(r),
                     cfg.a - 10 * width, cfg.a + 10 * width,
                     epsabs=0.0, epsrel=1e-12)
    numeric = (cfg.n**2 - 1.0) / SI.c**2 * cfg.omega0 * 2.0 * math.pi \
        * cfg.P0 * moment
    assert wgm_torque(cfg, 0.0).amplitude == pytest.approx(numeric, rel=1e-6)


# ---------------------------------------------------------------------------
# microsphere kick
# ---------------------------------------------------------------------------

def sphere_cfg(n=1.33, mu=1.0e-3, **kw):
    defaults = dict(M=1e-10, a=25e-6, deltaG=8.1e-12, pulse_energy=5.9e-6,
                    fluid=Medium.from_index(n, viscosity=mu), L0=300e-6)
    defaults.update(kw)
    return SphereKickConfig(**defaults)


def test_sphere_vmax_zero_inputs():
    cfg = sphere_cfg(deltaG=0.0, pulse_energy=0.0)
    assert sphere_kick_vmax(cfg, MomentumTag.MINKOWSKI) == 0.0


def test_sphere_vmax_tags_agree_in_vacuum_index():
    cfg = sphere_cfg(n=1.0)
    vm = sphere_kick_vmax(cfg, MomentumTag.MINKOWSKI)
    va = sphere_kick_vmax(cfg, MomentumTag.ABRAHAM)
    assert vm == pytest.approx(va, rel=1e-15)
    assert vm == pytest.approx((cfg.deltaG + cfg.pulse_energy / SI.c) / cfg.M,
                               rel=1e-15)


def test_sphere_vmax_recoil_dominated():
    cfg = sphere_cfg(n=1.0)
    v = sphere_kick_vmax(cfg, MomentumTag.MINKOWSKI)
    photon = cfg.pulse_energy / SI.c
    assert photon / cfg.deltaG == pytest.approx(2.4297e-3, rel=1e-4)
    assert v == pytest.approx(0.08119680281616691, rel=1e-12)


def test_sphere_trajectory_boundaries():
    cfg = sphere_cfg()
    v_max = sphere_kick_vmax(cfg, MomentumTag.MINKOWSKI)
    v0, x0 = sphere_kick_trajectory(cfg, MomentumTag.MINKOWSKI, 0.0)
    assert v0 == pytest.approx(v_max, rel=1e-15) and x0 == 0.0
    L = sphere_total_displacement(cfg, MomentumTag.MINKOWSKI)
    v_inf, x_inf = sphere_kick_trajectory(cfg, MomentumTag.MINKOWSKI,
                                          60.0 * cfg.M / cfg.stokes_coefficient)
    assert v_inf <= 1e-20 * v_max
    assert x_inf == pytest.approx(L, rel=1e-12)
    # L * 6 pi mu a = M v_max
    assert L * cfg.stokes_coefficient == pytest.approx(cfg.M * v_max, rel=1e-12)
    with pytest.raises(ValueError):
        sphere_kick_trajectory(cfg, MomentumTag.MINKOWSKI, -1e-6)


def test_sphere_trajectory_matches_explicit_integration():
    cfg = sphere_cfg()
    tag = MomentumTag.MINKOWSKI
    v = sphere_kick_vmax(cfg, tag)
    tau = cfg.M / cfg.stokes_coefficient
    t_end, steps = 3.0 * tau, 30000
    dt = t_end / steps
    x = 0.0
    for _ in range(steps):  # RK4 on dv/dt = -v/tau, dx/dt = v
        k1 = -v / tau
        k2 = -(v + 0.5 * dt * k1) / tau
        k3 = -(v + 0.5 * dt * k2) / tau
        k4 = -(v + dt * k3) / tau
        x += dt / 6.0 * (v + 2 * (v + 0.5 * dt * k1)
                         + 2 * (v + 0.5 * dt * k2) + (v + dt * k3))
        v += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    v_cl, x_cl = sphere_kick_trajectory(cfg, tag, t_end)
    assert v == pytest.approx(v_cl, rel=1e-6)
    assert x == pytest.approx(x_cl, rel=1e-6)


def test_displacement_correction_magnitude():
    corr = displacement_correction(5.9e-6, 25e-6, 300e-6, 1.8e-5)
    assert corr == pytest.approx(0.007733861977128212, rel=1e-12)


def test_displacement_ratio_signs_and_identity():
    cfg = sphere_cfg(n=1.33, mu=1.0e-3)
    corr = displacement_correction(cfg.pulse_energy, cfg.a, cfg.L0,
                                   cfg.reference_fluid.viscosity)
    r_m = displacement_ratio(cfg, MomentumTag.MINKOWSKI)
    r_a = displacement_ratio(cfg, MomentumTag.ABRAHAM)
    mu_ratio = cfg.reference_fluid.viscosity / cfg.fluid.viscosity
    assert r_m > mu_ratio > r_a  # Minkowski correction positive, Abraham negative
    n = cfg.fluid.n
    assert r_m - r_a == pytest.approx(mu_ratio * corr * (n - 1.0 / n), rel=1e-12)


@pytest.mark.parametrize("tag", list(MomentumTag))
def test_displacement_ratio_checks_l0_for_a_library_caller(tag):
    # the runner's rules judge L0 for a request; a library call has only this
    cfg = sphere_cfg(L0=0.0)
    with pytest.raises(ValueError,
                       match=r"^reference displacement L0 must be > 0, got 0\.0$"):
        displacement_ratio(cfg, tag)


def test_displacement_ratio_no_index_contrast():
    cfg = sphere_cfg(n=1.0, mu=1.0e-3)
    mu_ratio = cfg.reference_fluid.viscosity / cfg.fluid.viscosity
    assert displacement_ratio(cfg, MomentumTag.MINKOWSKI) == pytest.approx(
        mu_ratio, rel=1e-15)
    assert displacement_ratio(cfg, MomentumTag.ABRAHAM) == pytest.approx(
        mu_ratio, rel=1e-15)
