"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from abmink import (
    SI,
    FieldPoint,
    Medium,
    MomentumTag,
    PlaneWave,
    abraham_term,
    mechanical_momentum_density,
    momentum_density,
    time_average,
)
from abmink import covariant
from abmink.runner import parse_config, run
from abmink.scenarios import (
    TorqueConfig,
    displacement_correction,
    fiber_exit_impulse,
    pressure_from_reflectance,
    wgm_torque,
)


def _verdict(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {suffix}"


def _best_runtime(fn, repeats: int = 7) -> float:
    fn()  # warm-up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_wgm_torque_amplitude():
    cfg = TorqueConfig(n=1.45, a_m=100e-6, P0_W=100.0, omega0_rad_per_s=1000.0)
    amp = wgm_torque(cfg, 0.0).amplitude
    ok_value = math.isclose(amp, 0.7e-19, rel_tol=0.10)
    runtime = _best_runtime(lambda: wgm_torque(cfg, 0.0))
    _verdict(1, "modulated whispering-gallery torque amplitude ~0.7e-19 N m "
                "within 10%, under 1 ms",
             ok_value and runtime < 1e-3,
             f"amplitude {amp:.4e} N m, runtime {runtime * 1e6:.1f} us")


def test_criterion_2_sphere_kick_correction():
    args = dict(pulse_energy=5.9e-6, a=25e-6, L0=300e-6, mu0_visc=1.8e-5)
    corr = displacement_correction(**args)
    ok_value = abs(corr - 7.7e-3) <= 0.01 * 7.7e-3
    runtime = _best_runtime(lambda: displacement_correction(**args))
    _verdict(2, "microsphere displacement-ratio correction 7.7e-3 within 1%, "
                "under 1 ms",
             ok_value and runtime < 1e-3,
             f"correction {corr:.5e}, runtime {runtime * 1e6:.1f} us")


def test_criterion_3_fiber_impulse():
    impulse = fiber_exit_impulse(2.7e-3, 1.5)
    ok = abs(impulse - 4.5e-12) <= 0.01 * 4.5e-12
    _verdict(3, "fiber exit impulse 4.5 pN s within 1%", ok,
             f"impulse {impulse:.5e} N s")


def test_criterion_4_three_way_mirror_sweep():
    # the 5x5x5 grid as 25 n-sweep requests, one per (sigma, omega)
    t0 = time.perf_counter()
    reports = [run(parse_config(
        f"scenario = mirror\nE0_V_per_m = 1e3\nsigma_S_per_m = {sigma!r}\n"
        f"omega_rad_per_s = {omega!r}\nsweep = n:[1.0, 1.6, 5]\n"))
        for sigma in np.logspace(6, 8, 5).tolist()
        for omega in (2 * math.pi * SI.c / np.linspace(380e-9, 750e-9, 5)).tolist()]
    elapsed = time.perf_counter() - t0
    points = sum(len(r.rows) for r in reports)
    worst = max(r.residuals.get("three_way_max_rel_diff", 0.0) for r in reports)
    _verdict(4, "three mirror-pressure routes agree to 1e-6 over the 5x5x5 "
                "in-regime sweep, under 5 s",
             points >= 50 and worst <= 1e-6 and elapsed < 5.0,
             f"{points} in-regime points, worst {worst:.2e}, "
             f"{elapsed:.2f} s")


def test_criterion_5_pressure_proportional_to_index():
    R, flux = 0.92, 1.7e4
    base = pressure_from_reflectance(1.0, R, flux)
    worst = max(abs(pressure_from_reflectance(n, R, flux) / base - n)
                for n in (1.33, 1.50, 1.60))
    _verdict(5, "immersed-mirror pressure scales as the index at fixed R "
                "and flux (1e-12)", worst <= 1e-12, f"worst defect {worst:.2e}")


def test_criterion_6_momentum_ledger():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = rng.uniform(1.0, 2.0)
        medium = Medium.from_index(n)
        fp = FieldPoint.from_EH(medium, rng.normal(size=3),
                                rng.normal(size=3) / (SI.mu0 * SI.c))
        g_a = momentum_density(fp, MomentumTag.ABRAHAM)
        g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
        g_mech = mechanical_momentum_density(medium, fp)
        scale = float(np.max(np.abs(g_m)))
        worst = max(worst,
                    float(np.max(np.abs(g_a + g_mech - g_m))) / scale,
                    float(np.max(np.abs(n * n * g_a - g_m))) / scale)
    _verdict(6, "field + mechanical momentum equals the Minkowski momentum "
                "(= n^2 Abraham) for 1000 random field points (1e-12)",
             worst <= 1e-12, f"worst relative defect {worst:.2e}")


def test_criterion_7_abraham_term_nulls_on_average():
    medium = Medium.from_index(1.5)
    wave = PlaneWave(E0=500.0, omega=2.4e15, direction=(1, 0, 0),
                     polarization=(0, 1, 0), medium=medium)
    period = 2 * math.pi / wave.omega
    ts = np.linspace(0.0, 10 * period, 10 * 128 + 1)
    avg = time_average(
        [(t, abraham_term(medium, wave.poynting_time_derivative(t=t)))
         for t in ts], period)
    peak = (medium.n**2 - 1) / SI.c**2 * wave.E0 * wave.H0 * wave.omega
    ratio = float(np.max(np.abs(avg))) / peak
    _verdict(7, "Abraham term of a monochromatic wave averages below 1e-9 of "
                "its peak over 10 periods", ratio <= 1e-9,
             f"|avg|/peak = {ratio:.2e}")


def test_criterion_8_covariant_checks():
    # (a) rest-frame constitutive reduction
    rng = np.random.default_rng(31)
    rest = covariant.FourVelocity.rest()
    n, mu_r = 1.5, 1.0
    defect = 0.0
    for _ in range(32):
        E, B = rng.normal(size=3), rng.normal(size=3)
        F = covariant.field_tensor_from_EB(E, B)
        H = covariant.excitation_from_constitutive(F, rest, n, mu_r)
        scale = max(np.max(np.abs(E)), np.max(np.abs(B)))
        defect = max(defect,
                     float(np.max(np.abs(H.D - (n * n / mu_r) * E))) / scale,
                     float(np.max(np.abs(H.H - B / mu_r))) / scale)
    ok_a = defect <= 1e-12

    # (b) second-order convergence of the divergence residual
    sampler = covariant.plane_wave_sampler(n=1.5, mu_r=1.0,
                                           omega=2 * math.pi, E0=1.0)
    x, t = np.array([0.123, 0.0, 0.0]), 0.077
    res = [np.linalg.norm(covariant.divergence_residual(sampler, x, t, h))
           for h in (1e-3, 5e-4, 2.5e-4)]
    ratios = (res[0] / res[1], res[1] / res[2])
    ok_b = all(abs(r / 4.0 - 1.0) <= 0.2 for r in ratios)

    # (c) classification of the plane-wave pulse four-momentum
    S_med = covariant.minkowski_tensor4(*sampler(x, 0.0))
    vac = covariant.plane_wave_sampler(n=1.0, mu_r=1.0, omega=2 * math.pi,
                                       E0=1.0)
    S_vac = covariant.minkowski_tensor4(*vac(x, 0.0))
    cls_med = covariant.classify_four_momentum(
        covariant.pulse_four_momentum(S_med, 1.0, MomentumTag.MINKOWSKI))
    cls_vac = covariant.classify_four_momentum(
        covariant.pulse_four_momentum(S_vac, 1.0, MomentumTag.MINKOWSKI))
    ok_c = cls_med == "spacelike" and cls_vac == "null"

    _verdict(8, "covariant checks: rest-frame reduction (1e-12), "
                "second-order divergence convergence (ratio 4 +/- 20%), "
                "space/null four-momentum classification",
             ok_a and ok_b and ok_c,
             f"reduction {defect:.2e}, ratios {ratios[0]:.3f}/{ratios[1]:.3f}, "
             f"classes {cls_med}/{cls_vac}")


def test_criterion_9_cli_determinism(tmp_path):
    check = subprocess.run([sys.executable, "-m", "abmink", "check"],
                           capture_output=True)
    ok_check = check.returncode == 0

    cfg = tmp_path / "wgm.cfg"
    cfg.write_text("scenario = wgm\na_m = 100e-6\nP0_W = 100\n"
                   "omega0_rad_per_s = 1000\n")
    runs = [subprocess.run([sys.executable, "-m", "abmink", "run", str(cfg),
                            "--format", "json"], capture_output=True)
            for _ in range(2)]
    ok_bytes = bool(runs[0].returncode == 0 and runs[1].returncode == 0
                    and runs[0].stdout == runs[1].stdout
                    and json.loads(runs[0].stdout)["rows"])
    _verdict(9, "CLI check exits 0 and identical configs yield byte-identical "
                "reports", ok_check and ok_bytes,
             f"check rc={check.returncode}, reports equal={ok_bytes}")
