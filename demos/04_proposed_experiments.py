"""Desk-scale numbers for the two proposed experiments.

1. Whispering-gallery torque: modulate the circulating power in a
   microcylinder and the Abraham term integrates to a measurable (if tiny)
   azimuthal torque; the Minkowski bookkeeping predicts exactly zero.

2. Microsphere kick: a laser pulse plus ablation recoil launches a
   microsphere through a viscous fluid; comparing the Stokes-limited travel
   in two fluids cancels the unknown recoil and leaves a small,
   bookkeeping-dependent correction.
"""

import numpy as np

from abmink import MomentumTag
from abmink.scenarios import (
    SphereKickConfig,
    TorqueConfig,
    displacement_correction,
    displacement_ratio,
    sphere_kick_trajectory,
    sphere_kick_vmax,
    sphere_total_displacement,
    wgm_torque,
)

# --- whispering-gallery torque ---------------------------------------------
cfg = TorqueConfig(n=1.45, a_m=100e-6, P0_W=100.0, omega0_rad_per_s=1000.0)
amp = wgm_torque(cfg, 0.0).amplitude
print("whispering-gallery cylinder (fused silica):")
print(f"  a = {cfg.a_m * 1e6:.0f} um, P0 = {cfg.P0_W:.0f} W, "
      f"omega0 = {cfg.omega0_rad_per_s:.0f} 1/s")
print(f"  Abraham torque amplitude = {amp:.3e} N m")
print(f"  Minkowski prediction     = "
      f"{wgm_torque(cfg, 1e-4, MomentumTag.MINKOWSKI).torque:.1f}")
for t in np.linspace(0.0, 2 * np.pi / cfg.omega0_rad_per_s, 5):
    print(f"    t = {t * 1e3:5.2f} ms:  N_z = {wgm_torque(cfg, t).torque:+.3e} N m")

# --- microsphere kick --------------------------------------------------------
print("\nablation-kicked microsphere:")
kick = SphereKickConfig(M_kg=1e-10, a_m=25e-6, deltaG_kg_m_per_s=8.1e-12,
                        pulse_energy_J=5.9e-6, n=1.33, viscosity_Pa_s=1.0e-3,
                        L0_m=300e-6)

for tag in (MomentumTag.MINKOWSKI, MomentumTag.ABRAHAM):
    v = sphere_kick_vmax(kick, tag)
    L = sphere_total_displacement(kick, tag)
    print(f"  {tag.value:9s}: v_max = {v:.6e} m/s, total travel = "
          f"{L * 1e6:.4f} um, L/L0 = {displacement_ratio(kick, tag):.6f}")

tau = kick.M_kg / kick.stokes_coefficient
print(f"  Stokes time constant tau = {tau * 1e6:.2f} us")
for t in (0.0, tau, 3 * tau, 10 * tau):
    v, x = sphere_kick_trajectory(kick, MomentumTag.MINKOWSKI, t)
    print(f"    t = {t * 1e6:7.2f} us:  v = {v:.3e} m/s, x = {x * 1e6:.3f} um")

corr = displacement_correction(kick.pulse_energy_J, kick.a_m, kick.L0_m,
                               kick.viscosity0_Pa_s)
print(f"  photon correction scale H/(6 pi a c L0 mu0) = {corr:.3e}")
print("  the two bookkeepings differ by corr * (n - 1/n) = "
      f"{corr * (kick.n - 1 / kick.n):.3e} in L/L0")
