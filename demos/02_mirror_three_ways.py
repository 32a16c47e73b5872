"""Radiation pressure on a mirror immersed in a liquid, three ways.

The same pressure comes out of (1) the momentum-flux tensor component,
(2) the integrated Lorentz force on the conduction currents in the metal
skin, and (3) the transport argument that the wave momentum travels at c/n.
None of the routes needs to pick a momentum bookkeeping, but the pressure
scales with the liquid index n, which is the observed proportionality.
Route (2)'s depth integral is closed: both skin fields decay as
exp(-alpha x) with the same phase advance, so it is their surface product
over 2 alpha, with no quadrature.
"""

import numpy as np

from abmink import Medium
from abmink.scenarios import MirrorConfig, metal_fields, mirror_pressures

cfg = MirrorConfig(medium=Medium.from_index(1.33), E0=1e3, omega=3e15,
                   conductivity=5e7)

print(f"liquid n = {cfg.medium.n}, metal sigma = {cfg.conductivity:.1e} S/m, "
      f"omega = {cfg.omega:.2e} rad/s")
print(f"  k/alpha = {cfg.k_over_alpha:.4f} (good conductor)")

# one point: the three routes are three of the report's columns, (1,) arrays
point = mirror_pressures(cfg)
print(f"  incident flux S_i = {point['incident_flux_W_per_m2'][0]:.4e} W/m^2")
print(f"\n  route 1, momentum flux:    {point['pressure_flux_Pa'][0]:.9e} Pa "
      f"(R = {point['reflectance'][0]:.4f})")
print(f"  route 2, Lorentz integral: {point['pressure_lorentz_Pa'][0]:.9e} Pa")
print(f"  route 3, transport at c/n: {point['pressure_divergence_Pa'][0]:.9e} Pa")

# fields inside the metal decay on the skin depth 1/alpha
print("\n  skin profile (depth in units of 1/alpha):")
for u in (0.0, 1.0, 2.0, 4.0):
    s = metal_fields(cfg, u / cfg.alpha)
    print(f"    alpha x = {u:3.1f}:  |E_y| = {abs(s.E_y):.3e} V/m   "
          f"|H_z| = {abs(s.H_z):.3e} A/m")

# sweep the liquid index as one config of seven media, checked at
# construction: pressure rises in proportion to n
print("\n  index sweep (sigma = 5e7 S/m, omega = 3e15 rad/s):")
sweep = mirror_pressures(MirrorConfig(Medium.from_index(np.linspace(1.0, 1.6, 7)),
                                      cfg.E0, cfg.omega, cfg.conductivity))
n, p, spread = (sweep[name] for name in ("n", "pressure_flux_Pa", "max_rel_diff"))
for i in range(n.size):
    print(f"    n = {n[i]:.2f}:  p = {p[i]:.4e} Pa   p/p(1) = {p[i] / p[0]:.4f}   "
          f"route spread = {spread[i]:.1e}")
