"""Quick numbers for the remaining scenarios: photon drag, BEC recoil,
fiber exit impulse and the liquid-interface pressure.
"""

import numpy as np

from abmink import SI, interface_pressure
from abmink.scenarios import (
    DragConfig,
    bec_recoil,
    fiber_exit_impulse,
    photon_drag_field,
)
from abmink import MomentumTag

# photon drag in a germanium-like rod, far infrared
drag = DragConfig(intensity_W_per_m2=1e4, sigma_a_m2=1e-19, omega_rad_per_s=1.6e12, n=4.0)
e_m = photon_drag_field(drag, MomentumTag.MINKOWSKI)
e_a = photon_drag_field(drag, MomentumTag.ABRAHAM)
print("photon drag (open-circuit longitudinal field):")
print(f"  Minkowski: E = {e_m:.4e} V/m")
print(f"  Abraham:   E = {e_a:.4e} V/m   (ratio n^2 = {e_m / e_a:.2f})")
print("  the measured fields match the Minkowski value")

# BEC photon recoil at 780 nm
omega = 2 * np.pi * SI.c / 780e-9
print("\nBEC recoil at 780 nm:")
for n in (1.0, 1.0001, 1.2):
    print(f"  n = {n}: p = {bec_recoil(n, omega):.6e} kg m/s")

# impulse left with a fiber tip when a pulse exits into vacuum
print("\nfiber exit impulse, 2.7 mJ pulse:")
for n in (1.0, 1.45, 1.5):
    print(f"  n = {n}: J = {fiber_exit_impulse(2.7e-3, n) * 1e12:.3f} pN s")

# index-step pressure on a liquid surface: negative = pulled toward the
# rarer side, the familiar outward bulge of an illuminated water surface
print("\ninterface pressure, E_t = 1e3 V/m:")
for n_from, n_to in ((1.0, 1.33), (1.33, 1.0), (1.33, 1.33)):
    p = interface_pressure(1e3, n_from, n_to)
    print(f"  n {n_from} -> {n_to}: P = {p:+.4e} Pa")
