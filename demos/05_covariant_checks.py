"""Exercise the four-tensor layer: constitutive relation, conservation,
and the spacelike character of the Minkowski four-momentum.

Works in reduced units (vacuum permittivity/permeability 1, c = 1).
"""

import numpy as np

from abmink import MomentumTag
from abmink.covariant import (
    FourVelocity,
    classify_four_momentum,
    divergence_residual,
    excitation_from_constitutive,
    field_tensor_from_EB,
    minkowski_tensor4,
    plane_wave_sampler,
    pulse_four_momentum,
)

rng = np.random.default_rng(0)
n, mu_r = 1.5, 1.0

# rest frame: the covariant constitutive relation reduces to D = eps E, B = mu H
E, B = rng.normal(size=3), rng.normal(size=3)
F = field_tensor_from_EB(E, B)
H = excitation_from_constitutive(F, FourVelocity.rest(), n, mu_r)
print("rest-frame reduction:")
print(f"  |D - eps E| = {np.max(np.abs(H.D - (n**2 / mu_r) * E)):.2e}")
print(f"  |H - B/mu|  = {np.max(np.abs(H.H - B / mu_r)):.2e}")

# moving medium: at low speed the extracted D picks up the v x H drag term
for speed in (0.01, 0.001):
    V = FourVelocity.from_three_velocity([speed, 0.0, 0.0])
    Hm = excitation_from_constitutive(F, V, n, mu_r)
    drag = (n**2 - 1.0) * np.cross([speed, 0.0, 0.0], Hm.H)
    defect = np.max(np.abs(Hm.D - (n**2 / mu_r) * E - drag))
    print(f"  v = {speed}: first-order defect {defect:.2e}")

# conservation: the four-divergence of the plane-wave tensor converges to zero
sampler = plane_wave_sampler(n=n, mu_r=mu_r, omega=2 * np.pi, E0=1.0)
x, t = np.array([0.123, 0.0, 0.0]), 0.077
steps = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def print_convergence(sampler):
    previous = None
    for h in steps:
        r = np.linalg.norm(divergence_residual(sampler, x, t, h))
        note = "" if previous is None else f"   ratio {previous / r:.3f}"
        print(f"  h = {h:.2e}: |residual| = {r:.3e}{note}")
        previous = r


print("\nfour-divergence residual (plane wave):")
print_convergence(sampler)

# a broken dispersion relation leaves a residual that refinement cannot remove
bad = plane_wave_sampler(n=n, mu_r=mu_r, omega=2 * np.pi, E0=1.0,
                         wavenumber=1.3 * n * 2 * np.pi)
r = [np.linalg.norm(divergence_residual(bad, x, t, h)) for h in (1e-2, 5e-3)]
print(f"  corrupted wave: residuals {r[0]:.3e} -> {r[1]:.3e} (no convergence)")

# in vacuum (n = 1) a single wave's truncation errors in x and ct cancel, so
# its residual is round-off or exactly 0 and has no convergence ratio; the sum
# of two waves in different directions still converges at second order
vacuum_wave = plane_wave_sampler(n=1.0, mu_r=1.0, omega=2 * np.pi, E0=1.0)
r = [np.linalg.norm(divergence_residual(vacuum_wave, x, t, h)) for h in steps]
print("\nat n = 1, one plane wave: |residual| = "
      + ", ".join(f"{v:.1e}" for v in r))
print("at n = 1, two plane waves (1.0 along x, 0.7 at 60 deg, polarized y and z):")
print_convergence(plane_wave_sampler(
    n=1.0, mu_r=1.0, omega=2 * np.pi, E0=np.array([1.0, 0.7]),
    direction=[[1.0, 0.0, 0.0], [0.5, np.sqrt(0.75), 0.0]],
    polarization=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

# Minkowski four-momentum of a pulse is spacelike in a medium, null in vacuum
S = minkowski_tensor4(*sampler(x, 0.0))
print("\nfour-momentum classification of a plane-wave pulse:")
for tag in (MomentumTag.MINKOWSKI, MomentumTag.ABRAHAM):
    p = pulse_four_momentum(S, 1.0, tag)
    print(f"  n = 1.5, {tag.value:9s}: c|G| / W = "
          f"{np.linalg.norm(p.G) / p.W:.4f}  -> {classify_four_momentum(p)}")
S_vac = minkowski_tensor4(*plane_wave_sampler(n=1.0, mu_r=1.0,
                                              omega=2 * np.pi, E0=1.0)(x, 0.0))
p = pulse_four_momentum(S_vac, 1.0, MomentumTag.MINKOWSKI)
print(f"  n = 1.0, minkowski: c|G| / W = "
      f"{np.linalg.norm(p.G) / p.W:.4f}  -> {classify_four_momentum(p)}")
