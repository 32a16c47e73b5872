"""Desk-scale predictions for five existing experiments and two proposals.

Each operation evaluates a closed-form estimate for one experimental
situation, tagged (where momentum enters) with the Abraham or Minkowski
bookkeeping.  These are seven of the CLI's scenarios; its eighth,
``covariant-checks``, runs the ``covariant`` layer's self-checks.

* immersed-mirror radiation pressure, computed three independent ways,
* photon-drag field in a semiconductor rod,
* photon recoil of atoms in a Bose-Einstein condensate,
* exit impulse of a pulse leaving a hanging fiber,
* index-step surface pressure on a liquid interface (in ``core``),
* proposed: modulated whispering-gallery torque on a microcylinder,
* proposed: ablation-kicked microsphere in a viscous fluid (with the
  two-fluid displacement-ratio comparison).

The closed-form functions (``mirror_pressures(cfg)``,
``photon_drag_field(cfg, tag)``, ``wgm_torque(cfg, t, tag)``, ...) only
read the fields of their config, so one config object carrying those
fields as (m,) arrays evaluates m points at once, each row equal to the
scalar call; the runner judges a config's RULES row by row and evaluates
that same config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    SI,
    Medium,
    MomentumTag,
    RegimeError,
    check_rules,
)

__all__ = [
    "MirrorConfig",
    "MetalFieldSample",
    "DragConfig",
    "TorqueConfig",
    "WgmTorque",
    "SphereKickConfig",
    "pressure_from_reflectance",
    "metal_fields",
    "mirror_pressures",
    "photon_drag_field",
    "bec_recoil",
    "fiber_exit_impulse",
    "wgm_torque",
    "sphere_kick_vmax",
    "sphere_kick_trajectory",
    "sphere_total_displacement",
    "displacement_correction",
    "displacement_ratio",
]


# ---------------------------------------------------------------------------
# Immersed mirror: radiation pressure on a conducting wall in a liquid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MirrorConfig:
    """Normally incident wave in a liquid, reflecting off a metal wall.

    ``conductivity`` is the metal's; the liquid is the lossless, nonmagnetic
    ``medium``.  The good-conductor approximation needs the wavenumber in the
    liquid to be small against the metal's attenuation constant alpha =
    sqrt(mu0 sigma omega / 2); construction rejects k/alpha >= ``guard``.
    """

    medium: Medium
    E0: float
    omega: float
    conductivity: float
    guard: float = 0.2

    def __post_init__(self):
        check_rules(self.RULES, self)

    RULES = (
        (lambda c: not c.medium.nonmagnetic, "the mirror routes are derived for a "
         "nonmagnetic liquid; got mu_r={c.medium.mu_r}", RegimeError),
        (lambda c: np.logical_not(c.E0 >= 0.0),  # NaN breaks this and the next two
         "E0 must be >= 0, got {c.E0}", ValueError),
        (lambda c: np.logical_not((c.omega > 0.0) & (c.conductivity > 0.0)),
         "omega and conductivity must be > 0", ValueError),
        (lambda c: np.logical_not(c.guard > 0.0),
         "guard must be > 0, got {c.guard}", ValueError),
        (lambda c: c.k_over_alpha >= c.guard,
         "good-conductor approximation requires k/alpha < {c.guard}, "
         "got k/alpha = {c.k_over_alpha:.6g}", RegimeError),
    )

    # once per config: the rules, their messages and mirror_pressures share it
    @cached_property
    def k(self) -> float:
        return self.medium.n * self.omega / SI.c

    @cached_property
    def alpha(self) -> float:
        return np.sqrt(SI.mu0 * self.conductivity * self.omega / 2.0)

    @cached_property
    def k_over_alpha(self) -> float:
        return self.k / self.alpha


@dataclass(frozen=True)
class MetalFieldSample:
    """Complex transverse fields at depth x inside the metal (t = 0 phase)."""

    E_y: complex
    H_z: complex
    x: float


def _metal_fields(E0, omega, k, alpha, envelope):
    """E_y and H_z where the skin envelope exp((-1 + i) alpha x) is ``envelope``."""
    E_y = (k * E0 / alpha) * (1.0 - 1.0j) * envelope
    H_z = (k * E0 / (SI.mu0 * omega)) \
        * (2.0 + (1.0j - 1.0) * (k / alpha)) * envelope
    return E_y, H_z


def mirror_pressures(cfg: MirrorConfig) -> dict:
    """The mirror's report columns, the three pressure routes among them.

    Each route keeps its own physics, so their agreement is a check:
    1. momentum flux (n/c)(1 + R) S_i with R = 1 - 2 k/alpha (phase_rad
       arctan(-k/alpha));
    2. Lorentz force (mu0 sigma / 2) Re integral of E_y H_z* over the metal
       depth, from the skin fields at the surface: both carry the envelope
       exp((-1 + i) alpha x), so the integrand is its surface value times
       exp(-2 alpha x) and the integral is that value over 2 alpha;
    3. momentum transport: c g_x / n with the Minkowski momentum density of
       the incident plane wave, plus n R S_i / c for the reflected wave.
    ``max_rel_diff`` is the routes' spread, relative to the largest.  Each
    column is an (m,) array, m = 1 for a config of numbers: numpy rounds a
    complex product of two scalars apart from its array loop, so a row
    equals the one-point call only if both run on arrays.
    """
    # an unchecked config's rows may hold anything, and routes that are all
    # zero divide 0 by 0
    with np.errstate(all="ignore"):
        k, alpha = cfg.k, cfg.alpha
        n, E0, omega, sigma, r = np.atleast_1d(cfg.medium.n, cfg.E0, cfg.omega,
                                               cfg.conductivity, cfg.k_over_alpha)
        R, phase = 1.0 - 2.0 * r, np.arctan(-r)
        flux = n * E0**2 / (2.0 * SI.mu0 * SI.c)

        # from the surface skin fields, not the algebraically equal
        # eps0 n^2 E0^2 (1 - k/alpha): that is the flux route's value, and
        # the three-way check would compare a route with itself
        E_y, H_z = _metal_fields(E0, omega, k, alpha, 1.0)
        p2 = 0.5 * SI.mu0 * sigma / (2.0 * alpha) * (E_y * H_z.conj()).real

        # E along y, travelling along x, at t = 0, x = 0: (D x B)_x = D_y B_z and
        # (E x H)_x = E_y H_z; peak fields carry twice the time averages
        H_z = n * E0 / (SI.mu0 * SI.c)
        g_x = SI.eps0 * (n * n) * E0 * (SI.mu0 * H_z) / 2.0
        S_i = E0 * H_z / 2.0

        p1, p3 = pressure_from_reflectance(n, R, flux), SI.c * g_x / n + n * R * S_i / SI.c
        # the route-wise maxima and minima, the bits of max(axis=0) over the
        # stacked routes without numpy's slow reduction along a length-3 axis
        scale = np.maximum(np.maximum(np.abs(p1), np.abs(p2)), np.abs(p3))
        top, low = np.maximum(np.maximum(p1, p2), p3), np.minimum(np.minimum(p1, p2), p3)
        # routes that are all zero agree: 0/0 reads as no spread
        spread = np.where(scale != 0.0, (top - low) / scale, 0.0)
    return {"n": n, "sigma_S_per_m": sigma, "omega_rad_per_s": omega,
            "reflectance": R, "phase_rad": phase,
            "incident_flux_W_per_m2": flux, "pressure_flux_Pa": p1,
            "pressure_lorentz_Pa": p2, "pressure_divergence_Pa": p3,
            "max_rel_diff": spread}


def pressure_from_reflectance(n: float, R: float, flux: float) -> float:
    """Momentum-flux pressure (n/c)(1 + R) S_i on the wall [Pa].

    At fixed R and S_i the pressure is proportional to the liquid index,
    which is the proportionality the immersed-mirror experiments observed.
    """
    return n / SI.c * (1.0 + R) * flux


def metal_fields(cfg: MirrorConfig, x) -> MetalFieldSample:
    """Transmitted fields at depth x >= 0 in the metal, at the t = 0 phase.

    Both components decay as exp(-alpha x) while advancing in phase as
    exp(i alpha x).  ``x`` may be an array of depths.
    """
    if not np.all(np.asarray(x) >= 0.0):  # so that NaN breaks it
        raise ValueError(f"depth x must be >= 0, got {x}")
    E_y, H_z = _metal_fields(cfg.E0, cfg.omega, cfg.k, cfg.alpha,
                             np.exp((-1.0 + 1.0j) * cfg.alpha * x))
    return MetalFieldSample(E_y=E_y, H_z=H_z, x=x)


# ---------------------------------------------------------------------------
# Photon drag, BEC recoil, fiber exit impulse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DragConfig:
    """Long-wavelength photon drag in a semiconductor rod."""

    intensity: float
    sigma_a: float
    omega: float
    n: float

    def __post_init__(self):
        check_rules(self.RULES, self)

    RULES = tuple((lambda c, name=name: getattr(c, name) <= 0.0,
                   f"{name} must be > 0", ValueError)
                  for name in ("intensity", "sigma_a", "omega", "n"))


def photon_drag_field(cfg: DragConfig, tag: MomentumTag) -> float:
    """Open-circuit longitudinal field E = I sigma_a p / (hbar omega e) [V/m].

    The per-photon momentum p is hbar n omega / c under the Minkowski tag and
    hbar omega / (n c) under the Abraham tag; the measured fields match the
    Minkowski choice.
    """
    if tag is MomentumTag.MINKOWSKI:
        p = SI.hbar * cfg.n * cfg.omega / SI.c
    else:
        p = SI.hbar * cfg.omega / (cfg.n * SI.c)
    return cfg.intensity * cfg.sigma_a * p / (SI.hbar * cfg.omega * SI.e_charge)


def bec_recoil(n: float, omega: float) -> float:
    """Atomic recoil momentum hbar n omega / c [kg m/s] from photon absorption.
    Judges nothing: the runner's rules judge its inputs."""
    return SI.hbar * n * omega / SI.c


def fiber_exit_impulse(pulse_energy: float, n: float) -> float:
    """Impulse (n - 1) H / c [N s] released along propagation at the exit face.

    A pulse of energy H carries traveling momentum n H / c inside the fiber
    and H / c in vacuum; full transmission leaves the difference with the
    fiber tip, directed along the propagation direction.  Judges nothing:
    the runner's rules judge its inputs.
    """
    return (n - 1.0) * pulse_energy / SI.c


# ---------------------------------------------------------------------------
# Whispering-gallery torque on a microcylinder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorqueConfig:
    """Intensity-modulated circulating mode near the rim of a cylinder."""

    n: float
    a: float
    P0: float
    omega0: float

    def __post_init__(self):
        check_rules(self.RULES, self)

    RULES = ((lambda c: (c.a <= 0.0) | (c.omega0 <= 0.0) | (c.P0 < 0.0) | (c.n < 1.0),
              "require a > 0, omega0 > 0, P0 >= 0, n >= 1", ValueError),)


@dataclass(frozen=True)
class WgmTorque:
    torque: float
    amplitude: float


def wgm_torque(cfg: TorqueConfig, t: float,
               tag: MomentumTag = MomentumTag.ABRAHAM) -> WgmTorque:
    """Axial torque from the slowly modulated circulating power.

    With power P0 cos(omega0 t) along the rim, the volume-integrated
    azimuthal force gives

        N_z = -((n^2 - 1)/c^2) 2 pi a^2 omega0 P0 sin(omega0 t).

    Under the Minkowski bookkeeping there is no azimuthal force density at
    all, so that variant returns identically zero; a nonzero measurement
    would single out the Abraham force.  ``t`` and the fields of ``cfg`` may
    be (m,) arrays.
    """
    if tag is MomentumTag.MINKOWSKI:
        return WgmTorque(torque=0.0, amplitude=0.0)
    # float_power: C pow, as a Python float's ** (see mechanical_momentum_density)
    prefactor = (np.float_power(cfg.n, 2) - 1.0) / SI.c**2 * 2.0 * math.pi \
        * np.float_power(cfg.a, 2) * cfg.omega0 * cfg.P0
    return WgmTorque(torque=-prefactor * np.sin(cfg.omega0 * t) + 0.0,
                     amplitude=prefactor)


# ---------------------------------------------------------------------------
# Ablation-kicked microsphere in a viscous fluid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereKickConfig:
    """Microsphere kicked by ablation recoil plus an absorbed light pulse.

    ``deltaG`` is the ablation recoil momentum, treated as an opaque measured
    input.  ``reference_fluid`` (defaults to air) is the medium the reference
    displacement ``L0`` was measured in.
    """

    M: float
    a: float
    deltaG: float
    pulse_energy: float
    fluid: Medium
    L0: float = 0.0
    reference_fluid: Medium = Medium.from_index(1.0, viscosity=1.8e-5)

    def __post_init__(self):
        check_rules(self.RULES, self)

    # the two fluids are judged first, by their own rules
    RULES = (
        (lambda c: (c.M <= 0.0) | (c.a <= 0.0), "require M > 0 and a > 0",
         ValueError),
        (lambda c: c.pulse_energy < 0.0,
         "pulse_energy must be >= 0, got {c.pulse_energy}", ValueError),
        (lambda c: c.fluid.viscosity is None or c.reference_fluid.viscosity is None,
         "both fluids need a dynamic viscosity", ValueError),
    )

    def pulse_momentum(self, tag: MomentumTag) -> float:
        if tag is MomentumTag.MINKOWSKI:
            return self.fluid.n * self.pulse_energy / SI.c
        return self.pulse_energy / (self.fluid.n * SI.c)

    @property
    def stokes_coefficient(self) -> float:
        """Drag force per velocity, 6 pi mu a."""
        return 6.0 * math.pi * self.fluid.viscosity * self.a


def sphere_kick_vmax(cfg: SphereKickConfig, tag: MomentumTag) -> float:
    """Peak velocity (deltaG + pulse momentum) / M, assuming full absorption."""
    return (cfg.deltaG + cfg.pulse_momentum(tag)) / cfg.M


def sphere_kick_trajectory(cfg: SphereKickConfig, tag: MomentumTag,
                           t: float) -> tuple[float, float]:
    """Stokes-damped (velocity, displacement) at time t >= 0 after the kick.

    v(t) = v_max exp(-6 pi mu a t / M); the displacement saturates at
    M v_max / (6 pi mu a).
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    v_max = sphere_kick_vmax(cfg, tag)
    decay = math.exp(-cfg.stokes_coefficient * t / cfg.M)
    L = cfg.M * v_max / cfg.stokes_coefficient
    return v_max * decay, L * (1.0 - decay)


def sphere_total_displacement(cfg: SphereKickConfig, tag: MomentumTag) -> float:
    """Total travel L = M v_max / (6 pi mu a) = (deltaG + p_pulse) / (6 pi mu a)."""
    return cfg.M * sphere_kick_vmax(cfg, tag) / cfg.stokes_coefficient


def displacement_correction(pulse_energy: float, a: float, L0: float,
                            mu0_visc: float) -> float:
    """Magnitude H / (6 pi a c L0 mu0) of the photon term in the ratio L/L0.

    This is the dimensionless lever arm separating the two momentum
    bookkeepings in the two-fluid comparison.
    """
    return pulse_energy / (6.0 * math.pi * a * SI.c * L0 * mu0_visc)


# the rule displacement_ratio adds to those of its config
_L0_RULES = ((lambda c: c.L0 <= 0.0,
              "reference displacement L0 must be > 0, got {c.L0}", ValueError),)


def displacement_ratio(cfg: SphereKickConfig, tag: MomentumTag) -> float:
    """Predicted L/L0 between the working fluid and the reference fluid.

    Eliminates the unknown ablation recoil through the measured reference
    displacement L0 (same pulse energy, recoil independent of the fluid):

        Minkowski: (mu0/mu) [1 + corr (n - n0)]
        Abraham:   (mu0/mu) [1 + corr (1/n - 1/n0)]

    with corr = H / (6 pi a c L0 mu0) and n0 the reference-fluid index (1 for
    air).  The Minkowski correction is positive for n > 1, the Abraham one
    negative.
    """
    check_rules(_L0_RULES, cfg)
    return _displacement_ratio(cfg, tag)


def _displacement_ratio(cfg: SphereKickConfig, tag: MomentumTag) -> float:
    """displacement_ratio past its L0 check, which the runner's rules make."""
    mu = cfg.fluid.viscosity
    mu0 = cfg.reference_fluid.viscosity
    corr = displacement_correction(cfg.pulse_energy, cfg.a, cfg.L0, mu0)
    n, n0 = cfg.fluid.n, cfg.reference_fluid.n
    if tag is MomentumTag.MINKOWSKI:
        return (mu0 / mu) * (1.0 + corr * (n - n0))
    return (mu0 / mu) * (1.0 + corr * (1.0 / n - 1.0 / n0))
