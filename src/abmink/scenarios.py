"""Desk-scale predictions for the eight experiment scenarios.

Each operation evaluates a closed-form estimate for one experimental
situation, tagged (where momentum enters) with the Abraham or Minkowski
bookkeeping:

* immersed-mirror radiation pressure, computed three independent ways,
* photon-drag field in a semiconductor rod,
* photon recoil of atoms in a Bose-Einstein condensate,
* exit impulse of a pulse leaving a hanging fiber,
* modulated whispering-gallery torque on a microcylinder,
* ablation-kicked microsphere in a viscous fluid (with the two-fluid
  displacement-ratio comparison),
* index-step surface pressure on a liquid interface (via em-core).

The closed-form functions only read the fields of their config, so one
config object carrying those fields as (m,) arrays evaluates m points at
once, each row equal to the scalar call; the runner evaluates its sweeps
this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .core import (
    SI,
    FieldPoint,
    Medium,
    MomentumTag,
    PhysicalConstants,
    RegimeError,
    momentum_density,
    poynting,
)

__all__ = [
    "MirrorConfig",
    "MetalFieldSample",
    "MirrorPressure",
    "MirrorBatch",
    "DragConfig",
    "TorqueConfig",
    "WgmTorque",
    "SphereKickConfig",
    "incident_flux",
    "reflectance",
    "pressure_from_reflectance",
    "mirror_pressure_flux",
    "metal_fields",
    "mirror_pressure_lorentz",
    "mirror_pressure_divergence",
    "mirror_batch",
    "mirror_three_way_sweep",
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
    constants: PhysicalConstants = SI

    def __post_init__(self):
        if not self.medium.nonmagnetic:
            raise RegimeError("the mirror routes are derived for a nonmagnetic "
                              f"liquid; got mu_r={self.medium.mu_r}")
        if self.E0 < 0.0:
            raise ValueError(f"E0 must be >= 0, got {self.E0}")
        if self.omega <= 0.0 or self.conductivity <= 0.0:
            raise ValueError("omega and conductivity must be > 0")
        r = self.k_over_alpha
        if r >= self.guard:
            raise RegimeError(
                f"good-conductor approximation requires k/alpha < {self.guard}, "
                f"got k/alpha = {r:.6g}"
            )

    @property
    def k(self) -> float:
        return self.medium.n * self.omega / self.constants.c

    @property
    def alpha(self) -> float:
        return math.sqrt(self.constants.mu0 * self.conductivity * self.omega / 2.0)

    @property
    def k_over_alpha(self) -> float:
        return self.k / self.alpha


@dataclass(frozen=True)
class MetalFieldSample:
    """Complex transverse fields at depth x inside the metal (t = 0 phase)."""

    E_y: complex
    H_z: complex
    x: float


@dataclass(frozen=True)
class MirrorPressure:
    pressure: float
    reflectance: float
    phase: float


class MirrorBatch(NamedTuple):
    """The mirror scenario's report columns at m points, as (m,) arrays.

    ``errors[i]`` is None or the ValueError that rejects point i (a
    RegimeError for the good-conductor guard, or a non-finite result); the
    columns hold no meaningful value there.  ``spread`` is the largest
    three-way disagreement over the accepted points, None when there are
    none.
    """

    columns: dict[str, np.ndarray]
    errors: tuple[ValueError | None, ...]
    spread: float | None


def _non_finite(columns: dict) -> tuple[np.ndarray, dict[int, str]]:
    """The float columns, each an (m,) array or a value shared by all rows,
    as one (m, k) table, and row -> the message rejecting that row: it
    names the row's first column whose value is not finite."""
    names = list(columns)
    table = np.empty((np.broadcast(*columns.values()).size, len(names)))
    for j, column in enumerate(columns.values()):
        table[:, j] = column
    finite = np.isfinite(table)
    errors = {}
    for i in np.flatnonzero(~finite.all(axis=1)):
        j = np.argmin(finite[i])
        errors[int(i)] = f"result '{names[j]}' is not finite: {float(table[i, j])}"
    return table, errors


def _laguerre(order: int):
    s, w = laggauss(order)
    return s, w * np.exp(s)


# Gauss-Laguerre rules for integral_0^inf e^-s f(s) ds with e^s folded into
# the weights, so they apply to the integrand itself.  The 32-node rule gives
# the value and its difference from the 16-node rule the error estimate; both
# share one field evaluation on the joined nodes.
(_S16, _W16), (_S32, _W32) = _laguerre(16), _laguerre(32)
_NODES = np.concatenate([_S16, _S32])

# Points per block of the Lorentz route, whose complex field samples take
# 16 bytes per node and point: a block bounds them to a few MB whatever the
# sweep size.
_BLOCK = 4096


def _metal_fields(E0, omega, k, alpha, x, constants):
    envelope = np.exp((-1.0 + 1.0j) * alpha * x)
    E_y = (k * E0 / alpha) * (1.0 - 1.0j) * envelope
    H_z = (k * E0 / (constants.mu0 * omega)) \
        * (2.0 + (1.0j - 1.0) * (k / alpha)) * envelope
    return E_y, H_z


def mirror_batch(n, E0, omega, conductivity, guard=0.2, quadrature_tol=1e-8,
                 constants: PhysicalConstants = SI) -> MirrorBatch:
    """Evaluate the three independent pressure routes at every point at once.

    The arguments broadcast against each other and are flattened to m
    points.  Each route keeps its own physics, so their agreement is a check:
    1. momentum flux (n/c)(1 + R) S_i with R = 1 - 2 k/alpha;
    2. Lorentz force (mu0 sigma / 2) Re integral of E_y H_z* over the metal
       depth, sampled through the skin fields at Gauss-Laguerre nodes after
       s = 2 alpha x; a point whose two-order error estimate exceeds
       10 quadrature_tol times the value is rejected;
    3. momentum transport: c g_x / n with the Minkowski momentum density of
       the incident plane wave, plus n R S_i / c for the reflected wave.
    """
    cst = constants
    n, E0, omega, sigma, guard, tol = (a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(v, dtype=float)
          for v in (n, E0, omega, conductivity, guard, quadrature_tol))))
    with np.errstate(all="ignore"):  # rejected points may hold anything
        k = n * omega / cst.c
        alpha = np.sqrt(cst.mu0 * sigma * omega / 2.0)
        r = k / alpha
        R, phase = 1.0 - 2.0 * r, np.arctan(-r)
        flux = n * E0**2 / (2.0 * cst.mu0 * cst.c)

        low, high = np.empty(n.size), np.empty(n.size)
        for b in range(0, n.size, _BLOCK):
            i = slice(b, b + _BLOCK)
            a = alpha[i, None]
            E_y, H_z = _metal_fields(E0[i, None], omega[i, None], k[i, None],
                                     a, _NODES / (2.0 * a), cst)
            f = (E_y * H_z.conj()).real
            low[i] = np.sum(f[:, :_S16.size] * _W16, axis=1)
            high[i] = np.sum(f[:, _S16.size:] * _W32, axis=1)
        lorentz = 0.5 * cst.mu0 * sigma / (2.0 * alpha)
        p2, err = lorentz * high, np.abs(lorentz * (high - low))

        E, H = np.zeros((n.size, 3)), np.zeros((n.size, 3))
        E[:, 1] = E0  # polarization y, propagation x, t = 0 at the origin
        H[:, 2] = n * E0 / (cst.mu0 * cst.c)
        fp = FieldPoint(E=E, D=(cst.eps0 * (n * n))[:, None] * E, H=H,
                        B=cst.mu0 * H)
        # peak fields carry twice the time-averaged quadratic quantities
        g_x = momentum_density(fp, MomentumTag.MINKOWSKI, cst)[:, 0] / 2.0
        S_i = poynting(fp)[:, 0] / 2.0

        routes = np.stack([pressure_from_reflectance(n, R, flux, cst), p2,
                           cst.c * g_x / n + n * R * S_i / cst.c])
        scale = np.abs(routes).max(axis=0)
        spread = np.divide(np.ptp(routes, axis=0), scale,
                           out=np.zeros_like(scale), where=scale != 0.0)
        # points MirrorConfig might reject; it alone decides and words that
        unsure = ~((n >= 1.0) & (E0 >= 0.0) & (omega > 0.0) & (sigma > 0.0)
                   & (r < guard)
                   & np.isfinite([n, E0, omega, sigma]).all(axis=0))
    errors: list[ValueError | None] = [None] * n.size
    for i in np.flatnonzero(unsure):
        try:
            MirrorConfig(Medium.from_index(float(n[i])), float(E0[i]),
                         float(omega[i]), float(sigma[i]), float(guard[i]), cst)
        except ValueError as exc:
            errors[i] = exc
    for i in np.flatnonzero((p2 != 0.0) & (err > 10.0 * tol * np.abs(p2))):
        if errors[i] is None:
            errors[i] = ValueError(
                f"quadrature did not reach quadrature_tol = {tol[i]:g}: "
                f"estimated error {err[i]:.3g} on value {p2[i]:.6g}")
    columns = {"n": n, "sigma_S_per_m": sigma, "omega_rad_per_s": omega,
               "reflectance": R, "phase_rad": phase,
               "incident_flux_W_per_m2": flux, "pressure_flux_Pa": routes[0],
               "pressure_lorentz_Pa": p2, "pressure_divergence_Pa": routes[2],
               "max_rel_diff": spread}
    # finite inputs can still overflow (E0^2 beyond the double range)
    for i, message in _non_finite(columns)[1].items():
        if errors[i] is None:
            errors[i] = ValueError(message)
    ok = [i for i, e in enumerate(errors) if e is None]
    return MirrorBatch(columns, tuple(errors),
                       float(spread[ok].max()) if ok else None)


def _single(cfg: MirrorConfig, quadrature_tol: float = 1e-8) -> dict[str, float]:
    """The columns of :func:`mirror_batch` at a single configuration."""
    b = mirror_batch(cfg.medium.n, cfg.E0, cfg.omega, cfg.conductivity,
                     cfg.guard, quadrature_tol, cfg.constants)
    if b.errors[0] is not None:
        raise b.errors[0]
    return {name: float(v[0]) for name, v in b.columns.items()}


def incident_flux(cfg: MirrorConfig) -> float:
    """Time-averaged incident Poynting flux n E0^2 / (2 mu0 c) [W/m^2]."""
    return _single(cfg)["incident_flux_W_per_m2"]


def reflectance(cfg: MirrorConfig) -> tuple[float, float]:
    """Good-conductor (R, delta): R = 1 - 2 k/alpha, tan(delta) = -k/alpha."""
    point = _single(cfg)
    return point["reflectance"], point["phase_rad"]


def pressure_from_reflectance(n: float, R: float, flux: float,
                              constants: PhysicalConstants = SI) -> float:
    """Momentum-flux pressure (n/c)(1 + R) S_i on the wall [Pa].

    At fixed R and S_i the pressure is proportional to the liquid index,
    which is the proportionality the immersed-mirror experiments observed.
    """
    return n / constants.c * (1.0 + R) * flux


def mirror_pressure_flux(cfg: MirrorConfig) -> MirrorPressure:
    """Route 1: read the pressure off the momentum-flux tensor component."""
    point = _single(cfg)
    return MirrorPressure(pressure=point["pressure_flux_Pa"],
                          reflectance=point["reflectance"],
                          phase=point["phase_rad"])


def metal_fields(cfg: MirrorConfig, x) -> MetalFieldSample:
    """Transmitted fields at depth x >= 0 in the metal, at the t = 0 phase.

    Both components decay as exp(-alpha x) while advancing in phase as
    exp(i alpha x).  ``x`` may be an array of depths.
    """
    if np.any(np.asarray(x) < 0.0):
        raise ValueError(f"depth x must be >= 0, got {x}")
    E_y, H_z = _metal_fields(cfg.E0, cfg.omega, cfg.k, cfg.alpha, x,
                             cfg.constants)
    return MetalFieldSample(E_y=E_y, H_z=H_z, x=x)


def mirror_pressure_lorentz(cfg: MirrorConfig, quadrature_tol: float = 1e-8) -> float:
    """Route 2: integrate the Lorentz force on the conduction currents.

    (mu0 sigma / 2) Re integral of E_y H_z* over the metal depth, by
    fixed-order Gauss-Laguerre quadrature after substituting s = 2 alpha x.
    Raises ValueError when the two orders differ by more than 10
    quadrature_tol times the value.
    """
    return _single(cfg, quadrature_tol)["pressure_lorentz_Pa"]


def mirror_pressure_divergence(cfg: MirrorConfig) -> float:
    """Route 3: momentum transport argument.

    A divergence-free wave's momentum travels at c/n, so the incident-wave
    normal stress equals c g_x / n with the Minkowski momentum density; the
    reflected wave adds n R S_i / c.
    """
    return _single(cfg)["pressure_divergence_Pa"]


def mirror_three_way_sweep(n_values, sigma_values, omega_values,
                           E0: float = 1e3, quadrature_tol: float = 1e-8,
                           guard: float = 0.2,
                           constants: PhysicalConstants = SI):
    """Evaluate all three pressure routes over a parameter grid.

    Grid points outside the good-conductor regime are skipped; any other
    rejection is raised.  Returns a list of dicts with the three pressures
    and their maximum pairwise relative disagreement.
    """
    n, sigma, omega = np.meshgrid(n_values, sigma_values, omega_values,
                                  indexing="ij")
    b = mirror_batch(n, E0, omega, sigma, guard, quadrature_tol, constants)
    names = {"n": "n", "sigma": "sigma_S_per_m", "omega": "omega_rad_per_s",
             "pressure_flux": "pressure_flux_Pa",
             "pressure_lorentz": "pressure_lorentz_Pa",
             "pressure_divergence": "pressure_divergence_Pa",
             "max_rel_diff": "max_rel_diff"}
    out = []
    for i, exc in enumerate(b.errors):
        if exc is None:
            out.append({k: float(b.columns[c][i]) for k, c in names.items()})
        elif not isinstance(exc, RegimeError):
            raise exc
    return out


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
        for name in ("intensity", "sigma_a", "omega", "n"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")


def photon_drag_field(cfg: DragConfig, tag: MomentumTag,
                      constants: PhysicalConstants = SI) -> float:
    """Open-circuit longitudinal field E = I sigma_a p / (hbar omega e) [V/m].

    The per-photon momentum p is hbar n omega / c under the Minkowski tag and
    hbar omega / (n c) under the Abraham tag; the measured fields match the
    Minkowski choice.
    """
    if tag is MomentumTag.MINKOWSKI:
        p = constants.hbar * cfg.n * cfg.omega / constants.c
    else:
        p = constants.hbar * cfg.omega / (cfg.n * constants.c)
    return cfg.intensity * cfg.sigma_a * p / (constants.hbar * cfg.omega * constants.e_charge)


def bec_recoil(n: float, omega: float, constants: PhysicalConstants = SI) -> float:
    """Atomic recoil momentum hbar n omega / c [kg m/s] from photon absorption."""
    return constants.hbar * n * omega / constants.c


def fiber_exit_impulse(pulse_energy: float, n: float,
                       constants: PhysicalConstants = SI) -> float:
    """Impulse (n - 1) H / c [N s] released along propagation at the exit face.

    A pulse of energy H carries traveling momentum n H / c inside the fiber
    and H / c in vacuum; full transmission leaves the difference with the
    fiber tip, directed along the propagation direction.
    """
    return (n - 1.0) * pulse_energy / constants.c


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
    constants: PhysicalConstants = SI

    def __post_init__(self):
        if self.a <= 0.0 or self.omega0 <= 0.0 or self.P0 < 0.0 or self.n < 1.0:
            raise ValueError("require a > 0, omega0 > 0, P0 >= 0, n >= 1")


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
    c = cfg.constants.c
    # float_power: C pow, as a Python float's ** (see mechanical_momentum_density)
    prefactor = (np.float_power(cfg.n, 2) - 1.0) / c**2 * 2.0 * math.pi \
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
    reference_fluid: Medium = field(
        default_factory=lambda: Medium.from_index(1.0, viscosity=1.8e-5))
    constants: PhysicalConstants = SI

    def __post_init__(self):
        if self.M <= 0.0 or self.a <= 0.0:
            raise ValueError("require M > 0 and a > 0")
        if self.pulse_energy < 0.0:
            raise ValueError(f"pulse_energy must be >= 0, got {self.pulse_energy}")
        if self.fluid.viscosity is None or self.reference_fluid.viscosity is None:
            raise ValueError("both fluids need a dynamic viscosity")

    def pulse_momentum(self, tag: MomentumTag) -> float:
        c = self.constants.c
        if tag is MomentumTag.MINKOWSKI:
            return self.fluid.n * self.pulse_energy / c
        return self.pulse_energy / (self.fluid.n * c)

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
                            mu0_visc: float,
                            constants: PhysicalConstants = SI) -> float:
    """Magnitude H / (6 pi a c L0 mu0) of the photon term in the ratio L/L0.

    This is the dimensionless lever arm separating the two momentum
    bookkeepings in the two-fluid comparison.
    """
    return pulse_energy / (6.0 * math.pi * a * constants.c * L0 * mu0_visc)


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
    if np.any(cfg.L0 <= 0.0):
        raise ValueError(f"reference displacement L0 must be > 0, got {cfg.L0}")
    mu = cfg.fluid.viscosity
    mu0 = cfg.reference_fluid.viscosity
    corr = displacement_correction(cfg.pulse_energy, cfg.a, cfg.L0, mu0,
                                   cfg.constants)
    n, n0 = cfg.fluid.n, cfg.reference_fluid.n
    if tag is MomentumTag.MINKOWSKI:
        return (mu0 / mu) * (1.0 + corr * (n - n0))
    return (mu0 / mu) * (1.0 + corr * (1.0 / n - 1.0 / n0))
