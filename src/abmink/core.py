"""Instantaneous 3+1 electromagnetic quantities and force densities.

Everything here works on real instantaneous fields in the rest frame of an
isotropic, lossless, non-dispersive medium, in SI units.  The two competing
momentum bookkeepings are threaded through a single :class:`MomentumTag`:

* Abraham:   g = (E x H) / c^2
* Minkowski: g = D x B

All types are immutable values and all operations are pure functions, so the
module is safe to use from any number of threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SI",
    "PhysicalConstants",
    "MomentumTag",
    "Medium",
    "FieldPoint",
    "EMQuantities",
    "PlaneWave",
    "SourceDensities",
    "RegimeError",
    "poynting",
    "momentum_density",
    "energy_density",
    "stress_tensor",
    "em_quantities",
    "minkowski_force_density",
    "abraham_term",
    "abraham_force_density",
    "mechanical_momentum_density",
    "time_average",
    "interface_pressure",
]

_REL_TOL = 1e-12
_ndarray = np.ndarray  # one global lookup on the scalar Medium path


class RegimeError(ValueError):
    """An input lies outside the physical regime an operation is valid in."""


class MomentumTag(enum.Enum):
    """Which electromagnetic momentum bookkeeping to use."""

    ABRAHAM = "abraham"
    MINKOWSKI = "minkowski"


def _vec3(x) -> np.ndarray:
    """Read-only 3-vector, or an (..., 3) stack that cross products broadcast over."""
    v = np.array(x, dtype=float)
    if v.shape[-1:] != (3,):
        v = v.reshape(3)
    v.flags.writeable = False
    return v


def _per_row(x):
    """A scalar as is; an (m,) array as (m, 1), scaling the rows of an (m, 3) stack."""
    return x[..., None] if isinstance(x, _ndarray) else x


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants: c, vacuum permittivity/permeability, hbar, elementary charge.

    Defaults satisfy c^2 * eps0 * mu0 = 1 exactly to double precision because
    eps0 is derived from c and mu0.
    """

    c: float = 299792458.0
    mu0: float = 4e-7 * math.pi
    eps0: float = 1.0 / (4e-7 * math.pi * 299792458.0**2)
    hbar: float = 6.62607015e-34 / (2.0 * math.pi)
    e_charge: float = 1.602176634e-19

    def __post_init__(self):
        for name in ("c", "mu0", "eps0", "hbar", "e_charge"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if abs(self.c**2 * self.eps0 * self.mu0 - 1.0) > _REL_TOL:
            raise ValueError("c^2 * eps0 * mu0 must equal 1")


SI = PhysicalConstants()


@dataclass(frozen=True)
class Medium:
    """Isotropic medium: relative permittivity/permeability and derived index.

    ``mu_r`` is the relative magnetic permeability; ``viscosity`` is the
    dynamic viscosity of a fluid medium (a different physical mu, kept as a
    separate field to avoid the symbol clash).

    ``eps_r`` and ``n`` may also be (m,) arrays describing m media that
    share the other fields; each row is validated as a scalar Medium would
    be, and the first rejected row raises that Medium's error.
    """

    eps_r: float | np.ndarray
    mu_r: float = 1.0
    n: float | np.ndarray = 0.0  # filled from sqrt(eps_r * mu_r) when left at 0
    conductivity: float = 0.0
    viscosity: float | None = None

    def __post_init__(self):
        # the scalar path stays free of numpy calls: the runner builds a
        # scalar Medium for each row that its vector masks cannot clear
        if isinstance(self.eps_r, _ndarray) or isinstance(self.n, _ndarray):
            eps_r, n, expect = self._stack_row_to_check()
        else:
            if self.n == 0.0:
                object.__setattr__(self, "n", math.sqrt(self.eps_r * self.mu_r))
            eps_r, n = self.eps_r, self.n
            expect = math.sqrt(eps_r * self.mu_r)
        # each rule is written so that NaN fails it
        if not eps_r >= 1.0:
            raise ValueError(f"eps_r must be >= 1, got {eps_r}")
        if not self.mu_r > 0.0:
            raise ValueError(f"mu_r must be > 0, got {self.mu_r}")
        if not self.conductivity >= 0.0:
            raise ValueError(f"conductivity must be >= 0, got {self.conductivity}")
        if self.viscosity is not None and not self.viscosity > 0.0:
            raise ValueError(f"viscosity must be > 0, got {self.viscosity}")
        if not abs(n - expect) <= _REL_TOL * expect:
            raise ValueError(
                f"n={n} inconsistent with sqrt(eps_r*mu_r)={expect}"
            )

    def _stack_row_to_check(self) -> tuple[float, float, float]:
        """Freeze eps_r and n as read-only arrays and return (eps_r, n,
        sqrt(eps_r mu_r)) at the first row the scalar rules reject, or at
        row 0 when every row passes."""
        eps_r = np.array(self.eps_r, dtype=float)
        n = (np.sqrt(eps_r * self.mu_r)
             if not isinstance(self.n, _ndarray) and self.n == 0.0
             else np.array(self.n, dtype=float))
        eps_r, n = np.broadcast_arrays(eps_r, n)
        eps_r.flags.writeable = n.flags.writeable = False
        object.__setattr__(self, "eps_r", eps_r)
        object.__setattr__(self, "n", n)
        expect = np.sqrt(eps_r * self.mu_r)
        i = int(np.argmax(~((eps_r >= 1.0) & (np.abs(n - expect) <= _REL_TOL * expect))))
        return float(eps_r.flat[i]), float(n.flat[i]), float(expect.flat[i])

    @classmethod
    def from_index(cls, n: float, mu_r: float = 1.0, **kw) -> "Medium":
        """Medium of refractive index n, nonmagnetic unless mu_r is given."""
        return cls(n * n / mu_r, mu_r, n, **kw)

    @property
    def nonmagnetic(self) -> bool:
        return self.mu_r == 1.0


def _require_nonmagnetic(medium: Medium, what: str):
    if medium.mu_r != 1.0:
        raise RegimeError(
            f"{what} is derived for nonmagnetic media only; got mu_r={medium.mu_r}"
        )


@dataclass(frozen=True)
class FieldPoint:
    """The four real field vectors (E, D, H, B) at one point and instant.

    Each may also be an (m, 3) stack holding m field points.
    """

    E: np.ndarray
    D: np.ndarray
    H: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        for name in ("E", "D", "H", "B"):
            object.__setattr__(self, name, _vec3(getattr(self, name)))

    @classmethod
    def from_EH(cls, medium: Medium, E, H, constants: PhysicalConstants = SI) -> "FieldPoint":
        """Build D and B from E and H through the linear constitutive relations.

        With (m, 3) stacks of E and H the medium may hold (m,) arrays, one
        row per point.
        """
        E = _vec3(E)
        H = _vec3(H)
        return cls(E=E, D=_per_row(constants.eps0 * medium.eps_r) * E,
                   H=H, B=constants.mu0 * medium.mu_r * H)

    @classmethod
    def zero(cls) -> "FieldPoint":
        z = np.zeros(3)
        return cls(E=z, D=z, H=z, B=z)


@dataclass(frozen=True)
class SourceDensities:
    """Free charge density rho [C/m^3] and current density J [A/m^2]."""

    rho: float = 0.0
    J: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "J", _vec3(self.J))
        if not (np.isfinite(self.rho) and np.all(np.isfinite(self.J))):
            raise ValueError("source densities must be finite")


def poynting(fp: FieldPoint) -> np.ndarray:
    """Energy flux E x H [W/m^2] (shared by both momentum bookkeepings)."""
    return np.cross(fp.E, fp.H)


def momentum_density(fp: FieldPoint, tag: MomentumTag,
                     constants: PhysicalConstants = SI) -> np.ndarray:
    """Field momentum density [kg m^-2 s^-1] under the chosen bookkeeping."""
    if tag is MomentumTag.MINKOWSKI:
        return np.cross(fp.D, fp.B)
    return np.cross(fp.E, fp.H) / constants.c**2


def energy_density(fp: FieldPoint) -> float:
    """(E.D + H.B) / 2 [J/m^3]; identical under either bookkeeping."""
    return 0.5 * (float(fp.E @ fp.D) + float(fp.H @ fp.B))


def stress_tensor(fp: FieldPoint) -> np.ndarray:
    """Spatial stress block S_ik = -E_i D_k - H_i B_k + delta_ik (E.D + H.B)/2.

    Symmetric for isotropic media (D parallel to E, B parallel to H), and
    the same under both bookkeepings.
    """
    return (-np.outer(fp.E, fp.D) - np.outer(fp.H, fp.B)
            + np.eye(3) * energy_density(fp))


@dataclass(frozen=True)
class EMQuantities:
    """Bundle of the derived field quantities at a point."""

    S: np.ndarray
    w: float
    g_A: np.ndarray
    g_M: np.ndarray
    stress: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", _vec3(self.S))
        object.__setattr__(self, "g_A", _vec3(self.g_A))
        object.__setattr__(self, "g_M", _vec3(self.g_M))
        st = np.array(self.stress, dtype=float).reshape(3, 3)
        st.flags.writeable = False
        object.__setattr__(self, "stress", st)
        if self.w < 0.0:
            raise ValueError(f"energy density must be >= 0, got {self.w}")


def em_quantities(fp: FieldPoint, constants: PhysicalConstants = SI) -> EMQuantities:
    """All derived quantities (Poynting, energy, both momenta, stress) at once."""
    return EMQuantities(
        S=poynting(fp),
        w=energy_density(fp),
        g_A=momentum_density(fp, MomentumTag.ABRAHAM, constants),
        g_M=momentum_density(fp, MomentumTag.MINKOWSKI, constants),
        stress=stress_tensor(fp),
    )


def minkowski_force_density(src: SourceDensities, fp: FieldPoint,
                            grad_eps, grad_mu,
                            constants: PhysicalConstants = SI) -> np.ndarray:
    """Rest-frame Minkowski force density [N/m^3].

    rho E + J x B - (eps0/2) E^2 grad(eps_r) - (mu0/2) H^2 grad(mu_r).
    Electrostriction is not included.
    """
    grad_eps = _vec3(grad_eps)
    grad_mu = _vec3(grad_mu)
    E2 = float(fp.E @ fp.E)
    H2 = float(fp.H @ fp.H)
    return (src.rho * fp.E + np.cross(src.J, fp.B)
            - 0.5 * constants.eps0 * E2 * grad_eps
            - 0.5 * constants.mu0 * H2 * grad_mu)


def abraham_term(medium: Medium, dS_dt, constants: PhysicalConstants = SI) -> np.ndarray:
    """((n^2 - 1)/c^2) dS/dt [N/m^3], the extra Abraham force density.

    In a stationary optical field this fluctuates at twice the optical
    frequency and averages to zero.  Nonmagnetic media only.
    """
    _require_nonmagnetic(medium, "the Abraham term")
    return (medium.n**2 - 1.0) / constants.c**2 * _vec3(dS_dt)


def abraham_force_density(medium: Medium, fp: FieldPoint, grad_n2, dS_dt,
                          constants: PhysicalConstants = SI) -> np.ndarray:
    """Abraham force density for a source-free nonmagnetic medium [N/m^3].

    The gradient part -(eps0/2) E^2 grad(n^2) is shared with the Minkowski
    bookkeeping and acts only where the index varies (boundary layers); the
    remainder is :func:`abraham_term`.
    """
    _require_nonmagnetic(medium, "the Abraham force density")
    E2 = float(fp.E @ fp.E)
    shared = -0.5 * constants.eps0 * E2 * _vec3(grad_n2)
    return shared + abraham_term(medium, dS_dt, constants)


def mechanical_momentum_density(medium: Medium, fp: FieldPoint,
                                constants: PhysicalConstants = SI) -> np.ndarray:
    """((n^2 - 1)/c^2) E x H: momentum the Abraham term drives into the medium.

    Added to the Abraham field momentum it reproduces the Minkowski momentum,
    which is why the Minkowski value is what propagating-momentum experiments
    see.
    """
    _require_nonmagnetic(medium, "the accompanying mechanical momentum")
    # float_power is the C pow behind a Python float's ** 2, so a stacked row
    # equals the scalar call; numpy's ** 2 multiplies, which rounds n^2 to
    # the other neighbour now and then
    n2 = np.float_power(medium.n, 2)
    return _per_row((n2 - 1.0) / constants.c**2) * np.cross(fp.E, fp.H)


def time_average(samples, period: float):
    """Average uniformly spaced (t, value) samples over whole periods.

    Only the largest integer number of ``period``s from the first sample is
    used; a trailing partial period is discarded (the last covered segment is
    completed by linear interpolation if the grid does not land exactly on
    the period boundary).  Values may be scalars or arrays.
    """
    ts = np.asarray([t for t, _ in samples], dtype=float)
    vals = np.asarray([np.asarray(v, dtype=float) for _, v in samples])
    if period <= 0.0:
        raise ValueError(f"period must be > 0, got {period}")
    if ts.size < 2:
        raise ValueError("need at least two samples")
    dt = np.diff(ts)
    if np.any(np.abs(dt - dt[0]) > 1e-9 * abs(dt[0])) or dt[0] <= 0.0:
        raise ValueError("samples must be uniformly spaced in increasing time")
    span = ts[-1] - ts[0]
    if span < period * (1.0 - 1e-9):
        raise ValueError(
            f"samples span {span} which is less than one period {period}"
        )
    n_periods = int(math.floor(span / period + 1e-9))
    t_end = ts[0] + n_periods * period
    # trapezoid over [ts[0], t_end], interpolating the final partial step
    j = int(np.searchsorted(ts, t_end + 1e-12 * dt[0]) - 1)
    j = min(j, ts.size - 1)
    integral = np.trapezoid(vals[: j + 1], ts[: j + 1], axis=0)
    if t_end > ts[j] + 1e-12 * dt[0] and j + 1 < ts.size:
        frac = (t_end - ts[j]) / dt[0]
        v_end = vals[j] + frac * (vals[j + 1] - vals[j])
        integral = integral + 0.5 * (vals[j] + v_end) * (t_end - ts[j])
    return integral / (n_periods * period)


def interface_pressure(E_t: float, n_from: float, n_to: float,
                       constants: PhysicalConstants = SI) -> float:
    """Surface pressure of the index-gradient force across a thin interface.

    Integrates -(eps0/2) E^2 d(n^2)/dx through the transition layer for a
    normally incident wave with tangential (hence continuous) field E_t,
    giving (eps0/2) E_t^2 (n_from^2 - n_to^2) [Pa].  The result does not
    depend on the smoothing profile.  Positive sign means the surface is
    pushed toward the ``n_to`` side; light entering a denser medium pulls the
    interface back toward the rarer side.  The arguments may be arrays; a
    field beyond the double range gives an infinite pressure.
    """
    # float_power: C pow, as a Python float's ** (see mechanical_momentum_density)
    return 0.5 * constants.eps0 * np.float_power(E_t, 2) \
        * (np.float_power(n_from, 2) - np.float_power(n_to, 2))


@dataclass(frozen=True)
class PlaneWave:
    """Monochromatic linearly polarized plane wave in a medium.

    ``direction`` and ``polarization`` must be orthogonal unit vectors.
    The magnetic amplitude follows from the wave impedance:
    H0 = n E0 / (mu0 mu_r c).
    """

    E0: float
    omega: float
    direction: np.ndarray
    polarization: np.ndarray
    medium: Medium
    constants: PhysicalConstants = SI

    def __post_init__(self):
        object.__setattr__(self, "direction", _vec3(self.direction))
        object.__setattr__(self, "polarization", _vec3(self.polarization))
        for name in ("direction", "polarization"):
            v = getattr(self, name)
            if abs(np.linalg.norm(v) - 1.0) > _REL_TOL:
                raise ValueError(f"{name} must be a unit vector")
        if abs(float(self.direction @ self.polarization)) > _REL_TOL:
            raise ValueError("direction and polarization must be orthogonal")
        if self.omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")

    @property
    def k(self) -> float:
        """Wavenumber in the medium, n omega / c."""
        return self.medium.n * self.omega / self.constants.c

    @property
    def H0(self) -> float:
        cst = self.constants
        return self.medium.n * self.E0 / (cst.mu0 * self.medium.mu_r * cst.c)

    def phase(self, x=None, t: float = 0.0) -> float:
        kx = 0.0 if x is None else self.k * float(self.direction @ _vec3(x))
        return kx - self.omega * t

    def field_at(self, x=None, t: float = 0.0) -> FieldPoint:
        """Instantaneous fields at position x (default origin) and time t."""
        c = math.cos(self.phase(x, t))
        E = self.E0 * c * self.polarization
        H = self.H0 * c * np.cross(self.direction, self.polarization)
        return FieldPoint.from_EH(self.medium, E, H, self.constants)

    def poynting_time_derivative(self, x=None, t: float = 0.0) -> np.ndarray:
        """Analytic d(E x H)/dt at (x, t): E0 H0 omega sin(2 phase) k_hat."""
        ph = self.phase(x, t)
        return self.E0 * self.H0 * self.omega * math.sin(2.0 * ph) * self.direction
