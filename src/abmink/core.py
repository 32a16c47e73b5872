"""Instantaneous 3+1 electromagnetic quantities and force densities.

Everything here works on real instantaneous fields in the rest frame of an
isotropic, lossless, non-dispersive medium, in SI units.  The two competing
momentum bookkeepings are threaded through a single :class:`MomentumTag`:

* Abraham:   g = (E x H) / c^2
* Minkowski: g = D x B

All types are immutable values and all operations are pure functions, so the
module is safe to use from any number of threads; a FieldPoint computes its
E x H on first use and keeps it, and threads that race there compute it twice.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SI",
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


def unchecked(cls, **fields):
    """A ``cls`` holding ``fields`` as given, past its checks: the form in which
    check_rules judges a config's (m,) rows, or a builder's own read-only fields."""
    config = cls.__new__(cls)
    config.__dict__.update(fields)
    return config


@functools.lru_cache(maxsize=None)
def _parsed(message: str) -> tuple[list[str], list[str], list[str]]:
    """``message`` split at its fields, ``{c.name}`` or ``{c.name:spec}``:
    the texts around them (each % doubled), their names and their %-specs."""
    parts = re.split(r"\{c\.([\w.]+)(?::([^}]*))?\}", message)
    return ([text.replace("%", "%%") for text in parts[::3]], parts[1::3],
            ["%" + (spec or "s") for spec in parts[2::3]])


def _messages(message: str, config, rows: list[int]) -> list[str]:
    """``message`` at each of ``rows`` of ``config`` as str.format writes it,
    ``{c.name}`` as %s and ``{c.name:spec}`` as %spec.  Each field (dotted for
    a config held in a field) is read once, on the whole arrays: a shared one
    is written into the template, and every row's numbers go through one %."""
    texts, names, specs = _parsed(message)
    template, values = texts[0], []
    for name, spec, text in zip(names, specs, texts[1:]):
        column = np.asarray(operator.attrgetter(name)(config))
        if column.size > 1:
            values.append(column[rows].tolist())
        else:
            spec = (spec % (column.item(),)).replace("%", "%%")
        template += spec + text
    flat = values[0] if len(values) == 1 else [v for row in zip(*values) for v in row]
    return ("\0".join([template] * len(rows)) % tuple(flat)).split("\0")


def check_rules(rules, config, size: int | None = None) -> dict[int, str]:
    """Judge each row of ``config`` by ``rules``, the configs held in its
    fields by their own RULES first.

    A rule is (fails, message, error type).  ``fails(config)`` is true where
    the rule is broken: a bool for every row, or an (m,) bool array when
    fields of ``config`` hold m rows.  ``message`` is a str.format template
    whose fields read attributes of ``c`` = that row of ``config`` (dotted
    for a config it holds).  Returns row -> the message of the first rule
    that row breaks, for ``size`` rows.  Without ``size`` (a config checking
    itself) it raises instead, with the rule's error type: a held config's
    first error, else the first rejected row's.
    """
    errors, kinds = {}, {}
    for value in vars(config).values():
        if hasattr(value, "RULES"):
            errors = check_rules(value.RULES, value, size) | errors
    with np.errstate(all="ignore"):  # rejected rows may hold anything
        for fails, message, kind in rules:
            bad = fails(config)
            rows = (bad.ravel().nonzero()[0].tolist() if isinstance(bad, _ndarray)
                    else range(size or 1) if bad else ())
            rows = [i for i in rows if i not in errors]
            if rows:  # rows ascend: the first rejected row is some rule's rows[0]
                errors.update(zip(rows, _messages(message, config, rows)))
                kinds[rows[0]] = kind
    if size is None and errors:
        raise kinds[min(errors)](errors[min(errors)])
    return errors


class MomentumTag(enum.Enum):
    """Which electromagnetic momentum bookkeeping to use."""

    ABRAHAM = "abraham"
    MINKOWSKI = "minkowski"


def _stack(a, shape: tuple = (3,)) -> np.ndarray:
    """Read-only array of the given trailing shape, one item or a stack: by
    default a 3-vector, or an (..., 3) stack that cross products broadcast over."""
    m = np.array(a, dtype=float)
    if m.shape[-len(shape):] != shape:
        m = m.reshape(shape)
    m.flags.writeable = False
    return m


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of broadcasting float (..., 3) stacks: the
    calls np.cross makes, on the same component views, so the two agree bit
    for bit (NaN payloads too, which depend on the loop a product runs in),
    without np.cross's per-call set-up."""
    out = np.empty(np.broadcast(a, b).shape)
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., i], b[..., j], out=out[..., k])
        out[..., k] -= a[..., j] * b[..., i]
    return out


def _per_row(x):
    """A scalar as is; an (m,) array as (m, 1), scaling the rows of an (m, 3) stack."""
    return x[..., None] if isinstance(x, _ndarray) else x


class _SIConstants:
    """SI constants: c, vacuum permittivity/permeability, hbar, elementary charge.

    eps0 is derived from c and mu0, so c^2 * eps0 * mu0 = 1 to double
    precision.  ``core`` and ``scenarios`` compute in :data:`SI`, its one
    instance, which has no field to set.
    """

    __slots__ = ()
    c = 299792458.0
    mu0 = 4e-7 * math.pi
    eps0 = 1.0 / (4e-7 * math.pi * 299792458.0**2)
    hbar = 6.62607015e-34 / (2.0 * math.pi)
    e_charge = 1.602176634e-19


SI = _SIConstants()


@dataclass(frozen=True)
class Medium:
    """Isotropic lossless medium: relative permittivity, permeability and index.

    ``mu_r`` is the relative magnetic permeability; ``viscosity`` is the
    dynamic viscosity of a fluid medium (a different physical mu, kept as a
    separate field to avoid the symbol clash).

    ``eps_r`` and ``n`` may also be (m,) arrays describing m media that
    share the other fields; each row is validated as a scalar Medium would
    be, and the first rejected row raises that Medium's error.  Any other
    shape is rejected before the rules run.
    """

    eps_r: float | np.ndarray
    mu_r: float = 1.0
    n: float | np.ndarray = 0.0  # filled from sqrt(eps_r * mu_r) when left at 0
    viscosity: float | None = None

    def __post_init__(self):
        for name in ("eps_r", "n"):
            shape = np.shape(getattr(self, name))
            if len(shape) > 1:
                raise ValueError(f"{name} must have shape () or (m,), got {shape}")
        if not isinstance(self.n, _ndarray) and self.n == 0.0:
            with np.errstate(all="ignore"):  # the rules reject what gives nan
                n = self._root
            object.__setattr__(self, "n", n if isinstance(n, _ndarray) else float(n))
        if isinstance(self.eps_r, _ndarray) or isinstance(self.n, _ndarray):
            for name, value in zip(("eps_r", "n"), np.broadcast_arrays(
                    np.array(self.eps_r, dtype=float), np.array(self.n, dtype=float))):
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        check_rules(self.RULES, self)

    # each rule is written so that NaN breaks it
    RULES = (
        (lambda m: np.logical_not(m.eps_r >= 1.0),
         "eps_r must be >= 1, got {c.eps_r}", ValueError),
        (lambda m: np.logical_not(m.mu_r > 0.0),
         "mu_r must be > 0, got {c.mu_r}", ValueError),
        (lambda m: m.mu_r == math.inf, "mu_r must be finite, got {c.mu_r}", ValueError),
        (lambda m: m.viscosity is not None and np.logical_not(m.viscosity > 0.0),
         "viscosity must be > 0, got {c.viscosity}", ValueError),
        (lambda m: np.logical_not(np.abs(m.n - (root := m._root)) <= _REL_TOL * root),
         "n={c.n} inconsistent with sqrt(eps_r*mu_r)={c._root}", ValueError),
    )

    @property
    def _root(self):
        """sqrt(eps_r mu_r), which n must equal."""
        return np.sqrt(self.eps_r * self.mu_r)

    @classmethod
    def from_index(cls, n: float, mu_r: float = 1.0, **kw) -> "Medium":
        """Medium of refractive index n, nonmagnetic unless mu_r is given."""
        # eps_r = inf where a mu_r rule fails, so that the mu_r rule words the error
        return cls(n * n / mu_r if 0.0 < mu_r < math.inf else math.inf, mu_r, n, **kw)

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
            object.__setattr__(self, name, _stack(getattr(self, name)))

    @functools.cached_property
    def _E_cross_H(self) -> np.ndarray:
        """E x H, read-only, made once for poynting and both momenta that use it."""
        s = cross(self.E, self.H)
        s.flags.writeable = False
        return s

    @classmethod
    def from_EH(cls, medium: Medium, E, H) -> "FieldPoint":
        """Build D and B from E and H through the linear constitutive relations.

        With (m, 3) stacks of E and H the medium may hold (m,) arrays, one
        row per point.
        """
        E, H = _stack(E), _stack(H)
        D, B = _per_row(SI.eps0 * medium.eps_r) * E, SI.mu0 * medium.mu_r * H
        D.flags.writeable = B.flags.writeable = False
        return unchecked(cls, E=E, D=D, H=H, B=B)

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
        object.__setattr__(self, "J", _stack(self.J))
        if not (np.isfinite(self.rho) and np.all(np.isfinite(self.J))):
            raise ValueError("source densities must be finite")


def poynting(fp: FieldPoint) -> np.ndarray:
    """Energy flux E x H [W/m^2] (shared by both momentum bookkeepings), read-only."""
    return fp._E_cross_H


def momentum_density(fp: FieldPoint, tag: MomentumTag) -> np.ndarray:
    """Field momentum density [kg m^-2 s^-1] under the chosen bookkeeping."""
    if tag is MomentumTag.MINKOWSKI:
        return cross(fp.D, fp.B)
    return fp._E_cross_H / SI.c**2


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
        object.__setattr__(self, "S", _stack(self.S))
        object.__setattr__(self, "g_A", _stack(self.g_A))
        object.__setattr__(self, "g_M", _stack(self.g_M))
        st = np.array(self.stress, dtype=float).reshape(3, 3)
        st.flags.writeable = False
        object.__setattr__(self, "stress", st)
        if self.w < 0.0:
            raise ValueError(f"energy density must be >= 0, got {self.w}")


def em_quantities(fp: FieldPoint) -> EMQuantities:
    """All derived quantities (Poynting, energy, both momenta, stress) at once."""
    return EMQuantities(
        S=poynting(fp),
        w=energy_density(fp),
        g_A=momentum_density(fp, MomentumTag.ABRAHAM),
        g_M=momentum_density(fp, MomentumTag.MINKOWSKI),
        stress=stress_tensor(fp),
    )


def minkowski_force_density(src: SourceDensities, fp: FieldPoint,
                            grad_eps, grad_mu) -> np.ndarray:
    """Rest-frame Minkowski force density [N/m^3].

    rho E + J x B - (eps0/2) E^2 grad(eps_r) - (mu0/2) H^2 grad(mu_r).
    Electrostriction is not included.
    """
    grad_eps = _stack(grad_eps)
    grad_mu = _stack(grad_mu)
    E2 = float(fp.E @ fp.E)
    H2 = float(fp.H @ fp.H)
    return (src.rho * fp.E + cross(src.J, fp.B)
            - 0.5 * SI.eps0 * E2 * grad_eps
            - 0.5 * SI.mu0 * H2 * grad_mu)


def abraham_term(medium: Medium, dS_dt) -> np.ndarray:
    """((n^2 - 1)/c^2) dS/dt [N/m^3], the extra Abraham force density.

    In a stationary optical field this fluctuates at twice the optical
    frequency and averages to zero.  Nonmagnetic media only.
    """
    _require_nonmagnetic(medium, "the Abraham term")
    return (medium.n**2 - 1.0) / SI.c**2 * _stack(dS_dt)


def abraham_force_density(medium: Medium, fp: FieldPoint, grad_n2, dS_dt) -> np.ndarray:
    """Abraham force density for a source-free nonmagnetic medium [N/m^3].

    The gradient part -(eps0/2) E^2 grad(n^2) is shared with the Minkowski
    bookkeeping and acts only where the index varies (boundary layers); the
    remainder is :func:`abraham_term`.
    """
    _require_nonmagnetic(medium, "the Abraham force density")
    E2 = float(fp.E @ fp.E)
    shared = -0.5 * SI.eps0 * E2 * _stack(grad_n2)
    return shared + abraham_term(medium, dS_dt)


def mechanical_momentum_density(medium: Medium, fp: FieldPoint) -> np.ndarray:
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
    return _per_row((n2 - 1.0) / SI.c**2) * fp._E_cross_H


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


def interface_pressure(E_t: float, n_from: float, n_to: float) -> float:
    """Surface pressure of the index-gradient force across a thin interface.

    Integrates -(eps0/2) E^2 d(n^2)/dx through the transition layer for a
    normally incident wave with tangential (hence continuous) field E_t,
    giving (eps0/2) E_t^2 (n_from^2 - n_to^2) [Pa].  The result does not
    depend on the smoothing profile.  Positive sign means the surface is
    pushed toward the ``n_to`` side; light entering a denser medium pulls the
    interface back toward the rarer side.  The arguments may be arrays; a
    field beyond the double range gives an infinite pressure.  Judges
    nothing: the runner's parse-time bounds judge its inputs.
    """
    # float_power: C pow, as a Python float's ** (see mechanical_momentum_density)
    return 0.5 * SI.eps0 * np.float_power(E_t, 2) \
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

    def __post_init__(self):
        object.__setattr__(self, "direction", _stack(self.direction))
        object.__setattr__(self, "polarization", _stack(self.polarization))
        # each check is written so that NaN breaks it
        for name in ("direction", "polarization"):
            v = getattr(self, name)
            if not abs(np.linalg.norm(v) - 1.0) <= _REL_TOL:
                raise ValueError(f"{name} must be a unit vector")
        if not abs(float(self.direction @ self.polarization)) <= _REL_TOL:
            raise ValueError("direction and polarization must be orthogonal")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")

    @property
    def k(self) -> float:
        """Wavenumber in the medium, n omega / c."""
        return self.medium.n * self.omega / SI.c

    @property
    def H0(self) -> float:
        return self.medium.n * self.E0 / (SI.mu0 * self.medium.mu_r * SI.c)

    def phase(self, x=None, t: float = 0.0) -> float:
        kx = 0.0 if x is None else self.k * float(self.direction @ _stack(x))
        return kx - self.omega * t

    def field_at(self, x=None, t: float = 0.0) -> FieldPoint:
        """Instantaneous fields at position x (default origin) and time t."""
        c = math.cos(self.phase(x, t))
        E = self.E0 * c * self.polarization
        H = self.H0 * c * cross(self.direction, self.polarization)
        return FieldPoint.from_EH(self.medium, E, H)

    def poynting_time_derivative(self, x=None, t: float = 0.0) -> np.ndarray:
        """Analytic d(E x H)/dt at (x, t): E0 H0 omega sin(2 phase) k_hat."""
        ph = self.phase(x, t)
        return self.E0 * self.H0 * self.omega * math.sin(2.0 * ph) * self.direction
