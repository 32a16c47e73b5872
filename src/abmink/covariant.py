"""Four-tensor formalism: field/excitation tensors and the Minkowski tensor.

The imaginary-time component convention (x4 = i c t) is mapped onto all-real
4x4 storage: an entry the complex convention writes with a single factor of i
is stored as the real value it multiplies, and every contraction carries the
resulting sign through the diagonal weight eta = diag(1, 1, 1, -1).  The
stored layouts are

    F[i][k] = B_l (cyclic),   F[3][k] = E_k / c,
    H[i][k] = H_l (cyclic),   H[3][k] = D_k / c,

both antisymmetric.  The energy-momentum contraction then reproduces the
3+1 quantities exactly: stress block, Poynting row S[3][k] = S_k / c,
momentum column S[k][3] = c g_k, energy element S[3][3] = w.

Every tensor may also be an (..., 4, 4) stack, every four-vector an
(..., 4) stack and every 3-vector an (..., 3) stack, with a scalar such as
n an (...) stack; the functions broadcast over the leading axes, so a single
tensor is the zero-stack case of the same code.

Units here are the reduced ones in which the vacuum permittivity and
permeability are 1, so the light speed is c = 1; the code fixes it there,
and the formulas keep c as notation.  Use :func:`normalized_from_si` to
bring SI fields into these units; energy density and stress are
numerically unchanged by the rescaling, the Poynting vector maps as
S -> S/c_SI and momentum density as g -> c_SI g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _REL_TOL, SI, FieldPoint, MomentumTag, _stack, cross, unchecked

__all__ = [
    "ETA",
    "FourVelocity",
    "FieldTensor4",
    "ExcitationTensor4",
    "EMTensor4",
    "FourMomentum",
    "field_tensor_from_EB",
    "excitation_from_DH",
    "excitation_from_constitutive",
    "minkowski_tensor4",
    "divergence_residual",
    "classify_four_momentum",
    "plane_wave_sampler",
    "pulse_four_momentum",
    "normalized_from_si",
]

ETA = np.diag([1.0, 1.0, 1.0, -1.0])
ETA.flags.writeable = False
_SIGN = ETA.diagonal()  # eta is diagonal: M eta scales M's columns by these signs
_SIGNS = np.outer(_SIGN, _SIGN)  # and eta M eta scales M's entries by these

# (row, column) of the cyclic rule m[i][k] = v_l, for l = 0, 1, 2
_AXIAL = (np.array([1, 2, 0]), np.array([2, 0, 1]))

# the central-difference stencil: +x, +y, +z, +ct, then the same negated
_STENCIL = np.vstack([np.eye(4), -np.eye(4)])
_STENCIL.flags.writeable = False
_NULL_TOL = 1e-9  # classify_four_momentum's relative tolerance for 'null'


def _per_tensor(x) -> np.ndarray:
    """A scalar or an (...) stack of them, broadcastable over (..., 4, 4)."""
    return np.asarray(x, dtype=float)[..., None, None]


def _antisym_from_vectors(row4, spatial_axial) -> np.ndarray:
    v = np.asarray(spatial_axial, dtype=float)
    row = np.asarray(row4, dtype=float)
    m = np.zeros(np.broadcast(v, row).shape[:-1] + (4, 4))
    m[..., _AXIAL[0], _AXIAL[1]] = v
    m[..., _AXIAL[1], _AXIAL[0]] = -v
    m[..., 3, :3] = row
    m[..., :3, 3] = -m[..., 3, :3]
    m.flags.writeable = False  # antisymmetric by construction: the builders skip the check
    return m


def _time_row(t) -> np.ndarray:
    """c times the fourth row: E, D or the Poynting vector."""
    return t.M[..., 3, :3]


def _axial(t) -> np.ndarray:
    """The inverse of the cyclic rule m[i][k] = v_l: B or H."""
    return t.M[..., _AXIAL[0], _AXIAL[1]]


@dataclass(frozen=True)
class FourVelocity:
    """Uniform medium four-velocity, normalized to V.eta.V = -c^2."""

    V: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "V", _stack(self.V, (4,)))
        norm = np.vecdot(self.V @ ETA, self.V)
        if not np.all(np.abs(norm + 1.0) <= _REL_TOL):  # a NaN breaks it
            raise ValueError(f"four-velocity norm is {norm}, expected -1.0")

    @classmethod
    def rest(cls) -> "FourVelocity":
        return cls(V=np.array([0.0, 0.0, 0.0, 1.0]))

    @classmethod
    def from_three_velocity(cls, v3) -> "FourVelocity":
        v3 = _stack(v3, (3,))
        beta2 = np.vecdot(v3, v3)
        if not np.all(beta2 < 1.0):  # a NaN breaks it
            raise ValueError(f"|v| must be < c, got |v|^2/c^2 = {beta2}")
        gamma = (1.0 / np.sqrt(1.0 - beta2))[..., None]
        return cls(V=np.concatenate([gamma * v3, gamma], axis=-1))


@dataclass(frozen=True)
class _Tensor4:
    M: np.ndarray
    _kind = ""  # an antisymmetric kind's name, for its error

    def __post_init__(self):
        m = _stack(self.M, (4, 4))
        object.__setattr__(self, "M", m)
        if self._kind:
            mt = -np.swapaxes(m, -1, -2)
            # all equal decides a tensor without a NaN; a NaN entry is left to
            # the caller's non-finite check, if its mirror entry is NaN too
            if not ((m == mt).all() or np.array_equal(m, mt, equal_nan=True)):
                raise ValueError(f"{self._kind} must be antisymmetric")


class FieldTensor4(_Tensor4):
    """Antisymmetric field-strength tensor built from (E, B)."""

    _kind = "field tensor"
    E = property(_time_row)
    B = property(_axial)


class ExcitationTensor4(_Tensor4):
    """Antisymmetric excitation tensor built from (D, H)."""

    _kind = "excitation tensor"
    D = property(_time_row)
    H = property(_axial)


class EMTensor4(_Tensor4):
    """Energy-momentum tensor with 3+1 accessors.

    Non-symmetric between the Poynting row and the momentum column whenever
    n differs from 1: the stored entries satisfy S[k][3] / S[3][k] = n^2
    along the propagation direction of a plane wave.
    """

    poynting = property(_time_row)

    @property
    def stress(self) -> np.ndarray:
        return self.M[..., :3, :3]

    @property
    def momentum_density(self) -> np.ndarray:
        return self.M[..., :3, 3]

    @property
    def energy_density(self) -> np.ndarray:
        return self.M[..., 3, 3]


@dataclass(frozen=True)
class FourMomentum:
    """Momentum 3-vector and energy of a field region (consistent units)."""

    G: np.ndarray
    W: float | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "G", _stack(self.G, (3,)))


def field_tensor_from_EB(E, B) -> FieldTensor4:
    """Pack E into the fourth row (scaled by 1/c) and B into the spatial block."""
    return unchecked(FieldTensor4, M=_antisym_from_vectors(E, B))


def excitation_from_DH(D, H) -> ExcitationTensor4:
    """Pack D into the fourth row (scaled by 1/c) and H into the spatial block."""
    return unchecked(ExcitationTensor4, M=_antisym_from_vectors(D, H))


def excitation_from_constitutive(F: FieldTensor4, V: FourVelocity,
                                 n, mu_r) -> ExcitationTensor4:
    """Excitation tensor of a medium moving with four-velocity V.

    Solves mu_r H = F - ((n^2-1)/c^2) (F.V (x) V - V (x) F.V) for H, the
    covariant form of the linear constitutive relations.  In the rest frame
    this reduces exactly to D = (n^2/mu_r) E and H = B / mu_r.
    """
    W = (F.M @ ETA @ V.V[..., None])[..., 0]  # F contracted once with V
    term = W[..., :, None] * V.V[..., None, :] - V.V[..., :, None] * W[..., None, :]
    n, mu_r = _per_tensor(n), _per_tensor(mu_r)
    return ExcitationTensor4(M=(F.M - (n * n - 1.0) * term) / mu_r)


def minkowski_tensor4(F: FieldTensor4, H: ExcitationTensor4) -> EMTensor4:
    """Contract field and excitation tensors into the energy-momentum tensor.

    S = F.eta.H^T - (1/4) eta tr(F.eta.H.eta), whose rest-frame pieces are
    the stress tensor, E x H, D x B and (E.D + H.B)/2.
    """
    contraction = (F.M * _SIGN) @ np.swapaxes(H.M, -1, -2)
    invariant = np.add.reduce(F.M * (H.M * _SIGNS), axis=(-2, -1))
    return EMTensor4(M=contraction - 0.25 * ETA * _per_tensor(invariant))


def divergence_residual(field_sampler, x, t: float, grid_step) -> np.ndarray:
    """Central-difference estimate of the four-divergence of the field tensor.

    The stencil holds x +- grid_step along each axis at t, and x at
    t +- grid_step / c, so every direction is differenced over the same
    spacetime step.  ``grid_step`` may be an (s,) array of steps, which
    gives an (s, 4) array of residuals.  ``field_sampler(x, t)`` is called
    once, with the whole stencil: x an (..., 8, 3) stack of points and t an
    (..., 8) stack of times.  It returns a (FieldTensor4, ExcitationTensor4)
    pair of (..., 8, 4, 4) stacks, or of single tensors that are broadcast
    when the fields do not depend on (x, t).  For fields solving the
    source-free Maxwell equations in a homogeneous medium the residual
    vanishes; the estimate converges to it at second order in grid_step.
    """
    h = np.asarray(grid_step, dtype=float)
    if (h <= 0.0).any():
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    x = np.asarray(x, dtype=float).reshape(3)
    h = h[..., None, None]
    S = minkowski_tensor4(*field_sampler(x + h * _STENCIL[:, :3],
                                         t + h[..., 0] * _STENCIL[:, 3])).M
    S = np.broadcast_to(S, h.shape[:-2] + (8, 4, 4))
    # column j of the difference along direction j: (..., row, j)
    d = np.diagonal(S[..., :4, :, :] - S[..., 4:, :, :], axis1=-3, axis2=-1)
    return (d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]) / (2.0 * h[..., 0])


def classify_four_momentum(p: FourMomentum):
    """Classify (G, W) as 'spacelike', 'timelike' or 'null'; a stack gives
    an array of classes.

    The discriminant is c^2 |G|^2 - W^2, compared against _NULL_TOL times the
    magnitude scale c^2 |G|^2 + W^2.  Both are taken of (c G, W) divided by
    its largest magnitude, so that squaring cannot overflow; a four-momentum
    with a component that is not finite is 'undecidable'.
    """
    scale = np.maximum(np.max(np.abs(p.G), axis=-1), np.abs(p.W))
    scale = np.where(scale > 0.0, scale, 1.0)  # nan stays nan
    with np.errstate(invalid="ignore"):  # inf / inf: undecidable
        g, w = p.G / scale[..., None], p.W / scale
    g2, w2 = np.vecdot(g, g), np.square(w)
    disc = g2 - w2
    cls = np.where(np.isfinite(disc),
                   np.where(np.abs(disc) <= _NULL_TOL * (g2 + w2), "null",
                            np.where(disc > 0.0, "spacelike", "timelike")),
                   "undecidable")
    return cls if cls.ndim else str(cls)


def _unit(v, key: str) -> np.ndarray:
    """A 3-vector or a (w, 3) stack, each row scaled to unit length."""
    v = np.asarray(v, dtype=float)
    norm = np.sqrt(np.vecdot(v, v))[..., None]  # np.linalg.norm, bit for bit
    if not ((norm > 0.0) & (norm < math.inf)).all():  # a NaN breaks it
        raise ValueError(f"{key} must be finite and nonzero, got {v.tolist()}")
    return v / norm


def plane_wave_sampler(n, mu_r, omega: float, E0,
                       direction=(1.0, 0.0, 0.0), polarization=(0.0, 1.0, 0.0),
                       wavenumber: float | None = None):
    """Sampler for a sum of plane waves of one frequency in a homogeneous
    medium, for divergence checks.

    ``direction`` and ``polarization`` are (w, 3) stacks and ``E0`` a (w,)
    stack, one row per wave (a 3-vector each and a number for one wave);
    the fields are summed.  ``n`` and ``mu_r`` may be stacks broadcasting
    against the points.  ``sample(x, t)`` takes a point or an (..., 3)
    stack, and a time or a stack broadcasting against x[..., 0], and returns
    (FieldTensor4, ExcitationTensor4) stacks.  A wavenumber other than n
    omega / c gives fields that do not solve the wave equation (a negative
    control).  A direction or polarization that is not finite and nonzero,
    and an omega, E0, n or mu_r that is not finite, are a ValueError naming
    the key.
    """
    for name, value in (("omega", omega), ("E0", E0), ("n", n), ("mu_r", mu_r)):
        if not (math.isfinite(value) if isinstance(value, float)
                else np.isfinite(value).all()):
            raise ValueError(f"{name} must be finite, got {value}")
    d, p = _unit(direction, "direction"), _unit(polarization, "polarization")
    if (np.abs(np.vecdot(d, p)) > _REL_TOL).any():
        raise ValueError("direction and polarization must be orthogonal")
    # a trailing axis against the waves' axis
    n, mu_r = (np.asarray(v, dtype=float)[..., None] for v in (n, mu_r))
    k = n * omega if wavenumber is None else wavenumber
    eps_r = n * n / mu_r
    b_hat = cross(d, p)

    def sample(x, t):
        # (..., w): a phase per point and wave; the waves sum elementwise
        cos = np.cos(k * np.vecdot(np.asarray(x, dtype=float)[..., None, :], d)
                     - omega * np.asarray(t, dtype=float)[..., None])
        E = np.add.reduce((E0 * cos)[..., None] * p, -2)
        B = np.add.reduce((n * E0 * cos)[..., None] * b_hat, -2)
        return field_tensor_from_EB(E, B), excitation_from_DH(eps_r * E, B / mu_r)

    return sample


def pulse_four_momentum(S: EMTensor4, volume: float,
                        tag: MomentumTag) -> FourMomentum:
    """Four-momentum of a field-filled region of the given volume.

    Under the Minkowski tag G comes from the tensor's momentum column; the
    Abraham variant substitutes the Poynting vector over c^2 as density.
    """
    g = S.momentum_density if tag is MomentumTag.MINKOWSKI else S.poynting
    return FourMomentum(G=volume * g, W=volume * S.energy_density)


def normalized_from_si(fp: FieldPoint):
    """Rescale SI fields into the reduced units used by this module.

    Returns (E, D, H, B) with E, H multiplied by sqrt(eps0), sqrt(mu0) and
    D, B divided by the same factors, so that D = eps_r E and B = mu_r H and
    the consistent light speed is 1.
    """
    se = math.sqrt(SI.eps0)
    sm = math.sqrt(SI.mu0)
    return se * fp.E, fp.D / se, sm * fp.H, fp.B / sm
