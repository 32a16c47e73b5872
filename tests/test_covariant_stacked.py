"""The stacked covariant layer against the scalar layer it replaced.

The scalar kernels of ``abmink.covariant`` and the runner's
``_covariant_check_rows``, as they were before the layer took stacks, are
copied below verbatim as the oracle.  Every row of a stacked call must equal
the scalar call on that row, bit for bit, and the runner's checks must equal
the oracle's, classes included, also where a coarse step makes the
convergence ratios nan.  Property tests then hold the covariant
constitutive relation to the rest-frame law seen from a moving frame, and
the Minkowski tensor of boosted fields to the boosted tensor.
"""

import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from abmink import covariant as stacked
from abmink.core import MomentumTag
from abmink.runner import _covariant_check_rows as stacked_check_rows
from abmink.runner import parse_config, run

# ---------------------------------------------------------------------------
# the scalar layer, verbatim
# ---------------------------------------------------------------------------

_REL_TOL = 1e-12

ETA = np.diag([1.0, 1.0, 1.0, -1.0])
ETA.flags.writeable = False


def _mat4(a) -> np.ndarray:
    m = np.array(a, dtype=float).reshape(4, 4)
    m.flags.writeable = False
    return m


def _check_antisymmetric(m: np.ndarray, what: str):
    if not np.array_equal(m, -m.T):
        raise ValueError(f"{what} must be antisymmetric")


def _spatial_axial(m: np.ndarray) -> np.ndarray:
    # inverse of the cyclic rule m[i][k] = v_l
    return np.array([m[1, 2], m[2, 0], m[0, 1]])


def _antisym_from_vectors(row4, spatial_axial, c: float) -> np.ndarray:
    m = np.zeros((4, 4))
    v = np.asarray(spatial_axial, dtype=float)
    m[0, 1], m[1, 2], m[2, 0] = v[2], v[0], v[1]
    m[1, 0], m[2, 1], m[0, 2] = -v[2], -v[0], -v[1]
    m[3, :3] = np.asarray(row4, dtype=float) / c
    m[:3, 3] = -m[3, :3]
    return m


@dataclass(frozen=True)
class FourVelocity:
    """Uniform medium four-velocity, normalized to V.eta.V = -c^2."""

    V: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        v = np.array(self.V, dtype=float).reshape(4)
        v.flags.writeable = False
        object.__setattr__(self, "V", v)
        norm = float(v @ ETA @ v)
        if abs(norm + self.c**2) > _REL_TOL * self.c**2:
            raise ValueError(
                f"four-velocity norm is {norm}, expected {-self.c**2}"
            )

    @classmethod
    def rest(cls, c: float = 1.0) -> "FourVelocity":
        return cls(V=np.array([0.0, 0.0, 0.0, c]), c=c)

    @classmethod
    def from_three_velocity(cls, v3, c: float = 1.0) -> "FourVelocity":
        v3 = np.asarray(v3, dtype=float).reshape(3)
        beta2 = float(v3 @ v3) / c**2
        if beta2 >= 1.0:
            raise ValueError(f"|v| must be < c, got |v|^2/c^2 = {beta2}")
        gamma = 1.0 / math.sqrt(1.0 - beta2)
        return cls(V=np.concatenate([gamma * v3, [gamma * c]]), c=c)


@dataclass(frozen=True)
class FieldTensor4:
    """Antisymmetric field-strength tensor built from (E, B)."""

    M: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "M", _mat4(self.M))
        _check_antisymmetric(self.M, "field tensor")

    @property
    def E(self) -> np.ndarray:
        return self.c * self.M[3, :3]

    @property
    def B(self) -> np.ndarray:
        return _spatial_axial(self.M)


@dataclass(frozen=True)
class ExcitationTensor4:
    """Antisymmetric excitation tensor built from (D, H)."""

    M: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "M", _mat4(self.M))
        _check_antisymmetric(self.M, "excitation tensor")

    @property
    def D(self) -> np.ndarray:
        return self.c * self.M[3, :3]

    @property
    def H(self) -> np.ndarray:
        return _spatial_axial(self.M)


@dataclass(frozen=True)
class EMTensor4:
    """Energy-momentum tensor with 3+1 accessors.

    Non-symmetric between the Poynting row and the momentum column whenever
    n differs from 1: the stored entries satisfy S[k][3] / S[3][k] = n^2
    along the propagation direction of a plane wave.
    """

    M: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "M", _mat4(self.M))

    @property
    def stress(self) -> np.ndarray:
        return self.M[:3, :3]

    @property
    def poynting(self) -> np.ndarray:
        return self.c * self.M[3, :3]

    @property
    def momentum_density(self) -> np.ndarray:
        return self.M[:3, 3] / self.c

    @property
    def energy_density(self) -> float:
        return float(self.M[3, 3])


@dataclass(frozen=True)
class FourMomentum:
    """Momentum 3-vector and energy of a field region (consistent units)."""

    G: np.ndarray
    W: float

    def __post_init__(self):
        g = np.array(self.G, dtype=float).reshape(3)
        g.flags.writeable = False
        object.__setattr__(self, "G", g)


def field_tensor_from_EB(E, B, c: float = 1.0) -> FieldTensor4:
    """Pack E into the fourth row (scaled by 1/c) and B into the spatial block."""
    return FieldTensor4(M=_antisym_from_vectors(E, B, c), c=c)


def excitation_from_DH(D, H, c: float = 1.0) -> ExcitationTensor4:
    """Pack D into the fourth row (scaled by 1/c) and H into the spatial block."""
    return ExcitationTensor4(M=_antisym_from_vectors(D, H, c), c=c)


def excitation_from_constitutive(F: FieldTensor4, V: FourVelocity,
                                 n: float, mu_r: float) -> ExcitationTensor4:
    """Excitation tensor of a medium moving with four-velocity V.

    Solves mu_r H = F - ((n^2-1)/c^2) (F.V (x) V - V (x) F.V) for H, the
    covariant form of the linear constitutive relations.  In the rest frame
    this reduces exactly to D = (n^2/mu_r) E and H = B / mu_r.
    """
    if F.c != V.c:
        raise ValueError("field tensor and four-velocity use different c")
    c = F.c
    W = F.M @ ETA @ V.V  # F contracted once with the four-velocity
    term = np.outer(W, V.V) - np.outer(V.V, W)
    return ExcitationTensor4(M=(F.M - (n * n - 1.0) / c**2 * term) / mu_r, c=c)


def minkowski_tensor4(F: FieldTensor4, H: ExcitationTensor4) -> EMTensor4:
    """Contract field and excitation tensors into the energy-momentum tensor.

    S = F.eta.H^T - (1/4) eta tr(F.eta.H.eta), whose rest-frame pieces are
    the stress tensor, E x H, D x B and (E.D + H.B)/2.
    """
    if F.c != H.c:
        raise ValueError("field and excitation tensors use different c")
    contraction = F.M @ ETA @ H.M.T
    invariant = float(np.sum(F.M * (ETA @ H.M @ ETA)))
    return EMTensor4(M=contraction - 0.25 * ETA * invariant, c=F.c)


def divergence_residual(field_sampler, x, t: float, grid_step: float,
                        c: float = 1.0) -> np.ndarray:
    """Central-difference estimate of the four-divergence of the field tensor.

    ``field_sampler(x, t)`` must return a (FieldTensor4, ExcitationTensor4)
    pair.  The time stencil uses dt = grid_step / c so every direction is
    differenced over the same spacetime step.  For fields solving the
    source-free Maxwell equations in a homogeneous medium the residual
    vanishes; the estimate converges to it at second order in grid_step.
    """
    if grid_step <= 0.0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    x = np.asarray(x, dtype=float).reshape(3)

    def tensor(xx, tt):
        return minkowski_tensor4(*field_sampler(xx, tt)).M

    residual = np.zeros(4)
    for j in range(3):
        step = np.zeros(3)
        step[j] = grid_step
        residual += (tensor(x + step, t) - tensor(x - step, t))[:, j]
    dt = grid_step / c
    residual += (tensor(x, t + dt) - tensor(x, t - dt))[:, 3]
    return residual / (2.0 * grid_step)


def classify_four_momentum(p: FourMomentum, c: float = 1.0,
                           rel_tol: float = 1e-9) -> str:
    """Classify (G, W) as 'spacelike', 'timelike' or 'null'.

    The discriminant is c^2 |G|^2 - W^2, compared against rel_tol times the
    magnitude scale c^2 |G|^2 + W^2.
    """
    g2 = c**2 * float(p.G @ p.G)
    w2 = p.W**2
    disc = g2 - w2
    if abs(disc) <= rel_tol * (g2 + w2):
        return "null"
    return "spacelike" if disc > 0.0 else "timelike"


def plane_wave_sampler(n: float, mu_r: float, omega: float, E0: float,
                       direction=(1.0, 0.0, 0.0), polarization=(0.0, 1.0, 0.0),
                       c: float = 1.0, wavenumber: float | None = None):
    """Sampler for a plane wave in a homogeneous medium, for divergence checks.

    Returns ``sample(x, t) -> (FieldTensor4, ExcitationTensor4)``.  The
    default wavenumber n omega / c satisfies the medium dispersion relation;
    passing any other value produces fields that do not solve the wave
    equation (useful as a negative control).
    """
    d = np.asarray(direction, dtype=float)
    p = np.asarray(polarization, dtype=float)
    d = d / np.linalg.norm(d)
    p = p / np.linalg.norm(p)
    if abs(float(d @ p)) > _REL_TOL:
        raise ValueError("direction and polarization must be orthogonal")
    k = n * omega / c if wavenumber is None else wavenumber
    eps_r = n * n / mu_r
    b_hat = np.cross(d, p)

    def sample(x, t):
        phase = k * float(d @ np.asarray(x, dtype=float)) - omega * t
        E = E0 * math.cos(phase) * p
        B = (n / c) * E0 * math.cos(phase) * b_hat
        F = field_tensor_from_EB(E, B, c)
        Hx = excitation_from_DH(eps_r * E, B / mu_r, c)
        return F, Hx

    return sample


def pulse_four_momentum(S: EMTensor4, volume: float,
                        tag: MomentumTag) -> FourMomentum:
    """Four-momentum of a field-filled region of the given volume.

    Under the Minkowski tag G comes from the tensor's momentum column; the
    Abraham variant substitutes the Poynting vector over c^2 as density.
    """
    if tag is MomentumTag.MINKOWSKI:
        g = S.momentum_density
    else:
        g = S.poynting / S.c**2
    return FourMomentum(G=volume * g, W=volume * S.energy_density)


def two_wave_sampler(n: float, mu_r: float, omega: float = 2.0 * math.pi,
                     c: float = 1.0):
    """Not verbatim: the field the divergence check differentiates since a
    single wave's truncation errors cancel at n = 1.  The sum of a wave
    along x, polarized along y, and one of amplitude 0.7 at 60 degrees in
    the x-y plane, polarized along z, each written as the scalar
    ``plane_wave_sampler`` writes it; E and B are summed before D and H
    are taken from them."""
    waves = [(1.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
             (0.7, (0.5, math.sqrt(0.75), 0.0), (0.0, 0.0, 1.0))]
    eps_r = n * n / mu_r

    def sample(x, t):
        fields = []
        for E0, direction, polarization in waves:
            d = np.asarray(direction, dtype=float)
            p = np.asarray(polarization, dtype=float)
            d = d / np.linalg.norm(d)
            p = p / np.linalg.norm(p)
            phase = (n * omega / c) * float(d @ np.asarray(x, dtype=float)) - omega * t
            fields.append((E0 * math.cos(phase) * p,
                           (n / c) * E0 * math.cos(phase) * np.cross(d, p)))
        (E1, B1), (E2, B2) = fields
        E, B = E1 + E2, B1 + B2
        return (field_tensor_from_EB(E, B, c),
                excitation_from_DH(eps_r * E, B / mu_r, c))

    return sample


# the names the verbatim runner code looks up
covariant = SimpleNamespace(
    FourVelocity=FourVelocity, field_tensor_from_EB=field_tensor_from_EB,
    excitation_from_constitutive=excitation_from_constitutive,
    plane_wave_sampler=plane_wave_sampler, divergence_residual=divergence_residual,
    minkowski_tensor4=minkowski_tensor4, classify_four_momentum=classify_four_momentum,
    pulse_four_momentum=pulse_four_momentum)


def _covariant_check_rows(n: float, mu_r: float, grid_step: float):
    """Deterministic covariant self-checks (reduced units, c = 1): check
    name -> value, and residual name -> value."""
    rng = np.random.default_rng(20240811)
    eps_r = n * n / mu_r
    rest = covariant.FourVelocity.rest()
    const_err = 0.0
    for _ in range(16):
        E = rng.normal(size=3)
        B = rng.normal(size=3)
        F = covariant.field_tensor_from_EB(E, B)
        H = covariant.excitation_from_constitutive(F, rest, n, mu_r)
        scale = max(np.max(np.abs(E)), np.max(np.abs(B)), 1e-300)
        const_err = max(
            const_err,
            float(np.max(np.abs(H.D - eps_r * E))) / scale,
            float(np.max(np.abs(H.H - B / mu_r))) / scale,
        )

    sampler = covariant.plane_wave_sampler(n=n, mu_r=mu_r,
                                           omega=2.0 * math.pi, E0=1.0)
    x = np.array([0.123, 0.0, 0.0])
    t = 0.077
    res = [np.linalg.norm(covariant.divergence_residual(two_wave_sampler(n, mu_r),
                                                        x, t, h))
           for h in (grid_step, grid_step / 2.0, grid_step / 4.0)]
    ratios = (res[0] / res[1], res[1] / res[2])

    F, Hx = sampler(x, 0.0)
    S = covariant.minkowski_tensor4(F, Hx)
    cls_m = covariant.classify_four_momentum(
        covariant.pulse_four_momentum(S, 1.0, MomentumTag.MINKOWSKI))
    cls_a = covariant.classify_four_momentum(
        covariant.pulse_four_momentum(S, 1.0, MomentumTag.ABRAHAM))
    vac = covariant.plane_wave_sampler(n=1.0, mu_r=1.0, omega=2.0 * math.pi,
                                       E0=1.0)(x, 0.0)
    S_vac = covariant.minkowski_tensor4(*vac)
    cls_vac = covariant.classify_four_momentum(
        covariant.pulse_four_momentum(S_vac, 1.0, MomentumTag.MINKOWSKI))

    checks = {
        "constitutive_rest_frame_max_rel_err": const_err,
        "divergence_ratio_coarse": ratios[0],
        "divergence_ratio_fine": ratios[1],
        "four_momentum_class_minkowski": cls_m,
        "four_momentum_class_abraham": cls_a,
        "four_momentum_class_vacuum": cls_vac,
    }
    residuals = {
        "constitutive_max_rel_err": const_err,
        "divergence_ratio_err": max(abs(r / 4.0 - 1.0) for r in ratios),
    }
    return checks, residuals




# ---------------------------------------------------------------------------
# stacked rows against scalar calls
# ---------------------------------------------------------------------------

# field components of either sign over nine decades, or exactly zero
_component = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


def _vectors(m):
    return arrays(float, (m, 3), elements=_component)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stacked_tensors_match_the_scalar_calls_row_by_row(data):
    m = data.draw(st.integers(1, 8))
    E, B, D, H = (data.draw(_vectors(m)) for _ in range(4))
    v = data.draw(arrays(float, (m, 3), elements=st.floats(-0.5, 0.5)))
    n = data.draw(arrays(float, m, elements=st.floats(1.0, 3.0)))
    mu_r = data.draw(arrays(float, m, elements=st.floats(0.5, 2.0)))
    F = stacked.field_tensor_from_EB(E, B)
    X = stacked.excitation_from_DH(D, H)
    V = stacked.FourVelocity.from_three_velocity(v)
    K = stacked.excitation_from_constitutive(F, V, n, mu_r)
    # one four-velocity and one medium for the whole stack
    K_rest = stacked.excitation_from_constitutive(F, stacked.FourVelocity.rest(),
                                                  1.5, 1.2)
    S = stacked.minkowski_tensor4(F, X)
    S_K = stacked.minkowski_tensor4(F, K)
    pulses = {tag: stacked.pulse_four_momentum(S_K, 2.0, tag) for tag in MomentumTag}
    classes = {tag: stacked.classify_four_momentum(p) for tag, p in pulses.items()}
    for i in range(m):
        F_i = field_tensor_from_EB(E[i], B[i])
        X_i = excitation_from_DH(D[i], H[i])
        V_i = FourVelocity.from_three_velocity(v[i])
        K_i = excitation_from_constitutive(F_i, V_i, float(n[i]), float(mu_r[i]))
        S_i = minkowski_tensor4(F_i, X_i)
        S_K_i = minkowski_tensor4(F_i, K_i)
        pairs = [(F.M[i], F_i.M), (F.E[i], F_i.E), (F.B[i], F_i.B),
                 (X.M[i], X_i.M), (X.D[i], X_i.D), (X.H[i], X_i.H),
                 (V.V[i], V_i.V), (K.M[i], K_i.M),
                 (K_rest.M[i], excitation_from_constitutive(
                     F_i, FourVelocity.rest(), 1.5, 1.2).M),
                 (S.M[i], S_i.M), (S.stress[i], S_i.stress),
                 (S.poynting[i], S_i.poynting),
                 (S.momentum_density[i], S_i.momentum_density),
                 (S.energy_density[i], S_i.energy_density), (S_K.M[i], S_K_i.M)]
        for tag in MomentumTag:
            p_i = pulse_four_momentum(S_K_i, 2.0, tag)
            pairs += [(pulses[tag].G[i], p_i.G), (pulses[tag].W[i], p_i.W)]
            assert classes[tag][i] == classify_four_momentum(p_i)
        for got, want in pairs:
            assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_stacked_plane_wave_and_divergence_match_the_scalar_calls(data):
    n = data.draw(st.one_of(st.just(1.0), st.floats(1.0, 2.0)))
    mu_r = data.draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
    direction = data.draw(arrays(float, 3, elements=st.floats(-1.0, 1.0)).filter(
        lambda d: np.linalg.norm(d) > 0.1))
    polarization = np.cross(direction, data.draw(
        arrays(float, 3, elements=st.floats(-1.0, 1.0))))
    if np.linalg.norm(polarization) < 0.1:
        polarization = np.cross(direction, [1.0, 2.0, 3.0])
    # a wrong wavenumber gives fields that do not solve the wave equation
    wavenumber = data.draw(st.one_of(st.none(), st.floats(1.0, 20.0)))
    kw = dict(n=n, mu_r=mu_r, omega=2 * math.pi, E0=data.draw(st.floats(0.1, 10.0)),
              direction=direction, polarization=polarization, wavenumber=wavenumber)
    new, old = stacked.plane_wave_sampler(**kw), plane_wave_sampler(**kw)

    m = data.draw(st.integers(1, 8))
    x = data.draw(arrays(float, (m, 3), elements=st.floats(-1.0, 1.0)))
    t = data.draw(arrays(float, m, elements=st.floats(-1.0, 1.0)))
    F, X = new(x, t)
    S = stacked.minkowski_tensor4(F, X)
    classes = stacked.classify_four_momentum(
        stacked.pulse_four_momentum(S, 1.0, MomentumTag.MINKOWSKI))
    for i in range(m):
        F_i, X_i = old(x[i], float(t[i]))
        assert np.array_equal(F.M[i], F_i.M) and np.array_equal(X.M[i], X_i.M)
        assert classes[i] == classify_four_momentum(pulse_four_momentum(
            minkowski_tensor4(F_i, X_i), 1.0, MomentumTag.MINKOWSKI))

    steps = data.draw(arrays(float, data.draw(st.integers(1, 4)),
                             elements=st.floats(1e-4, 0.1)))
    residuals = stacked.divergence_residual(new, x[0], float(t[0]), steps)
    assert residuals.shape == (steps.size, 4)
    for j, h in enumerate(steps):
        want = divergence_residual(old, x[0], float(t[0]), float(h))
        assert np.array_equal(residuals[j], want)
        assert np.array_equal(
            stacked.divergence_residual(new, x[0], float(t[0]), float(h)), want)


# ---------------------------------------------------------------------------
# the runner's checks against the oracle
# ---------------------------------------------------------------------------

def test_the_oracle_grid_reaches_nan_ratios():
    with np.errstate(all="ignore"):  # every residual is exactly 0
        checks, residuals = _covariant_check_rows(1.0, 1.0, 1e300)
    assert math.isnan(checks["divergence_ratio_fine"])
    assert math.isnan(residuals["divergence_ratio_err"])


@pytest.mark.parametrize("grid_step", [1e-3, 2e-3, 0.1, 0.3, 1.0, 2.0, 1e300])
@pytest.mark.parametrize("mu_r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [1.0, 1.5, 1.9])
def test_check_rows_equal_the_scalar_oracle(n, mu_r, grid_step):
    with np.errstate(all="ignore"):  # coarse steps give inf and nan ratios
        want = _covariant_check_rows(n, mu_r, grid_step)
        got = stacked_check_rows(n, mu_r, grid_step)
    for got_part, want_part in zip(got, want):
        assert list(got_part) == list(want_part)
        for name, value in want_part.items():
            assert type(got_part[name]) in (str, float)  # report cells
            assert got_part[name] == value or (value != value
                                               and got_part[name] != got_part[name])


# ---------------------------------------------------------------------------
# the stencil
# ---------------------------------------------------------------------------

def test_divergence_samples_the_whole_stencil_in_one_call():
    calls = []
    wave = stacked.plane_wave_sampler(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0)

    def sampler(x, t):
        calls.append((np.shape(x), np.shape(t)))
        return wave(x, t)

    steps = np.array([1e-3, 5e-4, 2.5e-4])
    res = stacked.divergence_residual(sampler, [0.1, 0.0, 0.0], 0.2, steps)
    assert calls == [((3, 8, 3), (3, 8))] and res.shape == (3, 4)
    stacked.divergence_residual(sampler, [0.1, 0.0, 0.0], 0.2, 1e-3)
    assert calls[1:] == [((8, 3), (8,))]

    F, X = wave(np.zeros(3), 0.0)  # a static field: single tensors, broadcast
    res = stacked.divergence_residual(lambda x, t: (F, X), np.zeros(3), 0.0, steps)
    assert np.array_equal(res, np.zeros((3, 4)))


@pytest.mark.parametrize("steps", [[1e-3, 0.0], [1e-3, -1e-3], [-1.0], [0.0, 0.0, 0.0]])
def test_divergence_rejects_steps_not_above_zero(steps):
    sampler = stacked.plane_wave_sampler(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0)
    with pytest.raises(ValueError, match="grid_step must be > 0"):
        stacked.divergence_residual(sampler, np.zeros(3), 0.0, np.array(steps))


_X, _Y, _Z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
_NAN = (math.nan, 0.0, 0.0)


@pytest.mark.parametrize("kw, message", [
    (dict(direction=_NAN), "direction must be finite and nonzero"),
    (dict(direction=(0.0, 0.0, 0.0)), "direction must be finite and nonzero"),
    (dict(direction=(math.inf, 0.0, 0.0)), "direction must be finite and nonzero"),
    (dict(polarization=(0.0, math.nan, 0.0)), "polarization must be finite and nonzero"),
    (dict(polarization=(0.0, 0.0, 0.0)), "polarization must be finite and nonzero"),
    (dict(omega=math.nan), "omega must be finite"),
    (dict(omega=math.inf), "omega must be finite"),
    (dict(E0=math.nan), "^E0 must be finite, got nan"),
    (dict(n=math.nan), "^n must be finite, got nan"),
    (dict(mu_r=math.nan), "^mu_r must be finite, got nan"),
    (dict(n=[1.5, math.inf]), "^n must be finite"),
    (dict(E0=[1.0, math.nan], direction=[_X, _X], polarization=[_Y, _Z]),
     "^E0 must be finite"),
    # one bad wave of a stack
    (dict(direction=[_X, _NAN], polarization=[_Y, _Z]), "direction must be finite"),
    (dict(direction=[_X, _X], polarization=[_Y, (0.0, 0.0, 0.0)]),
     "polarization must be finite"),
    (dict(direction=[_X, _X], polarization=[_Y, _X]), "must be orthogonal"),
])
def test_plane_wave_sampler_rejects_bad_waves(kw, message):
    args = dict(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0) | kw
    with pytest.raises(ValueError, match=message):
        stacked.plane_wave_sampler(**args)


@pytest.mark.parametrize("kw", [dict(n=1e200), dict(mu_r=1e-300)])
def test_plane_wave_sampler_takes_finite_inputs_that_overflow(kw):
    # the overflow comes later; the runner reports it per check (test_runner)
    args = dict(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0) | kw
    with np.errstate(all="ignore"):
        F, _ = stacked.plane_wave_sampler(**args)(np.zeros(3), 0.0)
    assert F.E.shape == (3,)


def test_a_wave_stack_sums_its_waves_and_a_medium_stack_holds_each_medium():
    x, t = np.array([[0.3, -0.2, 0.5], [0.1, 0.0, 0.0]]), np.array([0.1, 0.4])
    kw = dict(n=1.5, mu_r=2.0, omega=2 * math.pi)
    waves = [(1.0, _X, _Y), (0.7, (0.5, math.sqrt(0.75), 0.0), _Z)]
    F, X = stacked.plane_wave_sampler(
        **kw, E0=np.array([w[0] for w in waves]),
        direction=[w[1] for w in waves], polarization=[w[2] for w in waves])(x, t)
    (F1, _), (F2, _) = (stacked.plane_wave_sampler(
        **kw, E0=E0, direction=d, polarization=p)(x, t) for E0, d, p in waves)
    E, B = F1.E + F2.E, F1.B + F2.B
    assert np.array_equal(F.E, E) and np.array_equal(F.B, B)
    assert np.array_equal(X.D, 1.5 * 1.5 / 2.0 * E) and np.array_equal(X.H, B / 2.0)

    # n and mu_r broadcast against the points: (2,) media at one point
    F, X = stacked.plane_wave_sampler([1.5, 1.0], [2.0, 1.0], 2 * math.pi, 1.0)(x[0], 0.3)
    for i, (n, mu_r) in enumerate([(1.5, 2.0), (1.0, 1.0)]):
        F_i, X_i = plane_wave_sampler(n, mu_r, 2 * math.pi, 1.0)(x[0], 0.3)
        assert np.array_equal(F.M[i], F_i.M) and np.array_equal(X.M[i], X_i.M)


# ---------------------------------------------------------------------------
# input checks that a NaN must break
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("V", [[math.nan, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, math.nan],
                               [[0.0, 0.0, 0.0, 1.0], [0.0, math.nan, 0.0, 1.0]]])
def test_four_velocity_rejects_a_nan_component(V):
    with pytest.raises(ValueError, match="four-velocity norm is"):
        stacked.FourVelocity(V=V)


@pytest.mark.parametrize("v3", [[math.nan, 0.0, 0.0], [[0.1, 0.0, 0.0], [0.0, 0.0, math.nan]]])
def test_four_velocity_from_a_nan_three_velocity_is_rejected(v3):
    with pytest.raises(ValueError, match=r"\|v\| must be < c"):
        stacked.FourVelocity.from_three_velocity(v3)


_entry = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                   st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_antisymmetry_check_accepts_exactly_what_array_equal_accepts(data):
    shape = data.draw(st.sampled_from([(), (1,), (3,), (2, 3)])) + (4, 4)
    upper = np.triu(data.draw(arrays(float, shape, elements=_entry)), 1)
    m = upper - np.swapaxes(upper, -1, -2)
    m[..., range(4), range(4)] = data.draw(arrays(float, shape[:-1], elements=_entry))
    for _ in range(data.draw(st.integers(0, 2))):  # break a mirror pair, or not
        index = tuple(data.draw(st.integers(0, k - 1)) for k in shape)
        m[index] = data.draw(_entry)
    want = np.array_equal(m, -np.swapaxes(m, -1, -2), equal_nan=True)
    for kind in (stacked.FieldTensor4, stacked.ExcitationTensor4):
        try:
            kind(M=m)
        except ValueError as exc:
            assert not want and "must be antisymmetric" in str(exc)
        else:
            assert want


# ---------------------------------------------------------------------------
# covariant-checks is one stacked pass
# ---------------------------------------------------------------------------

def test_covariant_checks_run_makes_one_stacked_pass(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    build = stacked.plane_wave_sampler
    monkeypatch.setattr(stacked, "plane_wave_sampler",
                        lambda *a, **kw: counting("sampler", build(*a, **kw)))
    for name in ("minkowski_tensor4", "classify_four_momentum"):
        monkeypatch.setattr(stacked, name, counting(name, getattr(stacked, name)))
    report = run(parse_config("scenario = covariant-checks\n"))
    assert len(report.rows) == 6 and report.errors == []
    assert counts["sampler"] <= 2 and counts["minkowski_tensor4"] <= 2
    assert counts["classify_four_momentum"] == 1


# ---------------------------------------------------------------------------
# the constitutive relation is Lorentz covariant
# ---------------------------------------------------------------------------

def _boost(a, b, v):
    """(E, B), or (D, H), seen from a frame moving with velocity v (c = 1)."""
    gamma = 1.0 / np.sqrt(1.0 - np.sum(v * v, axis=-1, keepdims=True))
    k = gamma**2 / (gamma + 1.0) * v  # times v.a gives the part along v
    return (gamma * (a + np.cross(v, b)) - k * np.sum(v * a, axis=-1, keepdims=True),
            gamma * (b - np.cross(v, a)) - k * np.sum(v * b, axis=-1, keepdims=True))


_CASES = 200


@settings(max_examples=100, deadline=None)
@given(v=arrays(float, (_CASES, 3), elements=st.floats(-0.5, 0.5)),
       n=arrays(float, _CASES, elements=st.floats(1.0, 2.0)),
       mu_r=arrays(float, _CASES, elements=st.floats(0.5, 2.0)),
       E=_vectors(_CASES), B=_vectors(_CASES))
def test_constitutive_relation_is_the_rest_frame_law_boosted(v, n, mu_r, E, B):
    # into the medium's rest frame, D = eps_r E and H = B / mu_r there, and back
    E_rest, B_rest = _boost(E, B, v)
    D, H = _boost((n * n / mu_r)[:, None] * E_rest, B_rest / mu_r[:, None], -v)
    F = stacked.field_tensor_from_EB(E, B)
    X = stacked.excitation_from_constitutive(
        F, stacked.FourVelocity.from_three_velocity(v), n, mu_r)
    tol = 1e-13 * np.max(np.abs(F.M), axis=(1, 2))[:, None]
    assert np.all(np.abs(X.D - D) <= tol)
    assert np.all(np.abs(X.H - H) <= tol)


_FAR = [  # (G_x, W, class): squares beyond the double range, and no number
    (1.5e200, 1e200, "spacelike"), (1e200, 1.5e200, "timelike"),
    (1e300, 1e300, "null"), (-1.7e308, 1.7e308, "null"),
    (1.5e-200, 1e-200, "spacelike"), (5e-324, 1e-323, "timelike"),
    (0.0, 0.0, "null"), (0.0, -1e300, "timelike"),
    (math.inf, 1.0, "undecidable"), (1.0, -math.inf, "undecidable"),
    (math.nan, 1.0, "undecidable"), (0.0, math.nan, "undecidable"),
]


def test_classification_scales_before_squaring():
    G = np.array([[g, 0.0, 0.0] for g, _, _ in _FAR])
    W = np.array([w for _, w, _ in _FAR])
    want = [cls for _, _, cls in _FAR]
    with np.errstate(all="raise"):  # and no step overflows or divides by zero
        assert stacked.classify_four_momentum(stacked.FourMomentum(G=G, W=W)).tolist() == want
        assert [stacked.classify_four_momentum(stacked.FourMomentum(G=g, W=w))
                for g, w in zip(G, W)] == want


# ---------------------------------------------------------------------------
# the Minkowski tensor is a tensor: S of the boosted F and H is Lambda S Lambda^T
# ---------------------------------------------------------------------------

def _boost_matrix(v):
    """(..., 4, 4) pure boosts Lambda into the frames moving with velocity v
    (c = 1), acting on (x, y, z, ct): x' = Lambda x, Lambda^T eta Lambda = eta."""
    gamma = 1.0 / np.sqrt(1.0 - np.sum(v * v, axis=-1))
    k = (gamma**2 / (gamma + 1.0))[..., None, None]
    L = np.zeros(v.shape[:-1] + (4, 4))
    L[..., :3, :3] = np.eye(3) + k * v[..., :, None] * v[..., None, :]
    L[..., :3, 3] = L[..., 3, :3] = -gamma[..., None] * v
    L[..., 3, 3] = gamma
    return L


def _congruent(L, M):
    """Lambda M Lambda^T, made antisymmetric again where rounding broke it."""
    m = L @ M @ np.swapaxes(L, -1, -2)
    return 0.5 * (m - np.swapaxes(m, -1, -2))


@settings(max_examples=100, deadline=None)
@given(v=arrays(float, (_CASES, 3), elements=st.floats(-0.5, 0.5)),
       E=_vectors(_CASES), B=_vectors(_CASES), D=_vectors(_CASES), H=_vectors(_CASES))
def test_minkowski_tensor_of_boosted_fields_is_the_boosted_tensor(v, E, B, D, H):
    # the storage of covariant.py maps the imaginary-time convention onto real
    # entries, so F, H and S all transform as M -> Lambda M Lambda^T
    v = v * (0.5 / np.maximum(0.5, np.linalg.norm(v, axis=1)))[:, None]  # |v| <= c/2
    L = _boost_matrix(v)
    F = stacked.field_tensor_from_EB(E, B)
    X = stacked.excitation_from_DH(D, H)
    F_b = stacked.FieldTensor4(M=_congruent(L, F.M))
    # Lambda F Lambda^T holds the fields that _boost gives
    E_b, B_b = _boost(E, B, v)
    tol = 1e-13 * np.max(np.abs(F.M), axis=(1, 2))[:, None]
    assert np.all(np.abs(F_b.E - E_b) <= tol) and np.all(np.abs(F_b.B - B_b) <= tol)

    S = stacked.minkowski_tensor4(F, X).M
    S_b = stacked.minkowski_tensor4(
        F_b, stacked.ExcitationTensor4(M=_congruent(L, X.M))).M
    miss = np.max(np.abs(S_b - L @ S @ np.swapaxes(L, -1, -2)), axis=(1, 2))
    # S sums products of F and H entries, and it can vanish exactly while they
    # do not (E = H = 0 with D parallel to B), so rounding scales with them
    scale = np.max(np.abs(F.M), axis=(1, 2)) * np.max(np.abs(X.M), axis=(1, 2))
    assert np.all(miss <= 1e-13 * scale)
