"""Tests for the four-tensor formalism (reduced units, c = 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from abmink import SI, FieldPoint, Medium, MomentumTag, cli, core, covariant
from abmink.core import em_quantities
from abmink.covariant import (
    ETA,
    EMTensor4,
    ExcitationTensor4,
    FieldTensor4,
    FourMomentum,
    FourVelocity,
    classify_four_momentum,
    divergence_residual,
    excitation_from_constitutive,
    excitation_from_DH,
    field_tensor_from_EB,
    minkowski_tensor4,
    _antisym_from_vectors,
    _per_tensor,
    normalized_from_si,
    plane_wave_sampler,
    pulse_four_momentum,
)

_FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
_ANY = st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))


def _vector_stacks(data, entries, count=2):
    """``count`` (..., 3) stacks of one drawn shape: a single vector or a stack."""
    shape = data.draw(st.sampled_from([(), (1,), (4,), (2, 3)])) + (3,)
    return [data.draw(arrays(float, shape, elements=entries)) for _ in range(count)]


# ---------------------------------------------------------------------------
# four-velocity and tensor constructors
# ---------------------------------------------------------------------------

def test_four_velocity_normalization():
    rest = FourVelocity.rest()
    assert rest.V @ ETA @ rest.V == pytest.approx(-1.0, rel=1e-15)
    boosted = FourVelocity.from_three_velocity([0.3, -0.1, 0.2])
    assert boosted.V @ ETA @ boosted.V == pytest.approx(-1.0, rel=1e-12)
    with pytest.raises(ValueError):
        FourVelocity(V=[0.0, 0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        FourVelocity.from_three_velocity([1.5, 0.0, 0.0])


def test_field_tensor_zero_and_roundtrip():
    zero = field_tensor_from_EB(np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(zero.M, np.zeros((4, 4)))

    rng = np.random.default_rng(1)
    E, B = rng.normal(size=3), rng.normal(size=3)
    F = field_tensor_from_EB(E, B)
    np.testing.assert_array_equal(F.E, E)  # bit-exact inverse pair at c = 1
    np.testing.assert_array_equal(F.B, B)


def test_field_tensor_cyclic_rule():
    F = field_tensor_from_EB(np.zeros(3), [0.0, 0.0, 1.0])
    assert F.M[0, 1] == 1.0 and F.M[1, 0] == -1.0
    rest = F.M[:3, :3].copy()
    rest[0, 1] = rest[1, 0] = 0.0
    np.testing.assert_array_equal(rest, np.zeros((3, 3)))


def test_constructors_reject_non_antisymmetric():
    with pytest.raises(ValueError):
        FieldTensor4(M=np.eye(4))
    with pytest.raises(ValueError):
        ExcitationTensor4(M=np.ones((4, 4)))


def test_constructors_copy_a_callers_array():
    m = np.array(_antisym_from_vectors([1.0, -2.0, 0.5], [0.3, 4.0, -1.0]))
    for kind in (FieldTensor4, ExcitationTensor4):
        t = kind(M=m)
        assert not np.shares_memory(t.M, m) and not t.M.flags.writeable
        np.testing.assert_array_equal(t.M, m)
        m[0, 1] += 1.0  # the caller's array stays the caller's to change
        assert t.M[0, 1] != m[0, 1]
        m[0, 1] -= 1.0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_builders_give_the_checked_tensor_read_only(data):
    # the builders skip the constructor's copy and antisymmetry check, which
    # their M passes by construction, non-finite entries included
    a, b = _vector_stacks(data, _ANY)
    for build, kind in ((field_tensor_from_EB, FieldTensor4),
                        (excitation_from_DH, ExcitationTensor4)):
        got, want = build(a, b), kind(M=_antisym_from_vectors(a, b))
        assert type(got) is kind and got.M.shape == want.M.shape
        assert got.M.tobytes() == want.M.tobytes()
        assert not got.M.flags.writeable
        assert not np.shares_memory(got.M, a) and not np.shares_memory(got.M, b)


# ---------------------------------------------------------------------------
# constitutive relation
# ---------------------------------------------------------------------------

def test_constitutive_rest_frame_reduction():
    rng = np.random.default_rng(2)
    rest = FourVelocity.rest()
    for n, mu_r in [(1.5, 1.0), (1.33, 1.0), (2.0, 1.5)]:
        eps_r = n * n / mu_r
        E, B = rng.normal(size=3), rng.normal(size=3)
        F = field_tensor_from_EB(E, B)
        H = excitation_from_constitutive(F, rest, n, mu_r)
        scale = max(np.max(np.abs(E)), np.max(np.abs(B)))
        np.testing.assert_allclose(H.D, eps_r * E, rtol=1e-12,
                                   atol=1e-12 * scale)
        np.testing.assert_allclose(H.H, B / mu_r, rtol=1e-12,
                                   atol=1e-12 * scale)
        np.testing.assert_array_equal(H.M, -H.M.T)


def test_constitutive_vacuum_any_frame():
    rng = np.random.default_rng(4)
    E, B = rng.normal(size=3), rng.normal(size=3)
    F = field_tensor_from_EB(E, B)
    for v in ([0.0, 0.0, 0.0], [0.4, -0.2, 0.1]):
        V = FourVelocity.from_three_velocity(v)
        H = excitation_from_constitutive(F, V, n=1.0, mu_r=2.0)
        np.testing.assert_allclose(H.M, F.M / 2.0, rtol=1e-12)


def test_constitutive_slow_motion_expansion():
    # extracted D approaches eps E + (n^2 - 1) v x H at first order in v:
    # the defect must shrink quadratically when v is halved
    rng = np.random.default_rng(6)
    E, B = rng.normal(size=3), rng.normal(size=3)
    n, mu_r = 1.5, 1.0
    F = field_tensor_from_EB(E, B)

    def defect(speed):
        V = FourVelocity.from_three_velocity([speed, 0.0, 0.0])
        H = excitation_from_constitutive(F, V, n, mu_r)
        predicted = (n * n / mu_r) * E + (n * n - 1.0) * np.cross(
            [speed, 0.0, 0.0], H.H)
        return np.max(np.abs(H.D - predicted))

    d1, d2 = defect(1e-3), defect(5e-4)
    assert d1 / d2 == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# energy-momentum tensor
# ---------------------------------------------------------------------------

def test_minkowski_tensor_zero():
    F = field_tensor_from_EB(np.zeros(3), np.zeros(3))
    H = excitation_from_DH(np.zeros(3), np.zeros(3))
    np.testing.assert_array_equal(minkowski_tensor4(F, H).M, np.zeros((4, 4)))


def _eta_matmul_oracle(F, H):
    """minkowski_tensor4 as written with the eta matmuls, which tests keep as
    the reference for its sign products."""
    contraction = F.M @ ETA @ np.swapaxes(H.M, -1, -2)
    invariant = np.sum(F.M * (ETA @ H.M @ ETA), axis=(-2, -1))
    return contraction - 0.25 * ETA * _per_tensor(invariant)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_minkowski_tensor_matches_the_eta_matmuls_bit_for_bit(data):
    E, B, D, H = _vector_stacks(data, _FINITE, 4)
    with np.errstate(all="ignore"):  # products of 1e3 entries stay finite
        got = minkowski_tensor4(field_tensor_from_EB(E, B), excitation_from_DH(D, H)).M
        want = _eta_matmul_oracle(field_tensor_from_EB(E, B), excitation_from_DH(D, H))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_minkowski_tensor_differs_from_the_eta_matmuls_only_where_they_give_nan(data):
    # the matmuls turn inf * 0 into nan where a sign product keeps inf: the
    # same entries are finite, the finite ones keep their bits, and an entry
    # that differs is nan there and nan or +-inf (the diagonal only) here
    E, B, D, H = _vector_stacks(data, _ANY, 4)
    F, H = field_tensor_from_EB(E, B), excitation_from_DH(D, H)
    with np.errstate(all="ignore"):
        got, want = minkowski_tensor4(F, H).M, _eta_matmul_oracle(F, H)
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    differs = got.view(np.uint64) != want.view(np.uint64)
    assert np.isnan(want[differs]).all()
    diagonal = np.broadcast_to(np.eye(4, dtype=bool), got.shape)
    assert (np.isnan(got[differs]) | (np.isinf(got[differs]) & diagonal[differs])).all()


@pytest.mark.parametrize("key", ["mu_r = 1e-300", "n = 1e200", "grid_step = 1", "n = 1"])
def test_covariant_check_reports_keep_their_bytes_and_errors_under_the_eta_matmuls(
        key, tmp_path, monkeypatch, capsysbinary):
    # the non-finite configs of the CLI tests, a nan convergence ratio, and the vacuum
    path = tmp_path / "covariant.cfg"
    path.write_text(f"scenario = covariant-checks\n{key}\n")

    def reports():
        return [(cli.main(["run", str(path), "--format", fmt]), capsysbinary.readouterr())
                for fmt in ("csv", "json", "table")]

    got = reports()
    with monkeypatch.context() as patch:
        patch.setattr(covariant, "minkowski_tensor4",
                      lambda F, H: EMTensor4(M=_eta_matmul_oracle(F, H)))
        assert reports() == got
    assert {code for code, _ in got} == {0 if key == "n = 1" else 1}


def test_tensor_momentum_column_is_DxB():
    sampler = plane_wave_sampler(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0)
    F, H = sampler(np.array([0.2, 0.0, 0.0]), 0.03)
    S = minkowski_tensor4(F, H)
    np.testing.assert_allclose(S.momentum_density, np.cross(H.D, F.B),
                               rtol=1e-12, atol=1e-15)


def test_tensor_row_column_asymmetry_ratio():
    sampler = plane_wave_sampler(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0)
    F, H = sampler(np.array([0.1, 0.0, 0.0]), 0.0)
    S = minkowski_tensor4(F, H)
    # along propagation (x): momentum column over Poynting row = n^2
    assert S.M[0, 3] / S.M[3, 0] == pytest.approx(1.5**2, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1.0, 3.0), st.floats(1.0, 3.0))
def test_stress_jump_across_an_index_step_is_the_interface_pressure(E_t, n_from, n_to):
    # a tangential E = (0, E_t, 0), continuous across the step, with D = n^2 E
    # (mu_r = 1, B = H = 0) on each side: the jump in S_xx is the pressure
    # that interface reports, here in reduced units (eps0 = 1, so the SI
    # field is E_t / sqrt(eps0))
    E, zero = np.array([0.0, E_t, 0.0]), np.zeros(3)

    def S_xx(n):
        return minkowski_tensor4(field_tensor_from_EB(E, zero),
                                 excitation_from_DH(n * n * E, zero)).stress[0, 0]

    got = -(S_xx(n_to) - S_xx(n_from))
    want = core.interface_pressure(E_t / math.sqrt(SI.eps0), n_from, n_to)
    assert abs(got - want) <= 1e-13 * (E_t**2 / 2) * (n_from**2 + n_to**2)


def test_rest_frame_pipeline_matches_si_quantities():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = rng.uniform(1.0, 1.8)
        medium = Medium.from_index(n)
        fp = FieldPoint.from_EH(medium, rng.normal(size=3) * 40.0,
                                rng.normal(size=3) * 0.2)
        En, Dn, Hn, Bn = normalized_from_si(fp)
        S = minkowski_tensor4(field_tensor_from_EB(En, Bn),
                              excitation_from_DH(Dn, Hn))
        q = em_quantities(fp)
        assert S.energy_density == pytest.approx(q.w, rel=1e-12)
        np.testing.assert_allclose(S.poynting * SI.c, q.S, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(q.S)))
        np.testing.assert_allclose(S.momentum_density / SI.c, q.g_M,
                                   rtol=1e-12, atol=1e-12 * np.max(np.abs(q.g_M)))
        np.testing.assert_allclose(S.stress, q.stress, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(q.stress)))


# ---------------------------------------------------------------------------
# divergence residual
# ---------------------------------------------------------------------------

def test_divergence_second_order_convergence():
    sampler = plane_wave_sampler(n=1.4, mu_r=1.0, omega=2 * math.pi, E0=1.0)
    x, t = np.array([0.31, 0.0, 0.0]), 0.12
    r = [np.linalg.norm(divergence_residual(sampler, x, t, h))
         for h in (1e-3, 5e-4, 2.5e-4)]
    assert r[0] / r[1] == pytest.approx(4.0, rel=0.2)
    assert r[1] / r[2] == pytest.approx(4.0, rel=0.2)


def test_divergence_static_uniform_field():
    E = np.array([2.0, -1.0, 0.5])
    B = np.array([0.3, 0.4, -0.2])

    def sampler(x, t):
        return field_tensor_from_EB(E, B), excitation_from_DH(2.25 * E, B)

    res = divergence_residual(sampler, np.zeros(3), 0.0, 1e-3)
    scale = float(E @ E + B @ B)
    assert np.linalg.norm(res) <= 1e-9 * scale


def test_divergence_detects_wrong_dispersion():
    # negative control: a wave with a broken dispersion relation leaves a
    # finite divergence that refinement does not remove
    good = plane_wave_sampler(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0)
    bad = plane_wave_sampler(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0,
                             wavenumber=1.3 * 1.5 * 2 * math.pi)
    x, t = np.array([0.123, 0.0, 0.0]), 0.077
    g = [np.linalg.norm(divergence_residual(good, x, t, h))
         for h in (1e-3, 5e-4)]
    b = [np.linalg.norm(divergence_residual(bad, x, t, h))
         for h in (1e-3, 5e-4)]
    assert b[0] / b[1] < 2.0          # not converging to zero
    assert b[1] > 1e3 * g[1]          # and far above the valid residual


def test_divergence_rejects_bad_step():
    sampler = plane_wave_sampler(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0)
    with pytest.raises(ValueError):
        divergence_residual(sampler, np.zeros(3), 0.0, 0.0)


# ---------------------------------------------------------------------------
# four-momentum classification
# ---------------------------------------------------------------------------

def test_classification_of_plane_wave_pulse():
    x = np.array([0.05, 0.0, 0.0])
    S_med = minkowski_tensor4(
        *plane_wave_sampler(n=1.5, mu_r=1.0, omega=2 * math.pi, E0=1.0)(x, 0.0))
    S_vac = minkowski_tensor4(
        *plane_wave_sampler(n=1.0, mu_r=1.0, omega=2 * math.pi, E0=1.0)(x, 0.0))

    assert classify_four_momentum(
        pulse_four_momentum(S_med, 2.0, MomentumTag.MINKOWSKI)) == "spacelike"
    assert classify_four_momentum(
        pulse_four_momentum(S_med, 2.0, MomentumTag.ABRAHAM)) == "timelike"
    assert classify_four_momentum(
        pulse_four_momentum(S_vac, 2.0, MomentumTag.MINKOWSKI)) == "null"


def test_classification_rest_energy():
    assert classify_four_momentum(FourMomentum(G=np.zeros(3), W=1.0)) == "timelike"
