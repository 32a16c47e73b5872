"""Stacked core kernels against their scalar calls, and the batched ledger.

The per-point momentum ledger below is the loop ``check_suite`` ran before
it evaluated the 1000 points as one stack; it is kept as the oracle of the
stacked kernels over that loop's interleaved seed-7 stream.  ``check_suite``
now takes its sample from Weyl sequences, with no random generator; a
second oracle runs the scalar kernels point by point over that sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from abmink import (
    SI,
    FieldPoint,
    Medium,
    MomentumTag,
    mechanical_momentum_density,
    momentum_density,
)
from abmink.runner import _ledger_residual, check_suite


def ledger_residual_point_by_point():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = rng.uniform(1.0, 2.0)
        medium = Medium.from_index(n)
        fp = FieldPoint.from_EH(medium, rng.normal(size=3),
                                rng.normal(size=3) / SI.mu0 / SI.c)
        g_a = momentum_density(fp, MomentumTag.ABRAHAM)
        g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
        g_mech = mechanical_momentum_density(medium, fp)
        scale = float(np.max(np.abs(g_m)))
        if scale == 0.0:
            continue
        worst = max(worst,
                    float(np.max(np.abs(g_a + g_mech - g_m))) / scale,
                    float(np.max(np.abs(n * n * g_a - g_m))) / scale)
    return worst


def ledger_residual_scalar(n, E, H):
    """The scalar kernels, one point at a time, over given arrays."""
    worst = 0.0
    for n_i, E_i, H_i in zip(n.tolist(), E, H):
        medium = Medium.from_index(n_i)
        fp = FieldPoint.from_EH(medium, E_i, H_i / SI.mu0 / SI.c)
        g_a = momentum_density(fp, MomentumTag.ABRAHAM)
        g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
        g_mech = mechanical_momentum_density(medium, fp)
        scale = float(np.max(np.abs(g_m)))
        if scale == 0.0:
            continue
        worst = max(worst,
                    float(np.max(np.abs(g_a + g_mech - g_m))) / scale,
                    float(np.max(np.abs(n_i * n_i * g_a - g_m))) / scale)
    return worst


def test_stacked_ledger_over_the_interleaved_stream_keeps_its_residual():
    rng = np.random.default_rng(7)
    n, E, H = np.empty(1000), np.empty((1000, 3)), np.empty((1000, 3))
    for i in range(1000):
        n[i] = rng.uniform(1.0, 2.0)
        E[i] = rng.normal(size=3)
        H[i] = rng.normal(size=3)
    got = _ledger_residual(Medium.from_index(n), E, H / SI.mu0 / SI.c)
    assert got == 1.1269238985414805e-15
    assert ledger_residual_point_by_point() == 1.1269238985414805e-15


def test_check_suite_ledger_equals_the_point_by_point_loop():
    # check_suite's sample: u = k sqrt(p) mod 1, k = 1..1000, p = 2, ..., 17
    u = np.arange(1.0, 1001.0)[:, None] * np.sqrt([2.0, 3, 5, 7, 11, 13, 17]) % 1.0
    n, E, H = 1.0 + u[:, 0], 2.0 * u[:, 1:4] - 1.0, 2.0 * u[:, 4:] - 1.0
    ledger = {r.name: r.residual for r in check_suite()}["momentum-ledger"]
    assert ledger == ledger_residual_scalar(n, E, H)
    assert ledger == 1.2766696805613674e-15


def test_medium_stack_rejects_a_row_with_the_scalar_message():
    with pytest.raises(ValueError, match=r"eps_r must be >= 1, got 0\.25"):
        Medium.from_index(np.array([1.2, 0.5]))
    with pytest.raises(ValueError, match=r"n=2\.1 inconsistent"):
        Medium(eps_r=np.array([2.25, 4.0]), n=np.array([1.5, 2.1]))


def test_medium_stack_fills_and_freezes_its_index():
    eps_r = np.array([1.44, 2.25])
    medium = Medium(eps_r=eps_r)
    np.testing.assert_array_equal(medium.n, np.sqrt(eps_r))
    assert not medium.eps_r.flags.writeable and not medium.n.flags.writeable
    eps_r[0] = 0.0  # the medium holds its own copy
    assert medium.eps_r[0] == 1.44


# field components of either sign over nine decades, or exactly zero
_component = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
_stacks = st.integers(1, 12).flatmap(lambda m: st.tuples(
    arrays(float, m, elements=st.floats(1.0, 3.0)),
    arrays(float, (m, 3), elements=_component),
    arrays(float, (m, 3), elements=_component)))


@settings(max_examples=200, deadline=None)
@given(_stacks)
def test_stacked_kernels_match_the_scalar_calls_row_by_row(stack):
    n, E, H = stack
    medium = Medium.from_index(n)
    fp = FieldPoint.from_EH(medium, E, H / SI.mu0 / SI.c)
    g_a = momentum_density(fp, MomentumTag.ABRAHAM)
    g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
    g_mech = mechanical_momentum_density(medium, fp)
    for i in range(n.size):
        medium_i = Medium.from_index(float(n[i]))
        fp_i = FieldPoint.from_EH(medium_i, E[i], H[i] / SI.mu0 / SI.c)
        for name in ("E", "D", "H", "B"):
            assert np.array_equal(getattr(fp, name)[i], getattr(fp_i, name))
        assert np.array_equal(g_a[i], momentum_density(fp_i, MomentumTag.ABRAHAM))
        assert np.array_equal(g_m[i], momentum_density(fp_i, MomentumTag.MINKOWSKI))
        assert np.array_equal(g_mech[i], mechanical_momentum_density(medium_i, fp_i))
    # rounding in D x B scales with |D| |B|, not with the result: near
    # parallel E and H cancel the cross product far below its operands
    scale = (np.abs(fp.D).max(axis=1) * np.abs(fp.B).max(axis=1))[:, None]
    for residual in (g_a + g_mech - g_m, (n * n)[:, None] * g_a - g_m):
        assert np.all(np.abs(residual) <= 1e-12 * scale)


def test_stacked_rows_match_where_pow_and_multiply_round_apart():
    # Python's float ** 2 is C pow, which now and then rounds n^2 to the
    # other neighbour of n * n; a stacked row must still equal the scalar call
    n = np.random.default_rng(3).uniform(1.0, 3.0, 20000)
    n = n[[float(x) ** 2 != float(x) * float(x) for x in n]]
    assert n.size > 0
    E = np.tile([1.0, 2.0, 0.5], (n.size, 1))
    H = np.tile([0.3, -1.0, 2.0], (n.size, 1))
    medium = Medium.from_index(n)
    g = mechanical_momentum_density(medium, FieldPoint.from_EH(medium, E, H))
    for i, x in enumerate(n):
        medium_i = Medium.from_index(float(x))
        fp_i = FieldPoint.from_EH(medium_i, E[i], H[i])
        assert np.array_equal(g[i], mechanical_momentum_density(medium_i, fp_i))
