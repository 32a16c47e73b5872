"""The cross-product kernel against np.cross, bit for bit.

``core.cross`` forms the same products and differences as np.cross, so the
two must agree in every bit, signed zeros and NaN payloads included.  The
comparison is on int64 views, where -0.0 differs from 0.0 and one NaN from
another.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from abmink.core import cross


def _bits(x):
    return int(np.float64(x).view(np.uint64))


# NaNs of both signs, quiet and signalling, with payloads: the one a product
# of two NaNs keeps depends on the loop it runs in
_NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
             0xFFF8000000000123, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF]
_SPECIAL_BITS = [_bits(v) for v in (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                                    -1e-310, 1e308, -1e308, math.inf, -math.inf,
                                    1.0, -1.0)] + _NAN_BITS
_ELEMENTS = st.one_of(st.sampled_from(_SPECIAL_BITS),
                      st.floats(allow_nan=False).map(_bits),
                      st.integers(0, 2**64 - 1))


def _stack(shape):
    """float64 stacks drawn as bit patterns, so that NaN payloads survive."""
    return arrays(np.uint64, shape, elements=_ELEMENTS).map(lambda u: u.view(np.float64))


def assert_bits_equal(a, b):
    with np.errstate(all="ignore"):  # inf and nan inputs make invalid products
        got, want = cross(a, b), np.cross(a, b)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(_stack(3), _stack(3))
def test_single_vectors(a, b):
    assert_bits_equal(a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(_stack((m, 3)), _stack((m, 3)))))
def test_stacks_of_vectors(ab):
    assert_bits_equal(*ab)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(_stack(s + (3,)), _stack(s + (3,)))))
def test_two_axis_stacks(ab):
    assert_bits_equal(*ab)


@settings(max_examples=200, deadline=None)
@given(_stack(3), st.integers(1, 6).flatmap(lambda m: _stack((m, 3))))
def test_a_vector_broadcast_against_a_stack(v, stack):
    assert_bits_equal(v, stack)
    assert_bits_equal(stack, v)
