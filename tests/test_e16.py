"""The vectorized ``%.16e`` kernel against ``'%.16e' % v`` itself.

``runner._e16`` writes each finite float64 of an array as the bytes of
``'%.16e' % v``, padded with NUL to 24 bytes; CSV emission renders its
large float tables through it.  Every cell must be byte-identical to
Python's own formatting: random bit patterns, every power of ten and its
neighbours, subnormals, signed zeros and the exact decimal ties, which the
kernel hands back to ``%`` rather than decide itself.
"""

import math
import struct
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abmink import runner


def assert_renders_as_percent(values):
    """Each cell of ``_e16(values)``, NUL bytes dropped, is '%.16e' % v."""
    x = np.asarray(values, dtype=np.float64)
    cells = runner._e16(x)
    assert cells.shape == (x.size, 24) and cells.dtype == np.uint8
    lines = np.hstack([cells, np.full((x.size, 1), ord("\n"), np.uint8)])
    got = lines.tobytes().translate(None, b"\0").decode().splitlines()
    expected = (("%.16e\n" * x.size) % tuple(x.tolist())).splitlines()
    if got != expected:
        wrong = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
        raise AssertionError(f"{len(wrong)} of {x.size} cells differ, first: {wrong[:5]}")


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


_finite = st.floats(allow_nan=False, allow_infinity=False)
_bit_patterns = st.integers(-2 ** 63, 2 ** 63 - 1).map(_from_bits).filter(math.isfinite)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_finite, _bit_patterns), min_size=1, max_size=64))
def test_any_finite_values_render_as_percent(values):
    assert_renders_as_percent(values)


def _neighbours(v: float) -> list[float]:
    return [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]


# 1e15 + 0.25 is 10000000000000002.5 units of the 17th digit: an exact tie
TIES = [1e15 + 0.25, 1e15 + 0.75, 3e14 + 0.375, 1e14 + 0.125, 1e13 + 0.0625,
        1e13 + 0.1875]
CORPUS = ([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.nextafter(1e23, 0.0)]
          + _neighbours(2.2250738585072014e-308) + TIES
          + [v for k in range(-323, 309) for v in _neighbours(float(f"1e{k}"))])


def test_the_fixed_corpus_renders_as_percent():
    assert_renders_as_percent(CORPUS)
    assert_renders_as_percent([-v for v in CORPUS])
    assert "%.16e" % TIES[0] == "1.0000000000000002e+15"


def _distance_from_an_integer(values) -> np.ndarray:
    """|N - round(N)| for each value's 17-digit N as the kernel computes it."""
    x = np.abs(np.asarray(values, dtype=np.float64))
    m, e = np.frexp(x)
    q = np.floor(np.log10(x)).astype(np.int64)
    a, c = runner._scaled(m * 2.0 ** 53, e, q)
    assert ((a >= 1e16) & (a < 1e17)).all()  # q is the decimal exponent here
    return np.abs(c - np.rint(c))


def test_exact_ties_take_the_percent_fallback():
    # within 2**-30 of a half: _e16 writes these cells with %.16e itself
    assert (_distance_from_an_integer(TIES) > 0.5 - 2.0 ** -30).all()
    assert (_distance_from_an_integer(TIES) == 0.5).all()
    assert_renders_as_percent(TIES)
    assert_renders_as_percent([-v for v in TIES])
    # ordinary values stay well clear of the band
    ordinary = np.random.default_rng(19).uniform(1.0, 10.0, 1000)
    assert (_distance_from_an_integer(ordinary) < 0.5 - 2.0 ** -30).all()


def test_a_million_seeded_bit_patterns_render_as_percent():
    rng = np.random.default_rng(20261019)
    for _ in range(10):  # in blocks, to keep the reference's Python floats few
        values = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64)
        assert_renders_as_percent(values[np.isfinite(values)])


def test_the_tables_are_built_on_first_use():
    fresh = subprocess.run(
        [sys.executable, "-c", "import abmink.runner as r; "
         "print(r._e16_tables.cache_info().currsize)"],
        capture_output=True, text=True, check=True)
    assert fresh.stdout == "0\n"  # importing does not build them
    pow10 = runner._e16_tables()[0]
    h, hh, hl, lo, _ = pow10
    assert ((h >= 2.0 ** 52) & (h < 2.0 ** 53)).all() and (hh + hl == h).all()
    assert (np.abs(lo) < 1.0).all()
