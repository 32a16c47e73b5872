"""The vectorized ``%.16e`` kernel against ``'%.16e' % v`` itself.

``emission._e16`` writes each finite float64 of an array as the bytes of
``'%.16e' % v``, padded with NUL to 24 bytes; CSV emission renders its
large float tables through it.  Every cell must be byte-identical to
Python's own formatting: random bit patterns, every power of ten and its
neighbours, subnormals, signed zeros and the exact decimal ties.  The kernel
decides a tie whose decimal exponent lies in [-6, 16] itself, half to even
as ``%`` does, and hands one elsewhere back to ``%``.
"""

import math
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmink import emission


def assert_renders_as_percent(values):
    """Each cell of ``_e16(values)``, NUL bytes dropped, is '%.16e' % v."""
    x = np.asarray(values, dtype=np.float64)
    cells = emission._e16(x)
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
    a, c = emission._scaled(m * 2.0 ** 53, e, q)
    assert ((a >= 1e16) & (a < 1e17)).all()  # q is the decimal exponent here
    return np.abs(c - np.rint(c))


@pytest.fixture
def handed_back(monkeypatch):
    """The number of cells each _fall_back call hands back to %."""
    counts, fall_back = [], emission._fall_back

    def spy(out, unsure, text):
        counts.append(int(unsure.sum()))
        return fall_back(out, unsure, text)

    monkeypatch.setattr(emission, "_fall_back", spy)
    return counts


def test_exact_ties_are_decided_by_the_kernel(handed_back):
    # exactly a half: with q in [-6, 16], rint rounds it half to even, as %
    assert (_distance_from_an_integer(TIES) == 0.5).all()
    assert_renders_as_percent(TIES)
    assert_renders_as_percent([-v for v in TIES])
    assert handed_back == [0, 0]
    # ordinary values stay well clear of the 2**-30 band
    ordinary = np.random.default_rng(19).uniform(1.0, 10.0, 1000)
    assert (_distance_from_an_integer(ordinary) < 0.5 - 2.0 ** -30).all()


def _exact_ties(rng, per_k: int) -> np.ndarray:
    """Exact 17-digit ties of either sign: J / 2**(k + 1) for odd J < 2**53
    with J 5**k / 2 in [1e16, 1e17), whose q is 16 - k, for k in [1, 22]."""
    ties = []
    for k in range(1, 23):
        lo, hi = -(-2 * 10 ** 16 // 5 ** k), min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
        J = 2 * rng.integers(lo // 2, hi // 2, per_k) + 1
        ties.append(rng.choice([-1.0, 1.0], per_k) * J * 2.0 ** -(k + 1))
    return np.concatenate(ties)


def test_a_tie_heavy_corpus_renders_as_percent(handed_back):
    rng = np.random.default_rng(20261020)
    ties = _exact_ties(rng, 2000)
    assert (_distance_from_an_integer(ties) == 0.5).all()
    assert_renders_as_percent(ties)
    assert handed_back == [0]
    # small-integer mantissas over q in [-10, 19], where ties cluster, and
    # uniform draws over the same decades
    small = np.ldexp.outer(np.arange(1.0, 512.0), np.arange(-40, 70)).ravel()
    small = small[(small >= 1e-10) & (small < 1e20)]
    assert_renders_as_percent(np.concatenate([small, -small]))
    uniform = rng.uniform(1.0, 10.0, (30, 1000)) * 10.0 ** np.arange(-10, 20)[:, None]
    assert_renders_as_percent(uniform.ravel() * rng.choice([-1.0, 1.0], uniform.size))


def test_a_million_seeded_bit_patterns_render_as_percent():
    rng = np.random.default_rng(20261019)
    for _ in range(10):  # in blocks, to keep the reference's Python floats few
        values = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64)
        assert_renders_as_percent(values[np.isfinite(values)])


def test_the_tables_are_built_on_first_use():
    fresh = subprocess.run(
        [sys.executable, "-c", "import abmink.emission as e; "
         "print(e._e16_tables.cache_info().currsize)"],
        capture_output=True, text=True, check=True)
    assert fresh.stdout == "0\n"  # importing does not build them
    pow10 = emission._e16_tables()[0]
    h, hh, hl, lo, _ = pow10
    assert ((h >= 2.0 ** 52) & (h < 2.0 ** 53)).all() and (hh + hl == h).all()
    assert (np.abs(lo) < 1.0).all()
    # 10**k for k in [0, 22] is exact, which lets _e16 decide ties there
    assert (lo[-emission._K0:-emission._K0 + 23] == 0.0).all()
