"""The vectorized ``repr`` and ``%.6e`` kernels against Python's own.

``emission._repr`` writes each finite float64 of an array as the bytes of
``repr(v)`` (the shortest digits that parse back to v, in float.__repr__'s
layout) and ``emission._e6`` as those of ``'%*.6e' % (w, v)`` for a width w
of 12 to 14, each padded with NUL; JSON and table emission render their
large float tables through them, as CSV does through ``emission._e16``
(``tests/test_e16.py``).  Every cell must be byte-identical to Python's own
formatting.  The cells a kernel cannot decide (a tie, a margin too close to
call, a power of two for repr, a subnormal, zero) it hands back to
``repr`` or ``%``: they must be few, and only those.
"""

import math
import struct
from fractions import Fraction
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmink import emission


def _texts(cells: np.ndarray) -> list[str]:
    lines = np.hstack([cells, np.full((len(cells), 1), ord("\n"), np.uint8)])
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _same(x: np.ndarray, got: list[str], expected: list[str]) -> None:
    if got != expected:
        wrong = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
        raise AssertionError(f"{len(wrong)} of {x.size} cells differ, first: {wrong[:5]}")


def assert_renders_as_repr(values) -> None:
    """Each cell of ``_repr(values)``, NUL bytes dropped, is repr(v)."""
    x = np.asarray(values, dtype=np.float64)
    cells = emission._repr(x)
    assert cells.shape == (x.size, 24) and cells.dtype == np.uint8
    _same(x, _texts(cells), [repr(v) for v in x.tolist()])


def assert_renders_as_percent_e6(values, seed: int = 0) -> None:
    """Each cell of ``_e6(values, width)``, NUL bytes dropped, is
    '%*.6e' % (w, v), for w of 14, the cell's own length, and in between."""
    x = np.asarray(values, dtype=np.float64)
    own = np.array([len("%.6e" % v) for v in x.tolist()], np.int64)
    for width in (np.full(x.size, 14), own,
                  np.random.default_rng(seed).integers(own, 15)):
        cells = emission._e6(x, width)
        assert cells.shape == (x.size, 16) and cells.dtype == np.uint8
        _same(x, _texts(cells), ["%*.6e" % (w, v) for w, v in zip(width.tolist(), x.tolist())])


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _neighbours(v: float) -> list[float]:
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def _both_signs(values) -> list[float]:
    return list(values) + [-v for v in values]


@pytest.fixture
def undecided(monkeypatch):
    """The cells each kernel call handed back to repr or %, as a list of
    boolean masks."""
    masks, fall_back = [], emission._fall_back

    def spy(out, cells, text):
        masks.append(np.asarray(cells, bool).copy())
        return fall_back(out, cells, text)

    monkeypatch.setattr(emission, "_fall_back", spy)
    return masks


_finite = st.floats(allow_nan=False, allow_infinity=False)
_bit_patterns = st.integers(-2 ** 63, 2 ** 63 - 1).map(_from_bits).filter(math.isfinite)
_subnormal = st.integers(1, 2 ** 52 - 1).map(_from_bits)


# ---------------------------------------------------------------------------
# repr
# ---------------------------------------------------------------------------

# where the layout changes: the fixed/scientific edges, one digit left, the
# ends of the range, integers above 2**53 and short decimals
REPR_EDGES = (_neighbours(1e16) + [9999999999999998.0] + _neighbours(1e-4)
              + [9.999999999999999e-05, 1e15, 123456789012345.6, 0.001, 0.1, 0.5,
                 1.5, 100.0, 1e22, 1e23, 2.0 ** 53 + 2, 2.0 ** 63, 5e-324,
                 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0])
POWERS_OF_TEN = [v for k in range(-323, 309) for v in _neighbours(float(f"1e{k}"))]
POWERS_OF_TWO = [2.0 ** k for k in range(-1074, 1024)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_finite, _bit_patterns, _subnormal), min_size=1, max_size=64))
def test_any_finite_values_render_as_repr(values):
    assert_renders_as_repr(values)


def test_the_fixed_corpus_renders_as_repr():
    for corpus in (REPR_EDGES, POWERS_OF_TEN, POWERS_OF_TWO):
        assert_renders_as_repr(_both_signs(corpus))
    assert [repr(v) for v in (1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05)] == [
        "1e+16", "9999999999999998.0", "0.0001", "9.999999999999999e-05"]


def test_integers_above_two_to_the_53_render_as_repr():
    rng = np.random.default_rng(53)
    ints = [float(2 ** k + int(j)) for k in range(53, 70) for j in rng.integers(0, 2 ** 40, 200)]
    assert_renders_as_repr(_both_signs(ints))


def test_short_decimals_and_sweeps_render_as_repr():
    rng = np.random.default_rng(3)
    assert_renders_as_repr(np.round(rng.uniform(-100.0, 100.0, 100_000), 3))
    assert_renders_as_repr(np.linspace(1.0, 1.6, 100_000))
    assert_renders_as_repr(np.linspace(2.6e15, 4.0e15, 10_000))


def test_a_million_seeded_bit_patterns_render_as_repr():
    rng = np.random.default_rng(20261020)
    for _ in range(10):  # in blocks, to keep the reference's Python floats few
        values = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64)
        assert_renders_as_repr(values[np.isfinite(values)])


def test_repr_hands_back_only_its_stated_cells(undecided):
    # a power of two (the gap below is half the gap above), zero and the
    # subnormals always
    always = _both_signs([2.0 ** 60, 1.0, 2.0 ** -1022, 0.0, 5e-324,
                          2.2250738585072009e-308])
    emission._repr(np.array(always))
    assert undecided.pop().all()
    ordinary = np.random.default_rng(8).normal(size=100_000) * 10.0 ** np.random.default_rng(
        9).integers(-300, 300, 100_000)
    emission._repr(ordinary)
    assert undecided.pop().mean() < 0.002  # about 0.1 %: the powers of ten scaled


def _on_a_bound(v: float) -> bool:
    """Whether a multiple of 10 or 100 of v's 17-digit N = |v| 10**(16 - q)
    lies exactly half an ulp of v (in N's units) from N, in exact rationals."""
    v = abs(v)
    q = len(str(int(v))) - 1  # v >= 1
    N = Fraction(v) * Fraction(10) ** (16 - q)
    w = Fraction(math.ulp(v)) / 2 * Fraction(10) ** (16 - q)
    return any(abs(N - j) == w for unit in (10, 100)
               for j in (N // unit * unit, N // unit * unit + unit))


def test_repr_decides_a_bound_at_exactly_half_an_ulp(undecided):
    # 2**54 + 4 lies exactly w = 2 from ...990, which rounds to 2**54 + 8
    # (half to even: M = 2**52 + 1 is odd); 2**54 + 8 lies exactly w from the
    # same ...990, which rounds to it (M = 2**52 + 2 is even)
    assert [repr(2.0 ** 54 + 4), repr(2.0 ** 54 + 8)] == [
        "1.8014398509481988e+16", "1.801439850948199e+16"]
    rng = np.random.default_rng(1354)
    draws = 10.0 ** rng.uniform(13.0, 19.0, 40_000)
    bound = [v for v in draws.tolist() if _on_a_bound(v)]
    parity = [int(Fraction(v) / Fraction(math.ulp(v))) % 2 for v in bound]
    assert 100 < parity.count(0) and 100 < parity.count(1)
    cells = _both_signs([2.0 ** 54 + 4, 2.0 ** 54 + 8] + bound)
    assert_renders_as_repr(cells)
    assert not undecided.pop().any()  # the kernel decided every one of them


# ---------------------------------------------------------------------------
# %.6e
# ---------------------------------------------------------------------------

# exact seven-digit ties, 0.5 units of the 7th digit above 10**k, and their
# neighbours; the least values written with a three-digit exponent
E6_TIES = [1234567.5, 12345675.0, 1500000.5, 9999999.5, 99999995.0] + [
    10.0 ** k * 1.0000005 for k in range(6, 23)]
E6_EDGES = (_neighbours(emission._E100) + _neighbours(emission._E99) + [9.9999996e99, 1e100,
            1e-99, 9.9999995e-100, 0.0, -0.0, 5e-324, 1.7976931348623157e308])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_finite, _bit_patterns, _subnormal), min_size=1, max_size=64),
       st.integers(0, 2 ** 32))
def test_any_finite_values_render_as_percent_e6(values, seed):
    assert_renders_as_percent_e6(values, seed)


def test_the_e6_corpus_renders_as_percent():
    ties = [v for t in E6_TIES for v in _neighbours(t)]
    assert_renders_as_percent_e6(_both_signs(ties + E6_EDGES + POWERS_OF_TEN))
    assert "%.6e" % 1234567.5 == "1.234568e+06" and "%.6e" % 12345665.0 == "1.234566e+07"


def test_e6_subnormals_render_as_percent():
    rng = np.random.default_rng(324)
    bits = rng.integers(1, 2 ** 52, 100_000, dtype=np.int64)
    assert_renders_as_percent_e6(_both_signs(bits.view(np.float64).tolist()))


def test_a_million_seeded_bit_patterns_render_as_percent_e6():
    rng = np.random.default_rng(20261021)
    for block in range(10):
        values = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64)
        assert_renders_as_percent_e6(values[np.isfinite(values)], block)


def test_e6_hands_back_only_its_ties(undecided):
    ties = _both_signs([1234567.5, 12345675.0, 1500000.5, 99999995.0, 1e8 + 50.0])
    emission._e6(np.array(ties), np.full(len(ties), 14))
    assert undecided.pop().all()
    ordinary = np.random.default_rng(6).uniform(1.0, 10.0, 100_000)
    emission._e6(ordinary, np.full(ordinary.size, 14))
    assert not undecided.pop().any()


# ---------------------------------------------------------------------------
# the tables
# ---------------------------------------------------------------------------

def test_importing_abmink_builds_no_table():
    # nor the check suite's inputs; emission itself is imported by emit alone
    fresh = subprocess.run(
        [sys.executable, "-c", "import abmink; from abmink import emission; "
         "print(emission._e16_tables.cache_info().currsize, "
         "abmink.runner._check_inputs.cache_info().currsize)"],
        capture_output=True, text=True, check=True)
    assert fresh.stdout == "0 0\n"
