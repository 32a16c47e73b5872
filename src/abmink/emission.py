"""Report emission, imported by ``runner.emit`` on its first call: importing
abmink, ``abmink list`` and ``abmink check`` never compile or load it."""

import functools
import io
import json
import math
from typing import Callable

import numpy as np

from .runner import _FIELDS, ScenarioReport

# Rows per block when a float table is rendered: it bounds the %-call's tuple
# of Python floats and the kernels' arrays, whatever the sweep size.
_BLOCK_ROWS = 1024
# A block of fewer varying cells goes through %, cheaper there than the kernel
_KERNEL_CELLS = {"csv": 120, "json": 350, "table": 360}
_K0 = -302  # the least k of the 10**k in the kernels' table; 350 the most


@functools.cache
def _e16_tables():
    """The kernels' tables, built on first use (a few ms): the rows h, h's
    Dekker halves, lo and b + 970 of 10**k = (h + lo) 2**b, h an integer in
    [2**52, 2**53), for k in [-302, 350]; as unsigned integers, the NUL-padded
    texts of sign, leading digit and point, 0000..9999, e+000..e+308 then
    e-324..e-001 (q indexes them) in the top 5 of 8 bytes, 00..99 and 0..2
    spaces; repr's layouts."""
    rows = []
    for k in range(_K0, 351):
        s = 52 - math.floor(k * math.log2(10))  # h = floor(10**k 2**s)
        num, den = 10 ** max(k, 0) << max(s, 0), 10 ** max(-k, 0) << max(-s, 0)
        rows.append((num // den, num % den / den, 970 - s))
    h, lo, bias = np.array(rows, np.float64).T
    hh = 134217729.0 * h  # 2**27 + 1
    hh -= hh - h
    text = lambda cells: np.frombuffer("".join(cells).encode(), f"u{len(cells[0])}")
    digits = np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij")
    # repr's layouts, for n digits with the point after digit p (fixed
    # notation; p in -3..16) or scientific: each byte is a digit as it lies
    # (a), a digit shifted (b), or itself
    plans = [("\0b" + "."[:n > 1] + "a" * (n - 1)).ljust(19, "\0") + "a" * 5 if p is None
             else "\0" + "b" * p + "." + "a" * (max(n, p + 1) - p) if p > 0
             else "\0" + "0." + "0" * -p + "b" * n
             for p in [*range(-3, 17), None] for n in range(1, 18)]
    plan = np.frombuffer("".join(t.ljust(24, "\0") for t in plans).encode(), np.uint8)
    layouts = np.stack([(plan == 97) * 255, (plan == 98) * 255, plan * (plan < 97)])
    layouts = layouts.astype(np.uint8).view(np.uint64).reshape(3, -1, 3)
    return (np.array([h, hh, h - hh, lo, bias]),
            text([f"{sign}{d}.\0" for sign in "\0-" for d in range(10)]),
            np.stack(digits, axis=-1).reshape(-1, 4).view(np.uint32)[:, 0],  # 0000..9999
            text([f"\0\0\0e{'-' if q < 0 else '+'}{abs(q) // 100 or chr(0)}{abs(q) % 100:02d}"
                  for q in [*range(309), *range(-324, 0)]]),
            text([f"{i:02d}" for i in range(100)]), text(["\0\0", " \0", "  "]),
            layouts.transpose(0, 2, 1).copy())


def _scaled(M, e, q, shift: int = 0):
    """M 2**(e - 53) 10**(16 - shift - q), M < 2**53 an integer, as a + c
    with |c| <= ulp(a) / 2: Dekker's exact product of M and h, plus M lo."""
    h, hh, hl, lo, bias = np.take(_e16_tables()[0], (16 - shift - _K0) - q, axis=1)
    scale = ((e + bias.astype(np.int64)) << 52).view(np.float64)  # 2**(e - 53 + b)
    p = M * h
    mh = 134217729.0 * M
    mh -= mh - M
    ml = M - mh
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl  # p + err = M h
    a, c = p * scale, (err + M * lo) * scale
    s = a + c
    return s, c - (s - a)


def _decimal(x: np.ndarray, shift: int = 0):
    """M of each |v| = M 2**(e - 53) of x, its decimal exponent q, |v|
    10**(16 - shift - q) as a + c in [10**(16 - shift), 10**(17 - shift)), good
    to about 2**-47 of its last unit, and the indices of x's zeros (taken as
    1.0).  Only cells where log10's q can be one off are checked exactly."""
    mag, zero = np.abs(x), (x == 0.0).nonzero()[0]
    mag[zero] = 1.0
    m, e = np.frexp(mag)
    M, q = m * 2.0 ** 53, np.floor(np.log10(mag)).astype(np.int64)  # q one off at most
    a, c = _scaled(M, e, q, shift)
    low = 10.0 ** (16 - shift)
    if (fix := (((a - low) + c < 0) | (a >= 10 * low)).nonzero()[0]).size:
        q[fix] += ((a[fix] - 10 * low) + c[fix] >= 0).astype(np.int64) - (
            (a[fix] - low) + c[fix] < 0)
        a[fix], c[fix] = _scaled(M[fix], e[fix], q[fix], shift)
    return M, q, a, c, zero


def _rounded(x: np.ndarray, shift: int):
    """|v| 10**(16 - shift - q) of _decimal rounded to the nearest integer N
    (0 for a zero), q the exponent it is written with, and whether N lay
    within 2**-30 of a tie, which the kernels hand back to %; at shift 0 not
    for q in [-6, 16], where 10**(16 - q) is exact (lo is 0) and so is a + c:
    a >= 1e16 is even, so rint rounds a tie half to even, as % does."""
    _, q, a, c, zero = _decimal(x, shift)
    whole = np.floor(a) if shift else a  # a >= 1e16 > 2**53 is whole already
    r = np.rint(frac := (a - whole) + c if shift else c)
    tie = (np.abs(frac - r) > 0.5 - 2.0 ** -30) & ((q < -6) | (q > 16) | (shift > 0))
    N = whole.astype(np.int64) + r.astype(np.int64)
    if (carry := (N == 10 ** (17 - shift)).nonzero()[0]).size:
        N[carry], q[carry] = 10 ** (16 - shift), q[carry] + 1
    N[zero] = 0
    return N, q, tie


def _digits(N: np.ndarray):
    """The leading digit of each N in [0, 10**17) and the (len(N), 16) uint8
    text of the 16 digits after it, four 4-digit groups split off by scalars."""
    groups = np.empty((len(N), 4), np.int64)
    high, low = np.divmod(N, 10 ** 8)
    np.divmod(low, 10 ** 4, out=(groups[:, 2], groups[:, 3]))
    np.divmod(high, 10 ** 4, out=(high, groups[:, 1]))
    np.divmod(high, 10 ** 4, out=(high, groups[:, 0]))
    return high, _e16_tables()[2][groups].view(np.uint8)


def _fall_back(out: np.ndarray, unsure: np.ndarray, text) -> np.ndarray:
    """out with row i, for each cell i a kernel is unsure of, the NUL-padded
    text(i) that % or repr gives."""
    for i in unsure.nonzero()[0].tolist():
        out[i] = np.frombuffer(text(i).encode().ljust(out.shape[1], b"\0"), np.uint8)
    return out


def _e16(x: np.ndarray) -> np.ndarray:
    """'%.16e' % v for each finite v of x, as (len(x), 24) uint8 text padded
    with NUL: |v| 10**(16 - q), q its decimal exponent, rounded to the nearest
    N in [1e16, 1e17); a tie outside q in [-6, 16] goes through %.16e itself.
    Each piece is one typed lookup, written as 8, 4 or 16 bytes, the later
    over the earlier."""
    N, q, tie = _rounded(x, 0)
    _, heads, _, exps, *_ = _e16_tables()
    lead, digits = _digits(N)
    out = np.empty((len(x), 24), np.uint8)
    out[:, 16:].view(np.uint64)[:, 0] = exps[q]
    out[:, :4].view(np.uint32)[:, 0] = heads[np.signbit(x) * 10 + lead]
    out[:, 3:19] = digits
    return _fall_back(out, tie, lambda i: "%.16e" % x[i])


def _e6(x: np.ndarray, width: np.ndarray) -> np.ndarray:
    """'%*.6e' % (w, v) for each finite v of x and w of width (12 to 14), as
    (len(x), 16) uint8 text padded with NUL: _e16 at seven digits, N in
    [1e6, 1e7), and NUL in place of each of the 14 - w pad bytes."""
    N, q, tie = _rounded(x, 10)
    sign = np.signbit(x)
    _, heads, digits, exps, pairs, pads, _ = _e16_tables()
    high, last = np.divmod(N, 100)
    lead, middle = np.divmod(high, 10 ** 4)
    out = np.empty((len(x), 16), np.uint8)  # '  -d.dddddde+ddd', written as _e16's
    out[:, 8:].view(np.uint64)[:, 0] = exps[q]
    out[:, :2].view(np.uint16)[:, 0] = pads[width - 12 - sign - (np.abs(q) >= 100)]
    out[:, 2:6].view(np.uint32)[:, 0] = heads[sign * 10 + lead]
    out[:, 5:9].view(np.uint32)[:, 0] = digits[middle]
    out[:, 9:11].view(np.uint16)[:, 0] = pairs[last]
    return _fall_back(out, tie, lambda i: "%*.6e" % (int(width[i]), x[i]))


def _repr(x: np.ndarray) -> np.ndarray:
    """repr(v) for each finite v of x, as (len(x), 24) uint8 text padded
    with NUL.  Of the integers within half an ulp w of N = a + c (_decimal),
    the nearest multiple of 100 (unique, as w < 11.2), else of 10, else the
    nearest one is written without its trailing zeros: in fixed notation for
    q in [-4, 15], else scientific.  A margin or a tie within 2**-20 (2**-30
    for a 17-digit tie), a power of two (its gap below is half the gap
    above), a subnormal and zero go through repr itself.  For 1e13 <= |v|
    < 1e19, N and w are exact to far better than 2**-20 and a nonzero margin
    is at least 2**-10: a multiple exactly w away rounds to v iff M is even
    (half to even), so w moves 2**-19 up or down and the kernel decides."""
    M, q, a, c, _ = _decimal(x)
    w = a / (2.0 * M)  # N / 2M, half an ulp of |v| in N's units, good to 2**-48
    if (exact := ((q >= 13) & (q <= 18)).nonzero()[0]).size:
        w[exact] += np.where(M[exact] % 2.0 == 0.0, 2.0 ** -19, -(2.0 ** -19))
    floor = np.floor(c)
    B, f = a.astype(np.int64) + floor.astype(np.int64), c - floor  # N = B + f
    D, unsure, eps = B + (f > 0.5), np.abs(f - 0.5) < 2.0 ** -30, 2.0 ** -20
    for unit in (10, 100):
        rem = B % unit
        mid = np.abs(rem + f - unit / 2)  # N from halfway between two multiples
        margin = w - unit / 2 + mid  # w less N's distance to the nearest multiple
        ok = margin > eps
        D = np.where(ok, B - rem + unit * (rem + f > unit / 2), D)
        unsure = np.where(ok, mid <= eps, unsure) | (np.abs(margin) <= eps)
    unsure |= (M == 2.0 ** 52) | ~(np.abs(x) >= 2.2250738585072014e-308)
    if (carry := (D == 10 ** 17).nonzero()[0]).size:
        D[carry], q[carry] = 10 ** 16, q[carry] + 1
    lead, digits = _digits(D)
    out = np.zeros((len(x), 24), np.uint8)  # the digits at bytes 2 to 18
    out[:, 16:].view(np.uint64)[:, 0] = _e16_tables()[3][q]
    out[:, 2], out[:, 3:19] = 48 + lead, digits
    n = 17 - (D % 10 == 0)  # the digits but trailing zeros, and the layout
    if (short := (D % 100 == 0).nonzero()[0]).size:
        n[short] = 17 - np.argmax(out[short, 18:1:-1] != 48, axis=1)
    layout = np.where((q > -5) & (q < 16), (q + 4) * 17, 340) + n - 1
    keep_a, keep_b, fixed = np.take(_e16_tables()[6], layout, axis=2)
    s = np.where(layout < 68, 8 * (5 - layout // 17), 0).astype(np.uint64)  # 8 (2 - p)
    a = out.view(np.uint64).T.copy()
    b = a << s  # the 192 bits, then 8 bits down: digit 1 at byte 1, or 3 - p if p <= 0
    b[1:] |= a[:-1] >> (64 - s)
    b[:-1] = (b[:-1] >> 8) | (b[1:] << 56)
    b[-1] >>= 8
    out = (a & keep_a) | (b & keep_b) | fixed
    out[0] |= np.signbit(x) * np.uint64(45)  # -
    return _fall_back(out.T.copy().view(np.uint8), unsure, lambda i: repr(float(x[i])))


def _least_written_as(power: str) -> float:
    """The least double that %.6e writes as 1.000000e<power>."""
    x = float(f"9.9999995e{int(power) - 1}")  # the rounding tie's nearest double
    return x if "%.6e" % x == f"1.000000e{power}" else math.nextafter(x, math.inf)


# %.6e writes a finite v with a three-digit exponent when |v| >= _E100 or
# 0 < |v| < _E99, with a minus sign when its sign bit is set.
_E100, _E99 = _least_written_as("+100"), _least_written_as("-99")


def _write_rows(out: io.BytesIO, table: np.ndarray, varying: list[int], texts: list[str],
                form: tuple, sep: str, kernel: Callable, cut_off: int) -> None:
    """Write the rows of ``table``, ``sep`` between them, each head +
    glue.join(texts) + tail of ``form``: ``texts`` holds a %-spec for each of
    the ``varying`` columns, the text of each constant one.  A block of
    _BLOCK_ROWS rows goes through one %-call or, with ``cut_off`` varying
    cells or more, through ``kernel``, whose NUL-padded cells take the specs'
    places (their leading spaces kept) in equal slots; every NUL is dropped."""
    head, glue, tail = form
    row, line = head + glue.join(texts) + tail, None
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        rows = len(block)
        if start:
            out.write(sep.encode())
        if rows * len(varying) < cut_off:  # one such block at most, the last
            cells = block[:, varying].ravel().tolist() if varying else ()
            out.write((sep.join([row] * rows) % tuple(cells)).encode())
            continue
        cells = kernel(block[:, varying].ravel())
        if line is None:  # each cell right-aligned in a slot of NUL, a cell's bytes last
            width = cells.shape[1]
            slots = [t.split("%")[0] + "\0" * width if "%" in t else t for t in texts]
            size = max(map(len, slots))
            line = (head + glue.join(t.rjust(size, "\0") for t in slots) + tail + sep
                    + "\0" * len(glue)).encode()  # room for the last slot's glue
        text = bytearray(line * rows)  # as (rows, columns, slot and glue) bytes:
        grid = np.ndarray((rows, len(texts), size + len(glue)), np.uint8,
                          text, len(head), (len(line), size + len(glue), 1))
        grid[:, varying, size - width:size] = cells.reshape(rows, -1, width)
        text = text.translate(None, b"\0")
        out.write(memoryview(text)[:len(text) - len(sep)])


def _widest(table: np.ndarray) -> list[int]:
    """Each column's widest %.6e cell: a finite value takes 12 characters,
    one more for a minus sign and one more for a three-digit exponent."""
    magnitude = np.abs(table)
    wide = (magnitude >= _E100) | ((magnitude < _E99) & (magnitude > 0.0))
    return (12 + np.signbit(table) + wide).max(axis=0).tolist()


def _emit_table(report: ScenarioReport, table: np.ndarray, fmt: str) -> bytes:
    """Render a float table block by block, through a %-template or the
    format's kernel (_e16, _repr or _e6).  A column whose cells share one bit
    pattern (so 0.0 and -0.0 differ) is formatted once and spliced into each
    row as text; the varying columns go through % or the kernel."""
    bits = table.view(np.int64)
    vary = (bits[1:] != bits[0]).any(axis=0).tolist()
    varying = [j for j, v in enumerate(vary) if v]

    def cells(spec):
        """The row template's cells: ``spec`` for a varying column, the
        text ``spec`` gives a constant one."""
        return [spec if v else spec % x for v, x in zip(vary, table[0].tolist())]

    out, end = io.BytesIO(), ""
    if fmt == "csv":
        # 17 significant digits: parses back to the identical double
        out.write(",".join(report.columns).encode() + b"\n")
        texts, form, sep, kernel = cells("%.16e"), ("", ",", "\n"), "", _e16
    elif fmt == "json":
        # json writes a float as float.__repr__ (%r); the rows go where the
        # document holds an empty list, the only top-level key "rows"
        head, key, tail = _json(report, []).partition('\n  "rows": [')
        out.write(f"{head}{key}\n".encode())
        texts, sep, kernel, end = cells("%r"), ",\n", _repr, f"\n  {tail}\n"
        form = ("    [\n      ", ",\n      ", "\n    ]")
    else:
        widest = iter(_widest(table[:, varying]) if varying else ())
        texts = cells("%.6e")
        widths = [max(len(name), next(widest) if v else len(text))
                  for name, v, text in zip(report.columns, vary, texts)]
        out.write("\n".join(_head(report, widths) + [""]).encode())
        # %{w}.6e as w - 14 spaces before %{min(w, 14)}.6e, whose pad _e6 writes
        caps = np.array([min(w, 14) for v, w in zip(vary, widths) if v])
        texts = [" " * (w - 14) + f"%{min(w, 14)}.6e" if v else text.rjust(w)
                 for v, text, w in zip(vary, texts, widths)]
        form, sep = ("", "  ", ""), "\n"
        kernel = lambda x: _e6(x, np.resize(caps, len(x)))
        end = "".join(f"\n{line}" for line in _trailer(report)) + "\n"
    _write_rows(out, table, varying, texts, form, sep, kernel, _KERNEL_CELLS[fmt])
    out.write(end.encode())
    return out.getvalue()


def _json(report: ScenarioReport, rows: list) -> str:
    """The JSON document of the report's fields, in their order, with ``rows``."""
    return json.dumps({name: rows if name == "rows" else getattr(report, name)
                       for name in _FIELDS}, indent=2, allow_nan=False)


def _head(report: ScenarioReport, widths: list[int]) -> list[str]:
    """The table format's lines before the rows."""
    return [f"# scenario: {report.scenario}  (tag: {report.tag})",
            f"# {report.provenance}",
            "  ".join(name.ljust(w) for name, w in zip(report.columns, widths))]


def _trailer(report: ScenarioReport) -> list[str]:
    """The table format's lines after the rows."""
    return ([f"# residual {key} = {val:.6e}" for key, val in report.residuals.items()]
            + [f"# error: {err}" for err in report.errors])


def _emit_cells(report: ScenarioReport, rows: list, fmt: str) -> bytes:
    """Render the report's ``rows`` cell by cell: a float's text by its
    format, any other cell's by str."""
    if fmt == "json":
        return (_json(report, rows) + "\n").encode()
    if fmt == "csv":
        lines = [",".join(report.columns)]
        for row in rows:
            lines.append(",".join(
                format(v, ".16e") if isinstance(v, float) else str(v) for v in row))
        return ("\n".join(lines) + "\n").encode()
    cells = [[f"{v:.6e}" if isinstance(v, float) else str(v) for v in row]
             for row in rows]
    widths = [max(len(name), *(len(r[i]) for r in cells), 1)
              if cells else len(name)
              for i, name in enumerate(report.columns)]
    lines = _head(report, widths)
    for r in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return ("\n".join(lines + _trailer(report)) + "\n").encode()


def emit(report: ScenarioReport, fmt: str = "table") -> bytes:
    """Render a report as 'table', 'csv' or 'json' bytes: a finite float64
    table of two rows or more column by column, any other rows cell by cell
    (the same bytes, faster for one row; JSON refuses a float not finite)."""
    if fmt not in ("table", "csv", "json"):
        raise ValueError(f"unknown format '{fmt}'; expected table, csv or json")
    rows = report.rows
    if isinstance(rows, np.ndarray):
        if rows.dtype == np.float64 and len(rows) > 1 and np.isfinite(rows).all():
            return _emit_table(report, rows, fmt)
        rows = rows.tolist()
    return _emit_cells(report, rows, fmt)
