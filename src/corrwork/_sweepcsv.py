"""Exact "%.10g" CSV lines for a whole float64 block at once.

``format_blocks(blocks)`` yields, for each (k, c) block, the bytes of
``("%.10g," * (c - 1) + "%.10g\\n") * k % tuple(block.ravel())``, computed
with numpy, in one piece per slice of at most 4096 rows.

Domain.  A value x takes the vector path when it is finite, |x| < 10, and
x = 0 or |x| >= 1e-290.  Every other value (NaN, +-inf, subnormals, |x| >= 10)
and every near-tie below is formatted alone by ``"%.10g" % x``, into its
slot.  Sweep values lie inside the domain: theta in [0, pi], E in [-1, 1], I
in [0, ln 2].

Rounding.  %.10g prints N * 10**(X - 9), where N is the 10-digit integer
nearest to y = |x| * 10**(9 - X), ties to even, and X is the decimal
exponent of |x| after that rounding: in fixed notation when -4 <= X < 10
and in exponent form otherwise, without trailing zeros.
  - X starts as floor(E2 * log10 2), where E2 is the binary exponent of x;
    that is floor(log10|x|) or one less.  One correction, X += 1 where the
    computed y >= 1e10 and X -= 1 where it is < 1e9, leaves y in
    [1e9, 1e10) up to its rounding error, so rint(y) lies in [1e9, 1e10].
    N = 1e10 means that |x| rounds up to the next decade: N becomes 1e9 and
    X grows by one; X = 1 (|x| rounds to 10) takes the fallback.
  - 10**k, k = 9 - X <= 301, comes from a table of float(10**k), which is
    correctly rounded (and exact for k <= 22).  The computed y carries two
    roundings of half an ulp, of 10**k and of the product, so for y up to
    1e10 its absolute error is below 2.3e-6.  rint of the computed y is
    therefore the correctly rounded N unless the true y lies within 2.3e-6 of
    a half-integer.  Every such value shows |y - rint(y)| >= 0.5 - 1e-5 and
    takes the fallback; exact ties, which exist (1.0009765625 is one), are
    among them.

Layout.  Each field gets a 23-byte slot, the same for every value:

    sign  '0'  '.'  '000'  D0  '.'  D1..D9  'e'  '-'  e1 e2 e3  separator

The slots are filled with a few unaligned 4- and 8-byte word writes per
field, from tables of 4-digit groups and of exponent words.  The bytes that
a field keeps depend only on its sign, its layout class (X = 0, -1, -2, -3,
-4, or the exponent form with a 2- or 3-digit exponent) and its count of
significant digits, so they come from a 2 x 7 x 11 table of boolean rows.
A fallback field keeps its n <= 17 bytes and the separator.  Multiplied by
the mask, every dropped byte becomes NUL, which no field prints, so deleting
the NULs from the block's slots leaves the bytes of every field.

Columns.  A column whose bits equal those of the column to its left prints
the same fields, so only a block's distinct columns are rounded and filled,
one after another, in the slots; each is then copied to every place that
prints it, and the last column's separators become newlines.  A sweep's
w_kT column repeats i_nats, so three of its four columns are formatted.

Buffers.  ``format_blocks`` formats every block in row slices of at most
4096 rows, all in one slot array and one line array (377 KB each for four
columns), allocated for the first block and again only for a larger one;
the keep-mask borrows the line array until the fields are copied there.
Allocated per block, they and the heap under the block's temporaries went
back to the system after each block and were faulted in again for the next,
which took about a fifth of a sweep's CPU time.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

_WIDTH = 23
#: slot offsets: sign, the digit D0 and the dot after it, the first digit D2
#: of the group D2..D5, the exponent digits, the separator
_SIGN, _D0, _DOT, _D2, _EXP, _SEP = 0, 6, 7, 9, 19, 22
#: classes 0..4 are X = 0..-4; 5 and 6 the exponent form with 2 and 3 digits
_EXP2, _EXP3 = 5, 6
#: row _FALLBACK + n of _MASKS keeps a fallback field's n bytes and separator
_FALLBACK = 2 * 7 * 11
#: a computed y this close to a half-integer may round either way
_TIE_WINDOW = 1e-5
#: rows formatted at once; a longer block is formatted in slices of this many
_ROWS = 4096


def _words(raw) -> np.ndarray:
    """Each row of 4 or 8 bytes as one native machine word."""
    raw = np.ascontiguousarray(raw, dtype=np.uint8)
    return raw.view(np.uint32 if raw.shape[1] == 4 else np.uint64).ravel()


def _tables():
    """Digit and exponent words, trailing zeros, powers of ten, keep-masks."""
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        digits[..., place] = ascii.reshape((10,) + (1,) * (3 - place))
    groups = _words(digits.reshape(-1, 4))

    zeros = np.zeros(10_000, dtype=np.uint8)
    for d in range(1, 5):
        zeros[:: 10**d] += 1  # the group 0000 has four trailing zeros

    # "??e-" then e1 e2 e3 and the "," separator; two digits sit in e1 e2
    e = np.arange(310)[:, None]
    places = np.where(e < 100, [10, 1, 1], [100, 10, 1])
    exponents = _words(np.hstack([
        np.broadcast_to(np.frombuffer(b"00e-", dtype=np.uint8), (len(e), 4)),
        e // places % 10 + ord("0"),
        np.full_like(e, ord(",")),
    ]))

    lead = np.frombuffer(b"-0.0", dtype=np.uint32)[0]
    powers = np.array([float(10**k) for k in range(309)])

    sign = np.arange(2)[:, None, None, None]
    cls = np.arange(7)[None, :, None, None]
    sig = np.maximum(np.arange(11), 1)[None, None, :, None]  # 0 prints as one digit
    pos = np.arange(_WIDTH)[None, None, None, :]
    fixed = (cls >= 1) & (cls <= 4)
    expo = cls >= _EXP2
    keep = (
        ((pos == _SIGN) & (sign == 1))
        | ((pos == 1) | (pos == 2)) & fixed
        | (pos >= 3) & (pos <= 5) & (pos - 3 < cls - 1) & fixed
        | (pos == _D0)
        | (pos == _DOT) & ~fixed & (sig > 1)
        | (pos > _DOT) & (pos < _DOT + 10) & (pos - _DOT < sig)
        | (pos >= _EXP - 2) & (pos < _EXP + 2) & expo  # "e-" and two digits
        | (pos == _EXP + 2) & (cls == _EXP3)
        | (pos == _SEP)
    )
    slot = np.arange(_WIDTH)
    fallback = (slot < slot[: _SEP + 1, None]) | (slot == _SEP)
    masks = np.vstack([keep.reshape(-1, _WIDTH), fallback])
    return groups, zeros, exponents, lead, powers, masks


_GROUPS, _ZEROS, _EXPONENTS, _LEAD, _POWERS, _MASKS = _tables()


def _round(v: np.ndarray):
    """(X, N, slow) of every value: its decimal exponent and 10-digit integer
    after rounding, and whether it must take the fallback instead."""
    a = np.abs(v)
    zero = a == 0.0
    inside = (a < 10.0) & ((a >= 1e-290) | zero)
    a = np.where(inside & ~zero, a, 1.0)

    x = np.floor(((a.view(np.int64) >> 52) - 1023) * 0.30102999566398120)
    x = x.astype(np.int64)
    y = a * _POWERS[9 - x]
    x += (y >= 1e10).astype(np.int64) - (y < 1e9)
    y = a * _POWERS[9 - x]
    n = np.rint(y)
    slow = ~inside | (np.abs(y - n) >= 0.5 - _TIE_WINDOW)
    up = n == 1e10
    n[up] = 1e9
    x += up
    slow |= x > 0  # rounds to 10: outside the layout classes
    n[zero] = 0.0
    x[zero] = 0
    return x, n.astype(np.int64), slow


def _column(slots: np.ndarray, offset: int, dtype) -> np.ndarray:
    """The machine words at ``offset`` of every slot, unaligned, as one view."""
    return np.ndarray(len(slots), dtype, slots, offset, (_WIDTH,))


def _fill(slots: np.ndarray, x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Write every field's digits and exponent into its slot; returns the
    fields' counts of significant digits."""
    # floor division and a product: np.divmod takes twice as long
    q = n // 100_000_000
    rest = n - q * 100_000_000
    r1 = rest // 10_000
    r2 = rest - r1 * 10_000
    _column(slots, _SIGN, np.uint32)[:] = _LEAD
    _column(slots, _D0 - 2, np.uint32)[:] = _GROUPS[q]  # "00" D0 D1
    slots[:, _DOT + 1] = slots[:, _DOT]
    slots[:, _DOT] = ord(".")
    _column(slots, _EXP - 4, np.uint64)[:] = _EXPONENTS[-x]  # x = 1 only falls back
    _column(slots, _D2, np.uint32)[:] = _GROUPS[r1]
    _column(slots, _D2 + 4, np.uint32)[:] = _GROUPS[r2]
    zeros = _ZEROS[r2] + (r2 == 0) * (_ZEROS[r1] + (r1 == 0) * _ZEROS[q])
    return 10 - np.minimum(zeros, 10)  # N = 0 has twelve


def format_blocks(blocks: Iterable[np.ndarray]) -> Iterator[bytes]:
    """The "%.10g" CSV lines of (k, c) float64 blocks, fields joined by ",",
    one piece per slice of at most _ROWS rows of a block; every slice is
    formatted in the same slot and line buffers."""
    slots = lines = np.empty((0, _WIDTH), np.uint8)
    for block in blocks:
        k, c = block.shape
        m = min(k, _ROWS) * c
        if m > len(slots):
            slots, lines = np.empty((m, _WIDTH), np.uint8), np.empty((m, _WIDTH), np.uint8)
        for start in range(0, k, _ROWS):
            yield _format(block[start : start + _ROWS], slots, lines)


def _format(block: np.ndarray, slots: np.ndarray, lines: np.ndarray) -> bytes:
    """The CSV lines of ``block``: each distinct column is formatted once, in
    ``slots``, and copied to every place that prints it in ``lines``."""
    k, c = block.shape
    block = np.asarray(block, dtype=np.float64)
    # a column prints the fields of its left neighbour when their bits are
    # equal; equal values are not enough, 0.0 and -0.0 print differently
    bits = block.view(np.int64)
    columns, source = [block[:, 0]], [0]
    for j in range(1, c):
        if not np.array_equal(bits[:, j], bits[:, j - 1]):
            columns.append(block[:, j])
        source.append(len(columns) - 1)
    v = np.concatenate(columns)
    fields = slots[: len(v)]
    x, n, slow = _round(v)
    sig = _fill(fields, x, n)

    cls = np.minimum(-x, _EXP2) + (x <= -100)
    row = np.signbit(v) * (7 * 11) + cls * 11 + sig
    for i in np.flatnonzero(slow).tolist():
        field = b"%.10g" % float(v[i])
        fields[i, : len(field)] = np.frombuffer(field, dtype=np.uint8)
        row[i] = _FALLBACK + len(field)
    # the keep-mask borrows the line buffer, which is written only after it
    keep = lines[: len(v)].view(bool)
    # every row is in range; mode "raise" would take into a temporary copy of keep
    np.take(_MASKS, row, axis=0, out=keep, mode="clip")
    fields *= keep  # a dropped byte becomes NUL, which no field prints

    out = lines[: k * c]
    slot = f"V{_WIDTH}"  # one whole slot as a single numpy item
    placed, formatted = out.view(slot).reshape(k, c), fields.view(slot).reshape(-1, k)
    for j, s in enumerate(source):
        placed[:, j] = formatted[s]
    out[c - 1 :: c, _SEP] = ord("\n")  # every field was formatted with ","
    return out.tobytes().translate(None, b"\0")
