"""Exact "%.10g" CSV lines for a whole float64 block at once.

``format_blocks(blocks)`` yields, for each (k, c) block, the bytes of
``("%.10g," * (c - 1) + "%.10g\\n") * k % tuple(block.ravel())``, computed
with numpy.

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

``format_blocks`` formats all blocks in one slot array and one keep-mask
(377 KB each for 4096 rows of four columns), allocated for the first block
and again only for a larger one.
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
    q, rest = np.divmod(n, 100_000_000)
    r1, r2 = np.divmod(rest, 10_000)
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
    """The "%.10g" CSV lines of each (k, c) float64 block, fields joined by
    ","; every block is formatted in the same slot and keep buffers."""
    slots, keep = np.empty((0, _WIDTH), np.uint8), np.empty((0, _WIDTH), bool)
    for block in blocks:
        m = block.size
        if m > len(slots):
            slots, keep = np.empty((m, _WIDTH), np.uint8), np.empty((m, _WIDTH), bool)
        yield _format(block, slots[:m], keep[:m])


def _format(block: np.ndarray, slots: np.ndarray, keep: np.ndarray) -> bytes:
    """The CSV lines of ``block``, in the (k * c, 23) buffers ``slots`` and ``keep``."""
    c = block.shape[1]
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    x, n, slow = _round(v)
    sig = _fill(slots, x, n)
    slots[c - 1 :: c, _SEP] = ord("\n")

    cls = np.minimum(-x, _EXP2) + (x <= -100)
    row = np.signbit(v) * (7 * 11) + cls * 11 + sig
    for i in np.flatnonzero(slow).tolist():
        field = b"%.10g" % float(v[i])
        slots[i, : len(field)] = np.frombuffer(field, dtype=np.uint8)
        row[i] = _FALLBACK + len(field)
    # every row is in range; mode "raise" would take into a temporary copy of keep
    np.take(_MASKS, row, axis=0, out=keep, mode="clip")
    slots *= keep  # a dropped byte becomes NUL, which no field prints
    return slots.tobytes().translate(None, b"\0")
