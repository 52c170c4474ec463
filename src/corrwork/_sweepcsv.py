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

Five unaligned word writes fill every byte of a slot, each from a table that
holds NUL in every byte the field drops: a lead word (sign, and "0." and
zeros for X = -1..-4), a head word (D0, '.', D1), two 4-digit groups (D2..D5,
D6..D9, trailing zeros as NUL) and an exponent word (NUL in fixed notation,
and the third digit NUL in a 2-digit exponent).  A fallback field is its
n <= 17 bytes, NUL up to the separator.  No field prints NUL, so deleting
the NULs of a block's slots leaves the bytes of every field.

Columns.  Only a block's distinct columns are rounded and written, each
straight into its own slots; a column whose bits equal those of the column
to its left is one copy of those slots.  A sweep's w_kT column repeats
i_nats, so three of its four columns are formatted.

Buffers.  ``format_blocks`` formats every block in row slices of at most
4096 rows, in one line array (377 KB for four columns), allocated for the
first block and again only for a larger one, so that its pages are not
given back to the system and faulted in again for every block.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

_WIDTH = 23
#: the separator's offset, the last byte of the slot
_SEP = 22
#: a computed y this close to a half-integer may round either way
_TIE_WINDOW = 1e-5
#: rows formatted at once; a longer block is formatted in slices of this many
_ROWS = 4096


def _words(texts, width: int) -> np.ndarray:
    """Each text, NUL-padded to ``width`` = 4 or 8 bytes, as one native word."""
    return np.array(texts, f"S{width}").view(np.uint32 if width == 4 else np.uint64)


def _tables():
    """Group, head, lead and exponent words, and powers of ten."""
    # group g + 10000 * t: the digits of g, with its trailing zeros NUL if t
    g = np.arange(10_000, dtype=np.int32)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.int32)
    digits = (g // place % 10 + ord("0")).astype(np.uint8)
    twin = np.where(g % (10 * place) == 0, np.uint8(0), digits)
    groups = np.vstack([digits, twin]).view(np.uint32).ravel()

    # head q + 100 * bare + 200 * fixed: D0 '.' D1, where bare says that
    # D2..D9 are all 0 and fixed that X = -1..-4, which prints no '.' after D0
    heads = []
    for fixed in (False, True):
        for bare in (False, True):
            for q in range(100):
                d1 = b"%d" % (q % 10) if q % 10 or not bare else b""
                heads.append(b"%d" % (q // 10) + (b"." if d1 and not fixed else b"") + d1)

    # lead 5 * sign + c: the sign, then for c = -X = 1..4 "0." and c - 1 zeros
    leads = [sign + (b"0." + b"0" * (c - 1) if c else b"")
             for sign in (b"\0", b"-") for c in range(5)]
    # exponent -X: two bytes that D6..D9 overwrite, "e-" and the digits
    # when X <= -5, and the separator
    exponents = [(b"\0\0e-%02d" % e if e > 4 else b"").ljust(7, b"\0") + b","
                 for e in range(310)]
    powers = np.array([float(10**k) for k in range(309)])
    return groups, _words(heads, 4), _words(leads, 8), _words(exponents, 8), powers


_GROUPS, _HEADS, _LEADS, _EXPONENTS, _POWERS = _tables()


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


def format_blocks(blocks: Iterable[np.ndarray]) -> Iterator[bytes]:
    """The "%.10g" CSV lines of (k, c) float64 blocks, fields joined by ",",
    one piece per slice of at most _ROWS rows of a block; every slice is
    formatted in the same line buffer."""
    lines = np.empty((0, _WIDTH), np.uint8)
    for block in blocks:
        k, c = block.shape
        m = min(k, _ROWS) * c
        if m > len(lines):
            lines = np.empty((m, _WIDTH), np.uint8)
        for start in range(0, k, _ROWS):
            yield _format(block[start : start + _ROWS], lines)


def _format(block: np.ndarray, lines: np.ndarray) -> bytes:
    """The CSV lines of ``block``, formatted in ``lines``: each distinct
    column is written into its own slots, and copied to each repeat."""
    k, c = block.shape
    block = np.asarray(block, dtype=np.float64)
    # a column prints the fields of its left neighbour when their bits are
    # equal; equal values are not enough, 0.0 and -0.0 print differently
    bits = block.view(np.int64)
    own = [j for j in range(c)
           if j == 0 or not np.array_equal(bits[:, j], bits[:, j - 1])]
    v = np.concatenate([block[:, j] for j in own])
    x, n, slow = _round(v)
    # floor division and a product: np.divmod takes twice as long
    q = n // 100_000_000
    rest = n - q * 100_000_000
    r1 = rest // 10_000
    r2 = rest - r1 * 10_000
    fixed = (x < 0) & (x > -5)  # "0.000" D0 D1...: no '.' after D0
    words = (  # (slot offset, word); where two words overlap, the later one wins
        (0, _LEADS[5 * np.signbit(v) - x * fixed]),  # sign, "0." and zeros
        (6, _HEADS[q + 100 * (rest == 0) + 200 * fixed]),  # D0 '.' D1
        (9, _GROUPS[r1 + 10_000 * (r2 == 0)]),  # D2..D5
        (15, _EXPONENTS[-x]),  # "e-" e1 e2 e3 and ","; x = 1 only falls back
        (13, _GROUPS[r2 + 10_000]),  # D6..D9
    )
    out = lines[: k * c]
    for i, j in enumerate(own):
        for offset, word in words:
            column = np.ndarray(k, word.dtype, out, j * _WIDTH + offset, (c * _WIDTH,))
            column[:] = word[i * k : (i + 1) * k]
    fields = out.reshape(k, c, _WIDTH)
    for i in np.flatnonzero(slow).tolist():
        field = (b"%.10g" % float(v[i])).ljust(_SEP, b"\0") + b","
        fields[i % k, own[i // k]] = np.frombuffer(field, dtype=np.uint8)

    placed = out.view(f"V{_WIDTH}").reshape(k, c)  # one whole slot per item
    for j in range(1, c):
        if j not in own:
            placed[:, j] = placed[:, j - 1]
    out[c - 1 :: c, _SEP] = ord("\n")  # every field was formatted with ","
    return out.tobytes().translate(None, b"\0")
