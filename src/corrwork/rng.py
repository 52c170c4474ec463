"""Counter-based pseudo-random stream used by every sampling routine.

The generator is SplitMix64, written out here in full so that the exact
output sequence is part of this repository's contract rather than a
property of whatever random module the platform ships.  State is a single
64-bit counter advanced by a fixed odd increment; each output is a bijective
scramble of the counter:

    state   <- (state + 0x9E3779B97F4A7C15)            mod 2^64
    z       <- state
    z       <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z       <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output  <- z XOR (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits: (output >> 11) * 2**-53.
Every word is drawn one at a time, by :meth:`RandomStream.next_uint64`.

:meth:`RandomStream.count_below` counts how many of n trials draw a uniform
u = j * 2**-53 below p, with j uniform on [0, 2**53).  Since p * 2**53 is
exact in floating point,

    u < p  <=>  j < k = ceil(p * 2**53)

and j < k is decided by the first bit, from the top, where j and k differ.
So the count walks the bits of k from bit 52 down with the number ``tied``
of trials whose leading bits so far equal k's.  Each tied trial's next bit
is fair, so the tied trials with a 0 there number Z ~ Binomial(tied, 1/2).
Where k's bit is 1 those Z fall below k and are counted, and the others
stay tied; where it is 0 the others rise above k and only the Z stay tied.
The walk ends when no trial is tied, or when k has no set bit left, so that
the trials still tied are at or above k.  The count is exactly
Binomial(n, k * 2**-53), the law of n uniforms compared with p.

Each Z is one exact Binomial(m, 1/2) draw in O(1) expected words
(Bringmann, Kuhn, Panagiotou, Peter & Thomas, ICALP 2014; Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. X).  An odd m adds the
low bit of one word to Binomial(m - 1, 1/2).  For m = 2a, with
r(d) = C(2a, a + d) / C(2a, a), the draw is a + D, where D is proposed from
a block index g, an offset u and a sign s:

    g  the trailing zeros of one word, 64 more for each zero word before
       it, so that P(g) = 2**-(g + 1);
    s, u  the low bit of the next word whose top 63 bits fall below the
       largest multiple of W = isqrt(ceil(2 ln 2 * a)) + 1 under 2**63, and
       those 63 bits mod W, uniform on [0, W);
    D  g*W + u for s = 0, and -(g*W + u + 1) for s = 1, so that 0 is
       proposed once;

and accepted with probability t = r(|D|) * 2**g, so that each D has mass
r(|D|) / 4W, in proportion to C(2a, a + D).  A |D| > a has r = 0 and is
rejected without a draw.  r(d) <= exp(-d**2 / (a + d)), and
W (W - ln 2) >= a ln 2, so t <= 1; for large a about 0.38 of the proposals
are accepted.  Counts lie in [0, 2**64), so a < 2**63, W < 2**32, and one
word holds s and u.

The acceptance reads a uniform U lazily, 64 bits per word: after j words U
lies in [N, N + 1) * 2**-64j, and the decision is taken at the first j at
which that interval excludes t, by the side it lies on.  A float screen,
:func:`_log_bounds`, bounds ln t by Stirling's series and decides wherever
the interval clears those bounds; elsewhere exact integers decide, with
t = 2**g * (a!/(a - d)!) / ((a + d)!/a!) for d = |D|.  Both read the same
words and take the same decision, so the draw is exact.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TO_UNIT = 2.0**-53

_LN2 = math.log(2.0)


def _scramble(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _width(a: int) -> int:
    """The proposal width W = isqrt(ceil(2 ln 2 * a)) + 1 of Binomial(2a, 1/2):
    W**2 > 2a ln 2 gives W (W - ln 2) >= a ln 2, so no acceptance exceeds 1."""
    return math.isqrt(math.ceil(2 * _LN2 * a)) + 1


def _log_bounds(a: int, d: int, g: int) -> tuple[float, float]:
    """Float bounds low <= ln t <= high on t = r(d) * 2**g, 0 <= d <= a, where
    r(d) = C(2a, a + d) / C(2a, a).

    For 2d <= a, Stirling's series ln n! = n ln n - n + ln(2 pi n)/2
    + 1/(12 n) - R(n), 0 < R(n) < 1/(360 n**3), gives, with x = d/a,

        ln r(d) = -2d atanh(x) - (a + 1/2) log1p(-x**2)
                  + (2/a - 1/(a + d) - 1/(a - d)) / 12

    within 1/(180 (a - d)**3), and the bounds widen that by 2**-40 of the
    size of the terms, plus 2**-40: far beyond the rounding of the few float
    operations here and in the comparisons with them, each within a few
    units of 2**-53, and of x, whose terms are well conditioned for x <= 1/2.
    For 2d > a only r(d) <= exp(-d**2 / (a + d)) is used, an upper bound.
    """
    shift = g * _LN2
    if 2 * d > a:
        drop = d * d / (a + d)
        return -math.inf, shift - drop + (shift + drop + 1) * 2**-40
    x = d / a
    spread, fold = 2 * d * math.atanh(x), (a + 0.5) * math.log1p(-x * x)
    estimate = shift - spread - fold + (2 / a - 1 / (a + d) - 1 / (a - d)) / 12
    margin = (shift + spread - fold + 1) * 2**-40 + 1 / (180 * (a - d) ** 3)
    return estimate - margin, estimate + margin


def _check_int(value: int, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def check_seed(seed: int) -> None:
    """Seeds are ints, not bools, in [0, 2**64): no two share a stream."""
    _check_int(seed, "seed")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def check_count(n: int, name: str = "count", least: int = 0) -> None:
    """Counts are ints, not bools, in [least, 2**64), the seed's domain: a
    count of trials below 2**64 keeps every proposal of
    :meth:`RandomStream.count_below` within one word."""
    _check_int(n, name)
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    if n > _MASK64:
        raise ValueError(f"{name} must be below 2**64, got {n}")


class RandomStream:
    """SplitMix64 stream: words drawn one at a time, the uniforms they give,
    and exact counts of trials below a threshold."""

    __slots__ = ("_state0", "_state")

    def __init__(self, seed: int):
        check_seed(seed)
        self._state0 = int(seed)
        self._state = self._state0

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _scramble(self._state)

    def next_uniform(self) -> float:
        """Next double in [0, 1), from the top 53 bits of the next word."""
        return (self.next_uint64() >> 11) * _TO_UNIT

    def uniform_block(self, n: int) -> np.ndarray:
        """n uniforms as one array, identical to n next_uniform() calls (no
        routine of the package calls it)."""
        import numpy as np

        if n < 0:
            raise ValueError(f"block size must be >= 0, got {n}")
        return np.fromiter((self.next_uniform() for _ in range(n)), np.float64, n)

    def count_below(self, n: int, p: float) -> int:
        """How many of n trials draw a uniform below p, in O(1) expected words
        for each bit of the threshold.

        The count is exactly Binomial(n, k * 2**-53) with k = ceil(p * 2**53),
        the law of comparing n 53-bit uniforms with p: see the module
        docstring for the walk over the bits of k and its Binomial(m, 1/2)
        draws.  It advances the stream by the words drawn, a number that
        does not grow with n; p = 0 and p = 1 draw nothing.  n is an int
        in [0, 2**64) (:func:`check_count`).
        """
        check_count(n)
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"threshold {p!r} outside [0, 1]")
        k = math.ceil(p * 2.0**53)
        if k == 1 << 53:
            return n
        count, tied, bit = 0, n, 1 << 53
        while tied and k:
            bit >>= 1
            zeros = self._half_binomial(tied)
            if k & bit:
                k ^= bit
                count += zeros
                tied -= zeros
            else:
                tied = zeros
        return count

    def _half_binomial(self, m: int) -> int:
        """One exact Binomial(m, 1/2) draw; m = 0 draws nothing."""
        a, odd = divmod(m, 2)
        x = a + (self.next_uint64() & 1) if odd else a
        if not a:
            return x
        width = _width(a)
        while True:
            g, d = self._propose(width)
            if abs(d) <= a and self._accept(a, abs(d), g):
                return x + d

    def _propose(self, width: int) -> tuple[int, int]:
        """A block index g with P(g) = 2**-(g + 1), and the signed offset
        g*width + u or -(g*width + u + 1), u uniform on [0, width) for a
        width below 2**63, drawn with the sign from one word."""
        g, word = 0, self.next_uint64()
        while not word:
            g, word = g + 64, self.next_uint64()
        g += (word & -word).bit_length() - 1
        limit = (1 << 63) - (1 << 63) % width
        word = self.next_uint64()
        while word >> 1 >= limit:  # the sign bit and u, drawn again past limit
            word = self.next_uint64()
        d = g * width + (word >> 1) % width
        return g, -1 - d if word & 1 else d

    def _accept(self, a: int, d: int, g: int) -> bool:
        """Whether a uniform U, read from the next words, falls below
        t = r(d) * 2**g, for 0 <= d <= a and t <= 1."""
        low, high = _log_bounds(a, d, g)
        n, bits = self.next_uint64(), 64
        while True:  # U in [n, n + 1) * 2**-bits, and ln t in [low, high]
            top = math.log(n + 1) - bits * _LN2
            if top < low:
                return True
            if n:
                if math.log(n) - bits * _LN2 > high:
                    return False
                break
            if top <= high:
                break
            n, bits = self.next_uint64(), bits + 64  # 0 < t < top: read on
        # the screen cannot tell: compare U with t in integers
        num, den = math.perm(a, d) << g, math.perm(a + d, d)
        while True:
            if (n + 1) * den <= num << bits:
                return True
            if n * den >= num << bits:
                return False
            n, bits = n << 64 | self.next_uint64(), bits + 64

    def __repr__(self) -> str:
        return f"RandomStream(seed={self._state0:#x})"
