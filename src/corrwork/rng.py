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

Because the state is a pure counter, a block of n draws equals n sequential
scalar draws.  The array path exploits that: it scrambles the words of
``state + (i + 1) * 0x9E3779B97F4A7C15`` in blocks of at most 2^16, each
block in place in one reused buffer, so its working memory does not grow
with n.  :meth:`RandomStream.uniform_block` turns those words into the same
doubles as the scalar path.

:meth:`RandomStream.count_below` counts how many of n trials draw a uniform
u = j * 2**-53 below p, with j uniform on [0, 2**53).  Since p * 2**53 is
exact in floating point,

    u < p  <=>  j < k = ceil(p * 2**53)

and j < k is decided by the first bit, from the top, where j and k differ.
So the count draws each trial's bits only until that bit, and all tied
trials' bits at once: at each bit of k from bit 52 down, the ``tied``
trials whose leading bits so far equal k's read one fresh fair bit each,
and the number of zeros among them is tied - popcount of tied fair bits
(tied // 64 whole words and the low tied % 64 bits of one more).  Where k's
bit is 1 the zeros fall below k and are counted, and the ones stay tied;
where it is 0 the ones rise above k and only the zeros stay tied.  The walk
ends when no trial is tied, or when k has no set bit left, so that the
trials still tied are at or above k.  The count is exactly
Binomial(n, k * 2**-53), the law of n uniforms compared with p, from about
2n/64 words: half the tied trials leave at each bit.  For p = 1 (k = 2**53)
every trial counts and for p = 0 none does, without a draw.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TO_UNIT = 2.0**-53
_BLOCK = 1 << 16


def _scramble(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> None:
    """Seeds are ints, not bools, in [0, 2**64): no two share a stream."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


class RandomStream:
    """SplitMix64 stream with scalar and bit-identical block output."""

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
        """n uniforms as one array, identical to n next_uniform() calls."""
        import numpy as np

        if n < 0:
            raise ValueError(f"block size must be >= 0, got {n}")
        out = np.empty(n, dtype=np.float64)
        start = 0
        for words in self._word_blocks(n):
            words >>= np.uint64(11)
            np.multiply(words, _TO_UNIT, out=out[start:start + len(words)])
            start += len(words)
        return out

    def count_below(self, n: int, p: float) -> int:
        """How many of n trials draw a uniform below p, from about n/32 words.

        The count is exactly Binomial(n, k * 2**-53) with k = ceil(p * 2**53),
        the law of comparing n 53-bit uniforms with p: see the module
        docstring for the bisection.  It draws about n/32 words, plus at most
        one partial word per bit of k, and advances the stream by the words
        drawn; p = 0 and p = 1 draw nothing.  Memory is flat in n.
        """
        if n < 0:
            raise ValueError(f"count must be >= 0, got {n}")
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"threshold {p!r} outside [0, 1]")
        k = math.ceil(p * 2.0**53)
        if k == 1 << 53:
            return n
        count, tied, bit = 0, n, 1 << 53
        while tied and k:
            bit >>= 1
            zeros = tied - self._ones(tied)
            if k & bit:
                k ^= bit
                count += zeros
                tied -= zeros
            else:
                tied = zeros
        return count

    def _ones(self, m: int) -> int:
        """Set bits among the next m fair bits: the m // 64 next whole words,
        then the low m % 64 bits of one more word."""
        whole, rest = divmod(m, 64)
        ones = 0
        if whole:
            import numpy as np

            for words in self._word_blocks(whole):
                ones += int(np.bitwise_count(words, out=words).sum())
        if rest:
            ones += (self.next_uint64() & ((1 << rest) - 1)).bit_count()
        return ones

    def _word_blocks(self, n: int) -> Iterator[np.ndarray]:
        """The next n words, in blocks of at most _BLOCK, advancing the stream.

        Every block is the same reused buffer (a shorter view of it for the
        last block), valid until the next block is requested.
        """
        import numpy as np

        size = min(n, _BLOCK)
        steps = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        words = np.empty(size, dtype=np.uint64)
        scratch = np.empty(size, dtype=np.uint64)
        mix1, mix2 = np.uint64(_MIX1), np.uint64(_MIX2)
        for start in range(0, n, _BLOCK):
            k = min(size, n - start)
            z, t = words[:k], scratch[:k]
            np.add(steps[:k], np.uint64(self._state), out=z)
            self._state = (self._state + k * _GAMMA) & _MASK64
            np.right_shift(z, np.uint64(30), out=t)
            z ^= t
            z *= mix1
            np.right_shift(z, np.uint64(27), out=t)
            z ^= t
            z *= mix2
            np.right_shift(z, np.uint64(31), out=t)
            z ^= t
            yield z

    def __repr__(self) -> str:
        return f"RandomStream(seed={self._state0:#x})"
