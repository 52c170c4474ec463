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
doubles as the scalar path, and :meth:`RandomStream.count_below` counts how
many would fall below p without forming a double at all.  That count is
exact: a uniform is u = k * 2**-53 with k = output >> 11, so

    u < p  <=>  k < ceil(p * 2**53)  <=>  output < ceil(p * 2**53) * 2**11

where p * 2**53 is exact in floating point and k is an integer.  For p = 1
the limit is 2**64, beyond every word, and every draw counts.
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
        """How many of the next n uniforms are < p, in O(1) memory.

        Advances the stream exactly as n next_uniform() calls would.  The
        words are compared against the integer limit ceil(p * 2**53) * 2**11,
        which is exact (see the module docstring).
        """
        if n < 0:
            raise ValueError(f"count must be >= 0, got {n}")
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"threshold {p!r} outside [0, 1]")
        limit = math.ceil(p * 2.0**53) << 11
        if limit > _MASK64:
            self._state = (self._state + n * _GAMMA) & _MASK64
            return n
        import numpy as np

        limit = np.uint64(limit)
        return sum(int(np.count_nonzero(words < limit))
                   for words in self._word_blocks(n))

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
