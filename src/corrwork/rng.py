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
scalar draws, and the block path below exploits that to produce the same
bits through vectorized arithmetic.

Streams are single-owner.  Concurrent shards must not share one stream;
they call :meth:`RandomStream.derive`, which maps (seed, shard index) to an
independent child stream through one extra scramble:

    child_state <- scramble(state0 XOR ((index + 1) * 0xD1342543DE82EF95))

where ``state0`` is the parent's initial state and ``scramble`` is the
three-line output mix above.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DERIVE = 0xD1342543DE82EF95

_TO_UNIT = 2.0**-53


def _scramble(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """SplitMix64 stream with scalar and bit-identical block output."""

    __slots__ = ("_state0", "_state")

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._state0 = seed & _MASK64
        self._state = self._state0

    @property
    def seed(self) -> int:
        return self._state0

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
        counters = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self._state) + np.uint64(_GAMMA) * counters
        z = states
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GAMMA) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * _TO_UNIT

    def derive(self, index: int) -> "RandomStream":
        """Independent child stream for shard `index` (0-based)."""
        if index < 0:
            raise ValueError(f"shard index must be >= 0, got {index}")
        salt = ((index + 1) * _DERIVE) & _MASK64
        return RandomStream(_scramble(self._state0 ^ salt))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self._state0:#x})"
