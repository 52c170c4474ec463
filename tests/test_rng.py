"""The counter-based stream: determinism, block equivalence, derivation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrwork.rng import _BLOCK as B, _GAMMA, _MASK64, _MIX1, _MIX2, RandomStream

BOUNDARY_SIZES = [0, 1, B - 1, B, B + 1, 2 * B + 1]


def test_same_seed_same_sequence():
    a = RandomStream(42)
    b = RandomStream(42)
    assert [a.next_uniform() for _ in range(50)] == [b.next_uniform() for _ in range(50)]


def test_different_seeds_differ():
    a = [RandomStream(1).next_uint64() for _ in range(4)]
    b = [RandomStream(2).next_uint64() for _ in range(4)]
    assert a != b


@pytest.mark.parametrize("seed", [0, 42, 2**63, 2**64 - 1, 123456789])
def test_block_matches_scalar_bit_for_bit(seed):
    scalar = RandomStream(seed)
    block = RandomStream(seed)
    expected = np.array([scalar.next_uniform() for _ in range(257)])
    got = block.uniform_block(257)
    assert np.array_equal(got, expected)
    # the streams stay in sync after mixing block and scalar draws
    assert block.next_uniform() == scalar.next_uniform()


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_block_matches_scalar_across_block_boundaries(n):
    scalar = RandomStream(2**64 - 1)
    block = RandomStream(2**64 - 1)
    expected = np.array([scalar.next_uniform() for _ in range(n)])
    assert np.array_equal(block.uniform_block(n), expected)
    assert block.next_uniform() == scalar.next_uniform()


def _count_matches_block_twin(seed, n, p):
    counted = RandomStream(seed)
    twin = RandomStream(seed)
    got = counted.count_below(n, p)
    assert got == np.count_nonzero(twin.uniform_block(n) < p)
    # the count consumed exactly n draws
    assert counted.next_uniform() == twin.next_uniform()
    return got


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-53, 0.25, 0.5, 1.0 - 2.0**-53, 1.0])
def test_count_below_matches_block_twin(n, p):
    got = _count_matches_block_twin(31, n, p)
    if p == 1.0:
        assert got == n


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       n=st.integers(min_value=0, max_value=3 * B),
       p=st.floats(min_value=0.0, max_value=1.0))
def test_count_below_property(seed, n, p):
    _count_matches_block_twin(seed, n, p)


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1])
def test_count_below_matches_scalar_draws(n):
    scalar = RandomStream(53)
    draws = [scalar.next_uniform() for _ in range(n)]
    following = scalar.next_uniform()
    for p in [0.0, 2.0**-53, 0.25, math.nextafter(1.0, 0.0), 1.0]:
        counted = RandomStream(53)
        assert counted.count_below(n, p) == sum(u < p for u in draws), p
        # the count consumed exactly n draws
        assert counted.next_uniform() == following, p


def _seed_whose_first_word_is(word):
    """Invert the output scramble: its xorshifts and odd multipliers are bijections."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(word, 31)
    z = unshift(z * pow(_MIX2, -1, 2**64) & _MASK64, 27)
    z = unshift(z * pow(_MIX1, -1, 2**64) & _MASK64, 30)
    return (z - _GAMMA) & _MASK64


@pytest.mark.parametrize("k", [0, 1, 3, 2**52, 2**53 - 1])
def test_count_below_is_exact_at_the_threshold(k):
    # a draw of exactly p = k * 2**-53 is not below p, and is below the next double
    seed = _seed_whose_first_word_is(k << 11)
    assert RandomStream(seed).next_uint64() == k << 11
    p = k * 2.0**-53
    assert RandomStream(seed).next_uniform() == p
    assert RandomStream(seed).count_below(1, p) == 0
    assert RandomStream(seed).count_below(1, math.nextafter(p, 1.0)) == 1
    if k:
        assert RandomStream(seed).count_below(1, math.nextafter(p, 0.0)) == 0


@pytest.mark.parametrize("n, p", [(-1, 0.5), (10, math.nan), (10, -0.0001),
                                  (10, 1.0000001), (10, math.inf), (10, -math.inf)])
def test_count_below_rejects_bad_arguments(n, p):
    with pytest.raises(ValueError):
        RandomStream(0).count_below(n, p)


def test_uniforms_live_in_unit_interval():
    u = RandomStream(7).uniform_block(100_000)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0
    assert abs(float(u.mean()) - 0.5) < 0.005


def test_seed_type_checked():
    with pytest.raises(TypeError):
        RandomStream(1.5)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
def test_seed_outside_the_state_space_is_rejected(seed):
    # reduced mod 2**64, -1 would draw the stream of 2**64 - 1
    with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
        RandomStream(seed)
