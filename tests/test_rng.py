"""The counter-based stream: determinism, block equivalence, derivation,
and the bisection count of trials below a threshold."""

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrwork.rng import _BLOCK as B, _GAMMA, _MASK64, RandomStream

from oracles import count_below_reference

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


def _count_by_trials(seed, n, p):
    """count_below's experiment trial by trial, on a twin stream drawn in
    blocks: at each bit of k = ceil(p * 2**53) the tied trials, in order, read
    the bits of the next ceil(tied / 64) words, low bit first, and each leaves
    the tie below k (counted) or above it at the first bit where it differs
    from k.  Returns the count and the twin stream."""
    twin = RandomStream(seed)
    k = math.ceil(p * 2**53)
    if k == 2**53:
        return n, twin
    tied = np.arange(n)
    below = np.zeros(n, dtype=bool)
    for level in range(52, -1, -1):
        if not len(tied) or k % 2 ** (level + 1) == 0:
            break
        words = np.array([twin.next_uint64() for _ in range(-(-len(tied) // 64))],
                         dtype="<u8")
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")[:len(tied)]
        kbit = k >> level & 1
        below[tied[bits < kbit]] = True
        tied = tied[bits == kbit]
    return int(np.count_nonzero(below)), twin


def _words_drawn(stream, seed):
    """Words a stream seeded with ``seed`` has drawn, read off its counter."""
    return (stream._state - seed) * pow(_GAMMA, -1, 2**64) & _MASK64


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-53, 0.25, 0.5, 1.0 - 2.0**-53, 1.0])
def test_count_below_matches_block_twin(n, p):
    counted = RandomStream(31)
    got = counted.count_below(n, p)
    if p in (0.0, 1.0):
        assert (got, _words_drawn(counted, 31)) == (n * p, 0)
    want, twin = _count_by_trials(31, n, p)
    assert got == want
    # the count drew exactly the twin's words
    assert counted.next_uint64() == twin.next_uint64()


#: trial counts of a few words, and counts whose first level of words ends
#: within a few words of one block of words
TRIALS = st.one_of(
    st.integers(min_value=0, max_value=5 * 64),
    st.integers(min_value=64 * B - 300, max_value=64 * B + 300),
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), n=TRIALS,
       p=st.floats(min_value=0.0, max_value=1.0))
def test_count_below_property(seed, n, p):
    counted = RandomStream(seed)
    want, twin = count_below_reference(seed, n, p)
    assert counted.count_below(n, p) == want
    assert counted.next_uint64() == twin.next_uint64()


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1])
def test_count_below_matches_scalar_draws(n):
    for p in [0.0, 2.0**-53, 0.25, 0.6859, math.nextafter(1.0, 0.0), 1.0]:
        counted = RandomStream(53)
        want, scalar = count_below_reference(53, n, p)
        assert counted.count_below(n, p) == want, p
        assert counted.next_uint64() == scalar.next_uint64(), p


@pytest.mark.parametrize("k", [0, 1, 3, 2**52, 2**53 - 1])
def test_count_below_is_exact_at_the_threshold(k):
    # p enters only as k = ceil(p * 2**53): every p in ((k - 1) * 2**-53,
    # k * 2**-53] draws the same words and count, and the next double above
    # draws those of k + 1
    at = k * 2.0**-53
    same = [at] if k == 0 else [at, math.nextafter((k - 1) * 2.0**-53, 1.0)]
    above = math.nextafter(at, 1.0)
    assert math.ceil(above * 2**53) == k + 1
    for seed in (0, 53, 2**64 - 1):
        for p, threshold in [*((q, at) for q in same), (above, above)]:
            counted = RandomStream(seed)
            want, twin = count_below_reference(seed, 1000, threshold)
            assert counted.count_below(1000, p) == want, p
            assert counted.next_uint64() == twin.next_uint64(), p


@pytest.mark.parametrize("seed", [0, 53, 2**64 - 1])
@pytest.mark.parametrize("p", [0.75, 0.6859])
def test_count_below_draws_about_n_over_32_words(seed, p):
    # half the tied trials leave at each bit of k, so the levels draw about
    # 2n/64 words in all, plus at most one partial word on each of 53 bits;
    # n/16 + 106 leaves a factor of two on the first term
    n = 10**6
    stream = RandomStream(seed)
    stream.count_below(n, p)
    words = _words_drawn(stream, seed)
    assert words <= n // 16 + 106
    if p == 0.75:
        # k = 3 * 2**51: n // 64 words for bit 52, and one bit for bit 51 for
        # each trial whose first bit was 1; k has no set bit below
        first = RandomStream(seed)
        ones = sum(first.next_uint64().bit_count() for _ in range(n // 64))
        assert words == n // 64 + -(-ones // 64)


@pytest.mark.parametrize("p", [0.75, 0.3])
def test_count_below_follows_the_binomial_law(p):
    # chi-square of 40000 seeded counts of 6 trials against the exact pmf of
    # Binomial(6, k * 2**-53): the seeds are fixed, so is the statistic
    n, runs = 6, 40_000
    q = Fraction(math.ceil(p * 2**53), 2**53)
    seeds = RandomStream(34)
    observed = Counter(RandomStream(seeds.next_uint64()).count_below(n, p)
                       for _ in range(runs))
    chi2 = 0.0
    for j in range(n + 1):
        expected = runs * float(math.comb(n, j) * q**j * (1 - q) ** (n - j))
        chi2 += (observed[j] - expected) ** 2 / expected
    # the chance that a chi-square of n degrees of freedom exceeds chi2
    assert mpmath.gammainc(n / 2, chi2 / 2, mpmath.inf, regularized=True) > 1e-3, chi2


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
