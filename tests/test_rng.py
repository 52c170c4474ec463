"""The counter-based stream: determinism, uniform arrays, derivation,
the exact Binomial(m, 1/2) draw, and the count of trials below a threshold."""

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrwork.rng import _GAMMA, _MASK64, RandomStream, _log_bounds, _width

from oracles import count_below_reference, uniform_below

#: sizes on either side of 2**16 and 2**17
BOUNDARY_SIZES = [0, 1, 65535, 65536, 65537, 131073]


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


def _words_drawn(stream, seed):
    """Words a stream seeded with ``seed`` has drawn, read off its counter."""
    return (stream._state - seed) * pow(_GAMMA, -1, 2**64) & _MASK64


class ScriptedStream(RandomStream):
    """A stream that returns ``words`` first, then the words of its seed."""

    __slots__ = ("_script",)

    def __init__(self, words, seed=0):
        super().__init__(seed)
        self._script = list(reversed(words))

    def next_uint64(self):
        return self._script.pop() if self._script else super().next_uint64()


#: an upper bound on ln 2, so that W (W - ln 2) >= a ln 2 holds with it
LN2_ABOVE = Fraction(6931471805599454, 10**16)


def target(a, d, g):
    """t = 2**g C(2a, a + d) / C(2a, a), the acceptance probability of offset d."""
    return Fraction(2**g * math.comb(2 * a, a + d), math.comb(2 * a, a))


def accepts_below(a, d, g):
    """The acceptance as a function of U, probed at 128 bits: whether _accept
    takes the U just below t and leaves those at and just above it."""
    t = target(a, d, g)
    edge = math.floor(t * 2**128)  # U in [edge, edge + 1) * 2**-128 holds t
    probes = [(edge - 1, True), (edge + 1, False)]
    if edge == t * 2**128:
        probes.append((edge, False))
    return all(ScriptedStream(divmod(u, 2**64))._accept(a, d, g) is want
               for u, want in probes if 0 <= u < 2**128)


@pytest.mark.parametrize("m", range(1, 65))
def test_proposal_mass_times_acceptance_is_binomial(m):
    # every proposal (g, s, u) of Binomial(2a, 1/2), 2a = m or m - 1, is read
    # off scripted words: g from a word of g trailing zeros, (u, s) from the
    # word 2u + s; D has mass 2**-(g + 1) / 2W, and its acceptance, probed at
    # the edge of the uniform, is t; mass times t is C(2a, a + D) / 4**a
    # up to a constant, so the normalised law is Binomial(2a, 1/2) exactly
    a = m // 2
    pmf = {0: Fraction(1)}
    if a:
        w = _width(a)
        assert w * (w - LN2_ABOVE) >= a * LN2_ABOVE  # so that t <= 1
        mass = Counter()
        for g in range(-(-(a + 1) // w) + 1):
            for s in (0, 1):
                for u in range(w):
                    assert ScriptedStream([1 << g, 2 * u + s])._propose(w) == (
                        g, -(g * w + u + 1) if s else g * w + u)
                    d = -(g * w + u + 1) if s else g * w + u
                    if abs(d) <= a:
                        t = target(a, abs(d), g)
                        assert t <= 1 and accepts_below(a, abs(d), g), (a, d, g)
                        mass[d] += Fraction(1, 2**(g + 1) * 2 * w) * t
        total = sum(mass.values())
        pmf = {a + d: p / total for d, p in mass.items()}
        assert pmf == {j: Fraction(math.comb(2 * a, j), 4**a) for j in range(2 * a + 1)}
    if m % 2:
        # the low bit of the first word is added to the draw for m - 1
        accepted = [1, 0, 2**64 - 1]  # g = 0, u = s = 0 (D = 0), U near 1
        draws = {ScriptedStream([bit, *accepted])._half_binomial(m) for bit in (2, 3)}
        assert draws == {a, a + 1}
        pmf = {j: (pmf.get(j, 0) + pmf.get(j - 1, 0)) / 2 for j in range(m + 1)}
    assert pmf == {j: Fraction(math.comb(m, j), 2**m) for j in range(m + 1)}


@pytest.mark.parametrize("a, d, g", [
    (1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 3, 1), (50, 25, 0), (50, 26, 3),
    (10**6, 0, 0), (10**6, 700, 0), (10**6, 1500, 1), (10**6, 6000, 3),
    (2.5e7, 5900, 1), (10**9, 26000, 0), (10**12, 2 * 10**6, 1), (10**18, 10**9, 1),
])
def test_log_bounds_hold_the_log_of_the_target(a, d, g):
    a = int(a)
    low, high = _log_bounds(a, d, g)
    with mpmath.workdps(60):
        exact = (g * mpmath.log(2) + 2 * mpmath.loggamma(a + 1)
                 - mpmath.loggamma(a + d + 1) - mpmath.loggamma(a - d + 1))
        assert low <= exact <= high, (low, exact, high)
    if 2 * d <= a and a >= 10**6:
        # narrow enough that the integer route runs about once in 1e9 proposals
        assert high - low <= 1e-9, high - low


@st.composite
def acceptances(draw):
    """(a, d, g) of a proposal that reaches the acceptance, with t <= 1."""
    a = draw(st.one_of(st.integers(1, 64), st.integers(1, 5000)))
    d = draw(st.integers(0, a))
    g = draw(st.integers(0, d // _width(a)))
    return a, d, g


@settings(max_examples=300, deadline=None)
@given(case=acceptances(), seed=st.integers(0, 2**64 - 1),
       first=st.one_of(st.none(), st.just("zero"), st.integers(-3, 3)))
def test_screened_acceptance_is_the_integer_acceptance(case, seed, first):
    # the first word is the seed's own, or 0, which leaves U's interval at
    # [0, 2**-64), or within 3 of t * 2**64, where the float screen cannot
    # decide and the integers must
    a, d, g = case
    words = []
    if first == "zero":
        words = [0]
    elif first is not None:
        edge = math.floor(target(a, d, g) * 2**64) + first
        words = [min(max(edge, 0), 2**64 - 1)]
    screened, exact = ScriptedStream(words, seed), ScriptedStream(words, seed)
    t = target(a, d, g)
    assert screened._accept(a, d, g) == uniform_below(exact, t.numerator, t.denominator)
    assert screened.next_uint64() == exact.next_uint64()  # the same words read


def test_an_undecided_screen_reads_on_in_integers():
    # U's first 64 bits are those of t: only later words can tell U from t
    a, d, g = 5000, 60, 0
    edge = math.floor(target(a, d, g) * 2**64)
    for tail, want in ((0, True), (2**64 - 1, False)):
        stream = ScriptedStream([edge, tail, 12345])
        assert stream._accept(a, d, g) is want
        assert stream.next_uint64() == 12345


@pytest.mark.parametrize("m", [5000, 5001])
def test_half_binomial_follows_the_exact_pmf(m):
    # chi-square of 20000 seeded draws against C(m, j) / 2**m, pooling the
    # tails below an expectation of 5; the seeds are fixed, so is the statistic
    runs = 20_000
    seeds = RandomStream(37)
    observed = Counter(RandomStream(seeds.next_uint64())._half_binomial(m)
                       for _ in range(runs))
    expected = [runs * Fraction(math.comb(m, j), 2**m) for j in range(m + 1)]
    lo = next(j for j in range(m + 1) if expected[j] >= 5)
    hi = m - lo
    bins = [(sum(expected[:lo]), sum(observed[j] for j in range(lo))),
            *((expected[j], observed[j]) for j in range(lo, hi + 1)),
            (sum(expected[hi + 1:]), sum(observed[j] for j in range(hi + 1, m + 1)))]
    chi2 = sum(float((o - e) ** 2 / e) for e, o in bins)
    dof = len(bins) - 1
    assert mpmath.gammainc(dof / 2, chi2 / 2, mpmath.inf, regularized=True) > 1e-3, chi2


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-53, 0.25, 0.5, 1.0 - 2.0**-53, 1.0])
def test_count_below_matches_block_twin(n, p):
    # at the boundary sizes, the count and the words it draws are those
    # of the all-integer walk on a twin stream of the same seed
    counted = RandomStream(31)
    got = counted.count_below(n, p)
    if p in (0.0, 1.0):
        assert (got, _words_drawn(counted, 31)) == (n * p, 0)
    want, twin = count_below_reference(31, n, p)
    assert got == want
    assert counted.next_uint64() == twin.next_uint64()


#: small trial counts, whose draws often take the integer route, and
#: counts of millions
TRIALS = st.one_of(
    st.integers(min_value=0, max_value=5 * 64),
    st.integers(min_value=64 * 65536 - 300, max_value=64 * 65536 + 300),
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), n=TRIALS,
       p=st.floats(min_value=0.0, max_value=1.0))
def test_count_below_property(seed, n, p):
    counted = RandomStream(seed)
    want, twin = count_below_reference(seed, n, p)
    assert counted.count_below(n, p) == want
    assert counted.next_uint64() == twin.next_uint64()


@pytest.mark.parametrize("n", [0, 1, 65535, 65536, 65537])
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
def test_count_below_draws_words_bounded_in_n(seed, p):
    # each bit of k costs one Binomial(m, 1/2) draw of O(1) expected words
    # whatever m is: about 2.7 proposals of about 3 words each; over 200
    # seeds at p = 0.6859 the largest total was 448 words at n = 1e9 and 569 at
    # n = 1e18, so 1200 leaves a factor of two, and the same bound holds for
    # every n up to the largest count, 2**64 - 1
    for n in (10**9, 10**18, 2**64 - 1):
        stream = RandomStream(seed)
        stream.count_below(n, p)
        assert _words_drawn(stream, seed) <= 1200, n
    # the seed's domain: a larger count would need proposals wider than a word
    with pytest.raises(ValueError, match=r"^count must be below 2\*\*64, got 18446744073709551616$"):
        RandomStream(seed).count_below(2**64, p)
    if p == 0.75:
        # k = 3 * 2**51 has two set bits: the walk stops after two draws
        stream = RandomStream(seed)
        stream.count_below(10**9, p)
        assert _words_drawn(stream, seed) <= 100


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


@pytest.mark.parametrize("n", [True, False, 1e6, 10.0, "10"])
def test_count_below_takes_only_int_counts(n):
    # True would otherwise count 1 trial, and 1e6 return a float count
    with pytest.raises(TypeError, match=f"^count must be an int, got {type(n).__name__}$"):
        RandomStream(0).count_below(n, 0.5)


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
