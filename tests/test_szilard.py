"""Engine closed forms, the optimum, and Monte Carlo consistency."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from corrwork.information import LN2, binary_entropy, mutual_information
from corrwork.rng import RandomStream
from corrwork.szilard import (
    CycleResult,
    EngineConfig,
    expected_work,
    optimal_partition,
    simulate,
)

from oracles import (
    bit_information_mp,
    count_below_reference,
    golden_section_max,
    h2_direct,
)


class TestExpectedWork:
    def test_perfect_bit_near_full_expansion(self):
        assert expected_work(0.0, 1.0 - 1e-12) == pytest.approx(LN2, abs=1e-11)

    def test_no_information_symmetric_partition(self):
        assert expected_work(0.5, 0.5) == 0.0

    def test_quarter_error_at_its_optimum(self):
        # direct arithmetic: (3/4) ln(3/2) + (1/4) ln(1/2)
        direct = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert direct == pytest.approx(0.13081203594113697, abs=1e-16)
        assert expected_work(0.25, 0.75) == pytest.approx(direct, abs=1e-15)

    def test_perfect_bit_at_full_expansion(self):
        # (1 - 0) ln 2 + 0 ln 0, with the 0 ln 0 = 0 convention of binary_entropy
        assert expected_work(0.0, 1.0) == expected_work(-0.0, 1.0) == LN2

    @pytest.mark.parametrize("eps", [5e-324, 1e-17])
    def test_full_expansion_needs_a_perfect_bit(self, eps):
        with pytest.raises(ValueError, match="outside"):
            expected_work(eps, 1.0)

    @pytest.mark.parametrize("bad_x", [0.0, 1.0, -0.5, 1.5])
    def test_partition_domain_error(self, bad_x):
        with pytest.raises(ValueError):
            expected_work(0.25, bad_x)

    @pytest.mark.parametrize("bad_eps", [-0.1, 0.6])
    def test_epsilon_domain_error(self, bad_eps):
        with pytest.raises(ValueError):
            expected_work(bad_eps, 0.5)

    def test_concave_in_partition_fraction(self):
        for eps in (0.05, 0.2, 0.35, 0.5):
            values = [expected_work(eps, (j + 1) / 101.0) for j in range(100)]
            for a, b, c in zip(values, values[1:], values[2:]):
                assert a - 2.0 * b + c <= 1e-12

    def test_never_beats_the_information_bound(self):
        worst = -math.inf
        for i in range(50):
            eps = 0.5 * i / 49.0
            bound = LN2 - binary_entropy(eps)
            for j in range(50):
                x = (j + 1) / 51.0
                worst = max(worst, expected_work(eps, x) - bound)
        assert worst <= 1e-12


class TestOptimalPartition:
    def test_quarter_error_against_golden_section(self):
        opt = optimal_partition(0.25)
        golden_x = golden_section_max(
            lambda x: expected_work(0.25, x), 1e-9, 1.0 - 1e-9
        )
        assert opt.x_opt == 0.75
        assert golden_x == pytest.approx(0.75, abs=1e-7)
        assert opt.w_opt_kT == pytest.approx(LN2 - h2_direct(0.25), abs=1e-15)
        assert not opt.boundary

    def test_half_error_is_worthless(self):
        opt = optimal_partition(0.5)
        assert opt.x_opt == 0.5
        assert opt.w_opt_kT == pytest.approx(0.0, abs=1e-15)

    def test_zero_error_is_boundary_ln2(self):
        opt = optimal_partition(0.0)
        assert opt.boundary
        assert opt.x_opt == 1.0
        assert opt.w_opt_kT == LN2

    @pytest.mark.parametrize("eps", [1e-17, 5e-324])
    def test_error_below_resolution_is_boundary(self, eps):
        opt = optimal_partition(eps)
        assert opt.boundary
        assert opt.x_opt == 1.0
        want = bit_information_mp(eps)
        assert abs(opt.w_opt_kT - want) <= 1e-14 * want

    def test_smallest_interior_error(self):
        opt = optimal_partition(1e-16)
        assert not opt.boundary
        assert opt.x_opt == 1.0 - 1e-16 < 1.0

    def test_saturates_the_correlation_bound(self):
        for k in range(1, 11):
            eps = 0.05 * k
            opt = optimal_partition(eps)
            e = 1.0 - 2.0 * eps
            assert abs(opt.w_opt_kT - mutual_information(e)) < 1e-12

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            optimal_partition(0.7)


#: error probabilities over (0, 1/2], dense where ln 2 - h2(eps) is delicate:
#: tiny eps (the boundary optimum) and eps near 1/2 (cancellation)
ERRORS = st.one_of(
    st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    st.floats(min_value=5e-324, max_value=1e-12),
    st.floats(min_value=0.5 - 1e-6, max_value=0.5),
)


class TestWorkBound:
    @settings(max_examples=500)
    @given(eps=ERRORS)
    def test_bound_is_information_of_the_bit_against_mpmath(self, eps):
        # I(1 - 2 eps) is how szilard reports bound_kT and the boundary optimum
        want = bit_information_mp(eps)
        got = mutual_information(1.0 - 2.0 * eps)
        assert got >= 0.0
        assert abs(got - want) <= 1e-14 * want, (eps, got, want)

    @settings(max_examples=500)
    @given(eps=ERRORS)
    def test_optimum_is_the_information_of_the_bit(self, eps):
        # W(eps, 1 - eps) cancels near eps = 1/2 and could read above the bound
        assert optimal_partition(eps).w_opt_kT == mutual_information(1.0 - 2.0 * eps)


class TestSimulate:
    def test_zero_variance_when_bit_is_perfect(self):
        config = EngineConfig(error_prob=0.0, partition_fraction=1.0 - 1e-12,
                              trials=1000, seed=2)
        result = simulate(config)
        assert result.std_error == 0.0
        assert result.mean_work_kT == expected_work(0.0, 1.0 - 1e-12)
        assert result.mean_work_kT == pytest.approx(LN2, abs=1e-11)

    def test_seeded_run_hits_closed_form(self):
        config = EngineConfig(error_prob=0.25, partition_fraction=0.75,
                              trials=10**6, seed=7)
        result = simulate(config)
        gap = abs(result.mean_work_kT - expected_work(0.25, 0.75))
        assert gap <= 3.0 * result.std_error

    def test_symmetric_partition_wastes_the_bit(self):
        config = EngineConfig(error_prob=0.25, partition_fraction=0.5,
                              trials=10**6, seed=8)
        result = simulate(config)
        assert abs(result.mean_work_kT - 0.0) <= 3.0 * result.std_error
        shortfall = optimal_partition(0.25).w_opt_kT - result.mean_work_kT
        assert shortfall == pytest.approx(0.1308, abs=2e-3)

    def test_ten_random_configurations_within_four_errors(self):
        stream = RandomStream(61)
        for k in range(10):
            eps = 0.05 + 0.4 * stream.next_uniform()
            x = 0.1 + 0.8 * stream.next_uniform()
            seed = stream.next_uint64()
            result = simulate(
                EngineConfig(error_prob=eps, partition_fraction=x,
                             trials=10**6, seed=seed)
            )
            gap = abs(result.mean_work_kT - expected_work(eps, x))
            assert gap <= 4.0 * result.std_error, (eps, x, seed, gap)

    def test_deterministic_for_fixed_seed(self):
        config = EngineConfig(error_prob=0.3, partition_fraction=0.6,
                              trials=10_000, seed=99)
        assert simulate(config) == simulate(config)

    def test_mean_respects_bound_within_noise(self):
        config = EngineConfig(error_prob=0.1, partition_fraction=0.9,
                              trials=10**5, seed=13)
        result = simulate(config)
        bound = LN2 - binary_entropy(0.1)
        assert result.mean_work_kT <= bound + 3.0 * result.std_error

    def test_std_error_definition(self):
        config = EngineConfig(error_prob=0.25, partition_fraction=0.75,
                              trials=10_000, seed=5)
        result = simulate(config)
        # recompute from the branch counts implied by the mean
        w_c = math.log(1.5)
        w_w = math.log(0.5)
        n = result.n
        k = round((result.mean_work_kT * n - n * w_w) / (w_c - w_w))
        assert result.correct == k == count_below_reference(5, n, 0.75)[0]
        mean = (k * w_c + (n - k) * w_w) / n
        ss = k * (w_c - mean) ** 2 + (n - k) * (w_w - mean) ** 2
        expected_se = math.sqrt(ss / (n - 1)) / math.sqrt(n)
        assert result.std_error == pytest.approx(expected_se, rel=1e-12)

    @pytest.mark.parametrize("eps, x, n, seed, mean, std_error", [
        (0.25, 0.75, 10**6, 7, 0.13041763412950508, 0.00047594080352254353),
        (0.1, 0.9, 2**20 + 1, 13, 0.36819978179024987, 0.0006435415706050674),
        (0.5, 0.6, 3 * 2**16 + 5, 2**64 - 1, -0.021100819798119348,
         0.00045721025948788696),
    ])
    def test_golden_values(self, eps, x, n, seed, mean, std_error):
        # pinned from count_below_reference's count of correct trials and the
        # mean and standard error of its two branches, so a kernel that
        # reorders or drops draws fails here, not just on reruns
        result = simulate(EngineConfig(error_prob=eps, partition_fraction=x,
                                       trials=n, seed=seed))
        assert (result.mean_work_kT, result.std_error) == (mean, std_error)

    def test_memory_is_flat_in_trials(self):
        def peak(trials):
            config = EngineConfig(error_prob=0.25, partition_fraction=0.75,
                                  trials=trials, seed=3)
            tracemalloc.start()
            try:
                simulate(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # numpy is imported outside the measured runs
        # from 64 * 2**16 trials on, the first bit's words fill whole blocks
        small, large = peak(10**7), peak(10**9)
        assert large < 2 * 2**20
        assert large <= small + 4096, (small, large)

    def test_single_trial(self):
        result = simulate(EngineConfig(error_prob=0.25, partition_fraction=0.75,
                                       trials=1, seed=0))
        assert isinstance(result, CycleResult)
        assert result.std_error == 0.0
        assert result.n == 1


class TestEngineConfig:
    @pytest.mark.parametrize("eps", [0.0, 5e-324, 1e-17, 2**-54])
    def test_boundary_partition_where_one_minus_eps_rounds_to_one(self, eps):
        # the wrong branch, to which x = 1 leaves no volume, is never drawn
        config = EngineConfig(error_prob=eps, partition_fraction=1.0, trials=1000,
                              seed=4)
        assert simulate(config) == (LN2, 0.0, 1000, 1000)

    @pytest.mark.parametrize("eps", [2**-53, 1e-3, 0.25])
    def test_boundary_partition_rejected_where_a_trial_can_be_wrong(self, eps):
        with pytest.raises(ValueError, match=r"^partition_fraction 1\.0 outside"):
            EngineConfig(error_prob=eps, partition_fraction=1.0, trials=1000, seed=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_prob": -0.1},
            {"error_prob": 0.6},
            {"partition_fraction": 0.0},
            {"partition_fraction": 1.0},
            {"trials": 0},
        ],
    )
    def test_validation(self, kwargs):
        base = {"error_prob": 0.25, "partition_fraction": 0.75, "trials": 10,
                "seed": 0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            EngineConfig(**base)
