"""Entropy and mutual-information routes against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrwork.information import (
    LN2,
    binary_entropy,
    mutual_information,
    mutual_information_law,
    mutual_information_many,
)
from corrwork.laws import Angle, CorrelationLaw
from corrwork.rng import RandomStream

from oracles import (
    H2_QUARTER,
    I_AT_HALF_CORRELATION,
    h2_direct,
    joint_cells,
    law_probability,
    mutual_information_mp,
    quantum_information_mp,
    shannon_mutual_information,
)

#: relative error bound of I(E) against the mpmath oracle
I_REL_TOL = 1e-13
#: below the smallest normal float, I(E) is quantised to the subnormal spacing
I_ABS_FLOOR = 1e-322

#: the whole domain, with extra weight where the formulas are delicate:
#: tiny |E| (cancellation), |E| near 1/2 (mid-range) and near 3/4 (branch
#: switch), |E| near 1
CORRELATIONS = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1e-6, max_value=1e-6),
    st.floats(min_value=0.49, max_value=0.51),
    st.floats(min_value=0.74, max_value=0.76),
    st.floats(min_value=1.0 - 1e-6, max_value=1.0),
    st.floats(min_value=-1.0, max_value=-1.0 + 1e-6),
)

ALL_LAWS = [
    CorrelationLaw.classical(),
    CorrelationLaw.quantum(),
    CorrelationLaw.superquantum(),
]

#: the largest gap, in units in the last place, allowed between an array
#: kernel and its scalar twin (numpy's log1p may round differently)
TWIN_ULPS = 4

TABLE_LAWS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=math.pi),
              st.floats(min_value=-1.0, max_value=1.0)),
    min_size=1, max_size=12, unique_by=lambda knot: knot[0],
).map(lambda knots: CorrelationLaw.tabulated(sorted(knots)))
LAWS = st.one_of(st.sampled_from(ALL_LAWS), TABLE_LAWS)


def within_ulps(got, want, n=TWIN_ULPS):
    return abs(got - want) <= n * math.ulp(max(abs(got), abs(want)))


class TestBinaryEntropy:
    def test_degenerate_endpoints_exactly_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_quarter_matches_direct_evaluation(self):
        assert H2_QUARTER == h2_direct(0.25)
        assert binary_entropy(0.25) == pytest.approx(H2_QUARTER, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, -1e-12])
    def test_domain_error_outside_unit_interval(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)

    def test_symmetry_on_seeded_sample(self):
        # complements are informative for p well inside the interval; close
        # to the representation edge 1 - p rounds to 1 and the comparison
        # would measure the test's own rounding, not the function's
        stream = RandomStream(17)
        samples = [stream.next_uniform() for _ in range(100_000)]
        samples += [10.0 ** (-6.0 * stream.next_uniform()) for _ in range(1000)]
        samples += [k / 1024.0 for k in range(1025)]
        for p in samples:
            assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) < 1e-15

    @given(p=st.floats(min_value=1e-5, max_value=1.0 - 1e-5))
    def test_symmetry_property(self, p):
        assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) < 1e-15


class TestMutualInformation:
    def test_perfect_correlation_is_ln2(self):
        assert mutual_information(1.0) == pytest.approx(LN2, abs=1e-15)
        assert mutual_information(-1.0) == pytest.approx(LN2, abs=1e-15)

    def test_uncorrelated_is_zero(self):
        assert mutual_information(0.0) == 0.0

    def test_half_anticorrelated_matches_oracle(self):
        assert I_AT_HALF_CORRELATION == LN2 - h2_direct(0.25)
        assert mutual_information(-0.5) == pytest.approx(
            I_AT_HALF_CORRELATION, abs=1e-15
        )

    @given(e=st.floats(min_value=-1.0, max_value=1.0))
    def test_even_in_correlation(self, e):
        # one ulp from +-1 the map e -> (1+e)/2 saturates on one side only,
        # which costs a few 1e-15; elsewhere the two routes agree exactly
        assert mutual_information(e) == pytest.approx(
            mutual_information(-e), abs=1e-12
        )

    @given(e=st.floats(min_value=-1.0, max_value=1.0))
    def test_chain_identity(self, e):
        total = mutual_information(e) + binary_entropy((1.0 + e) / 2.0)
        assert total == pytest.approx(LN2, abs=1e-12)

    def test_monotone_in_correlation_magnitude(self):
        previous = mutual_information(0.0)
        for k in range(1, 2001):
            current = mutual_information(k / 2000.0)
            assert current > previous
            previous = current

    def test_shannon_four_cell_oracle(self):
        stream = RandomStream(23)
        for _ in range(100):
            e = 2.0 * stream.next_uniform() - 1.0
            cells = joint_cells(e)
            assert mutual_information(e) == pytest.approx(
                shannon_mutual_information(cells), abs=1e-12
            )


class TestMutualInformationAccuracy:
    @settings(max_examples=500)
    @given(e=CORRELATIONS)
    def test_relative_error_against_mpmath(self, e):
        want = mutual_information_mp(e)
        got = mutual_information(e)
        assert got >= 0.0
        assert abs(got - want) <= I_REL_TOL * want + I_ABS_FLOOR, (e, got, want)

    def test_exact_values(self):
        assert mutual_information(0.0) == 0.0
        assert mutual_information(-0.0) == 0.0
        assert mutual_information(1.0) == LN2
        assert mutual_information(-1.0) == LN2

    def test_tiny_correlation_is_not_cancelled(self):
        assert mutual_information(1e-8) == pytest.approx(5e-17, rel=1e-13)
        for k in range(-2000, 2001):
            e = k * 5e-10
            assert mutual_information(e) >= 0.0
            assert mutual_information(e) == pytest.approx(
                mutual_information_mp(e), rel=I_REL_TOL, abs=I_ABS_FLOOR
            )

    @pytest.mark.parametrize("law", ALL_LAWS[:2], ids=lambda law: law.name)
    def test_closed_forms_non_negative_near_half_pi(self, law):
        for k in range(-10_000, 10_001):
            theta = math.pi / 2.0 + k * 1e-10
            assert mutual_information_law(law, theta) >= 0.0, theta

    def test_quantum_law_near_half_pi_against_mpmath(self):
        # I ~ E^2/2 here, so an error of a few ulp in a cancelling E would
        # show as a relative error of I many orders above I_REL_TOL
        offsets = np.geomspace(1e-12, 1e-1, 400)
        thetas = np.concatenate(([math.pi / 2.0], math.pi / 2.0 - offsets,
                                 math.pi / 2.0 + offsets))
        quantum = CorrelationLaw.quantum()
        for theta in thetas.tolist():
            want = quantum_information_mp(theta)
            got = mutual_information_law(quantum, theta)
            assert abs(got - want) <= I_REL_TOL * want, (theta, got, want)

    @given(e=st.floats(min_value=-2.0, max_value=2.0).filter(lambda e: abs(e) > 1.0))
    def test_domain_error_outside_unit_interval(self, e):
        with pytest.raises(ValueError):
            mutual_information(e)


class TestClosedForms:
    def test_classical_quarter_pi(self):
        value = mutual_information_law(CorrelationLaw.classical(), Angle(math.pi / 4.0))
        assert value == pytest.approx(LN2 - h2_direct(0.25), abs=1e-15)

    def test_quantum_half_pi_is_zero(self):
        value = mutual_information_law(CorrelationLaw.quantum(), Angle(math.pi / 2.0))
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_superquantum_quarter_pi_is_ln2(self):
        value = mutual_information_law(
            CorrelationLaw.superquantum(), Angle(math.pi / 4.0)
        )
        assert value == LN2

    def test_superquantum_half_pi_is_zero(self):
        value = mutual_information_law(
            CorrelationLaw.superquantum(), Angle(math.pi / 2.0)
        )
        assert value == 0.0

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.name)
    def test_closed_form_agrees_with_generic_route(self, law):
        # the paper's I = ln 2 - h2(p(theta)) is the oracle here
        worst = 0.0
        for i in range(10_000):
            theta = Angle(math.pi * i / 9999)
            closed = LN2 - h2_direct(law_probability(law.name, theta.radians))
            worst = max(worst, abs(mutual_information_law(law, theta) - closed))
        assert worst < 1e-12

    @given(law=LAWS, theta=st.floats(min_value=-20.0, max_value=20.0))
    def test_one_route_for_every_law(self, law, theta):
        assert mutual_information_law(law, theta) == mutual_information(law.evaluate(theta))

    def test_tabulated_uses_generic_route(self):
        law = CorrelationLaw.tabulated([(0.0, -1.0), (math.pi, 1.0)])
        theta = Angle(1.0)
        assert mutual_information_law(law, theta) == pytest.approx(
            mutual_information(law.evaluate(theta)), abs=1e-15
        )


class TestArrayKernels:
    @settings(max_examples=200)
    @given(es=st.lists(st.one_of(CORRELATIONS, st.floats(-1e-15, 1e-15)),
                       min_size=1, max_size=40))
    def test_relative_error_against_mpmath(self, es):
        got = mutual_information_many(np.array(es))
        assert got.shape == (len(es),)
        for e, value in zip(es, got.tolist()):
            want = mutual_information_mp(e)
            assert value >= 0.0
            assert abs(value - want) <= I_REL_TOL * want + I_ABS_FLOOR, (e, value, want)

    def test_exact_values(self):
        got = mutual_information_many(np.array([0.0, -0.0, 1.0, -1.0]))
        assert got.tolist() == [0.0, 0.0, LN2, LN2]

    @pytest.mark.parametrize("bad", [1.5, -1.0000000000000002, math.nan, math.inf])
    def test_domain_error_outside_unit_interval(self, bad):
        with pytest.raises(ValueError):
            mutual_information_many(np.array([0.5, bad]))

    @settings(max_examples=200)
    @given(es=st.lists(CORRELATIONS, min_size=1, max_size=40))
    def test_agrees_with_scalar_twin(self, es):
        for e, value in zip(es, mutual_information_many(np.array(es)).tolist()):
            assert within_ulps(value, mutual_information(e)), e
