"""CHSH values, the local-realist ceiling, and the operator bound."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from corrwork import nonlocality
from corrwork.laws import Angle, CorrelationLaw
from corrwork.nonlocality import (
    GRID_STEP,
    TSIRELSON_BOUND,
    ChshSettings,
    _grid_argmax,
    chsh_operator,
    chsh_operator_norm,
    chsh_value,
    lhv_deterministic_max,
    maximize_chsh,
)
from corrwork.rng import RandomStream


def random_settings(stream, scale=2.0 * math.pi):
    return ChshSettings(*(stream.next_uniform() * scale for _ in range(4)))


class TestChshValue:
    def test_classical_standard(self):
        value = chsh_value(CorrelationLaw.classical(), ChshSettings.standard())
        assert value == 2.0

    def test_quantum_standard(self):
        value = chsh_value(CorrelationLaw.quantum(), ChshSettings.standard())
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_superquantum_standard(self):
        value = chsh_value(CorrelationLaw.superquantum(), ChshSettings.standard())
        assert value == 4.0

    def test_non_finite_settings_rejected(self):
        with pytest.raises(ValueError):
            ChshSettings(0.0, math.nan, 0.0, 0.0)

    def test_value_stays_in_algebraic_range(self):
        stream = RandomStream(29)
        laws = [CorrelationLaw.classical(), CorrelationLaw.quantum(),
                CorrelationLaw.superquantum()]
        for _ in range(200):
            s = random_settings(stream)
            for law in laws:
                value = chsh_value(law, s)
                assert 0.0 <= value <= 4.0 + 1e-12


class TestLhvCeiling:
    def test_standard_angles(self):
        assert lhv_deterministic_max(ChshSettings.standard()) == 2.0

    def test_degenerate_angles(self):
        assert lhv_deterministic_max(ChshSettings(0.0, 0.0, 0.0, 0.0)) == 2.0

    def test_hundred_random_settings(self):
        stream = RandomStream(31)
        for _ in range(100):
            assert lhv_deterministic_max(random_settings(stream)) == 2.0


class TestOperatorBound:
    def test_standard_angles_reach_the_bound(self):
        norm = chsh_operator_norm(ChshSettings.standard())
        assert norm == pytest.approx(TSIRELSON_BOUND, abs=1e-9)

    def test_collapsed_angles_give_two(self):
        assert chsh_operator_norm(ChshSettings(0.0, 0.0, 0.0, 0.0)) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_operator_is_symmetric(self):
        b = chsh_operator(ChshSettings.standard())
        for i in range(4):
            for j in range(4):
                assert b[i][j] == pytest.approx(b[j][i], abs=1e-15)

    def test_thousand_random_settings_never_exceed(self):
        stream = RandomStream(37)
        for _ in range(1000):
            norm = chsh_operator_norm(random_settings(stream))
            assert norm <= TSIRELSON_BOUND + 1e-9

    def test_closed_form_of_the_squared_norm(self):
        # ||B||^2 = 4 + 4 |sin(a - a') sin(b - b')| for planar observables
        stream = RandomStream(41)
        for _ in range(200):
            s = random_settings(stream)
            expected = math.sqrt(
                4.0
                + 4.0
                * abs(
                    math.sin(s.phi_a - s.phi_a_prime)
                    * math.sin(s.phi_b - s.phi_b_prime)
                )
            )
            assert chsh_operator_norm(s) == pytest.approx(expected, abs=1e-9)

    def test_singlet_value_never_exceeds_norm(self):
        quantum = CorrelationLaw.quantum()
        stream = RandomStream(43)
        for _ in range(300):
            s = random_settings(stream)
            assert chsh_value(quantum, s) <= chsh_operator_norm(s) + 1e-9


class TestMaximize:
    def test_classical_reaches_local_bound(self):
        settings, value = maximize_chsh(CorrelationLaw.classical())
        assert value == pytest.approx(2.0, abs=1e-6)
        assert value >= chsh_value(CorrelationLaw.classical(), ChshSettings.standard()) - 1e-12

    def test_quantum_reaches_tsirelson(self):
        settings, value = maximize_chsh(CorrelationLaw.quantum())
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-6)
        assert chsh_value(CorrelationLaw.quantum(), settings) == value
        assert value >= chsh_value(CorrelationLaw.quantum(), ChshSettings.standard())

    def test_superquantum_reaches_algebraic_maximum(self):
        _, value = maximize_chsh(CorrelationLaw.superquantum())
        assert value == 4.0
        assert value >= chsh_value(
            CorrelationLaw.superquantum(), ChshSettings.standard()
        )

    def test_value_invariant_under_global_rotation(self):
        law = CorrelationLaw.quantum()
        settings, value = maximize_chsh(law)
        stream = RandomStream(47)
        for _ in range(10):
            offset = (2.0 * stream.next_uniform() - 1.0) * 2.0 * math.pi
            rotated = ChshSettings(
                settings.phi_a + offset,
                settings.phi_a_prime + offset,
                settings.phi_b + offset,
                settings.phi_b_prime + offset,
            )
            assert chsh_value(law, rotated) == pytest.approx(value, abs=1e-6)

    def test_deterministic_result(self):
        first = maximize_chsh(CorrelationLaw.quantum())
        second = maximize_chsh(CorrelationLaw.quantum())
        assert first == second


def grid_argmax_reference(m):
    """The n^4 scan: the first (a, a', b, b') in lexicographic order that maximizes
    |(m[a,b] + m[a',b]) + (m[a,b'] - m[a',b'])|, one (a', b, b') cube per a."""
    m = np.asarray(m)
    best, best_index = -1.0, None
    for a in range(len(m)):
        cube = np.abs((m[a] + m)[:, :, None] + (m[a] - m)[:, None, :])
        flat = int(np.argmax(cube))
        if cube.flat[flat] > best:
            best = cube.flat[flat]
            best_index = (a, *(int(i) for i in np.unravel_index(flat, cube.shape)))
    return best_index


def law_grid(law):
    grid = [i * GRID_STEP for i in range(72)]
    return np.array([[law.evaluate(Angle(u - v)) for v in grid] for u in grid])


def seeded_table(seed, knots=33):
    """A jagged table law: knots at even angles, correlations uniform in [-1, 1)."""
    stream = RandomStream(seed)
    return CorrelationLaw.tabulated(
        [(math.pi * k / (knots - 1), 2.0 * stream.next_uniform() - 1.0)
         for k in range(knots)]
    )


def smooth_table(seed, knots=1000):
    """A noisy, damped singlet curve on jittered knots spanning [0, pi], shaped
    like the tables of the reports-short benchmark workload."""
    rng = random.Random(seed)
    step = math.pi / (knots - 1)
    thetas = [0.0, *(k * step + rng.uniform(-0.3, 0.3) * step for k in range(1, knots - 1)),
              math.pi]
    amp = rng.uniform(0.8, 1.0)
    return CorrelationLaw.tabulated(
        [(t, min(1.0, max(-1.0, -amp * math.cos(t) + rng.gauss(0.0, 0.02)))) for t in thetas])


def square(elements, max_n=9):
    return st.integers(1, max_n).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=elements))


def circulant(base, moves=()):
    """The matrix m[i][j] = base[j - i] (indices mod n), with (i, j, step) moves."""
    n = len(base)
    m = [[base[(j - i) % n] for j in range(n)] for i in range(n)]
    for i, j, step in moves:
        m[i][j] += step
    return m


@st.composite
def near_circulant(draw, elements, max_n=7):
    """A circulant matrix, the shape of a law grid, with entries nudged by one
    ulp, one row's entries moved by a small step, and a few replaced."""
    n = draw(st.integers(1, max_n))
    m = circulant(draw(st.lists(elements, min_size=n, max_size=n)))
    cols = st.integers(0, n - 1)
    signs = st.sampled_from([-1.0, 1.0])
    for i, j, sign in draw(st.lists(st.tuples(cols, cols, signs), max_size=n * n)):
        m[i][j] = math.nextafter(m[i][j], sign * math.inf)
    row, step = draw(cols), draw(st.sampled_from([2.0**-40, 1e-3, 0.1]))
    for j, sign in draw(st.lists(st.tuples(cols, signs), max_size=3)):
        m[row][j] += sign * step
    for i, j, x in draw(st.lists(st.tuples(cols, cols, elements), max_size=2)):
        m[i][j] = x
    return m


#: matrices whose maximal pair the prune would skip if it halved or dropped
#: one term of its bound: 2 delta_a, 2 delta_a', 2 delta_d or the slack
BOUND_WITNESSES = {
    "delta-a": circulant([0.836, 0.937, 0.519, -0.487, -0.59, 0.279],
                         [(1, 0, 0.1), (1, 1, 0.1), (1, 3, 0.1)]),
    "delta-a-prime": circulant([0.0, -1.0, 0.0, -1.0], [(3, 0, -0.25), (3, 2, 0.25)]),
    "delta-d": circulant([0.0, -1.0, 1.0, 1.0], [(1, 0, -0.25), (1, 2, 0.25)]),
    "slack": [
        [-0.25634098622090945, -0.24267387228920412, 0.7686579199379159,
         0.22177116000540245],
        [0.22177116000540242, -0.2563409862209095, -0.24267387228920412,
         0.7686579199379158],
        [0.7686579199379159, 0.22177116000540242, -0.2563409862209094,
         -0.24267387228920415],
        [-0.24267387228920415, 0.7686579199379159, 0.22177116000540242,
         -0.2563409862209094],
    ],
}


NAMED_LAWS = [CorrelationLaw.classical(), CorrelationLaw.quantum(),
              CorrelationLaw.superquantum()]


class TestGridArgmax:
    @pytest.mark.parametrize("law", NAMED_LAWS + [seeded_table(3)], ids=lambda l: l.name)
    def test_law_grids_match_the_quartic_scan(self, law):
        m = law_grid(law)
        assert _grid_argmax(m) == grid_argmax_reference(m)

    @pytest.mark.parametrize(
        "law",
        [smooth_table(seed) for seed in (1, 2, 3)]
        + [seeded_table(5), seeded_table(8, knots=9),
           CorrelationLaw.tabulated([(1.0, 0.25)])],
        ids=["smooth-1", "smooth-2", "smooth-3", "jagged-5", "jagged-8-9", "one-knot"])
    def test_table_grids_match_the_quartic_scan(self, law):
        m = law_grid(law).tolist()
        assert _grid_argmax(m) == grid_argmax_reference(m)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=st.one_of(near_circulant(st.floats(-1.0, 1.0)),
                       near_circulant(st.sampled_from([-1.0, 0.0, 1.0]))))
    def test_near_circulant_matrices_match_the_quartic_scan(self, m):
        assert _grid_argmax(m) == grid_argmax_reference(m)

    @pytest.mark.parametrize("name", sorted(BOUND_WITNESSES))
    def test_every_term_of_the_bound_is_needed(self, name):
        m = BOUND_WITNESSES[name]
        assert _grid_argmax(m) == grid_argmax_reference(m)

    def test_prune_skips_most_pairs_of_the_quantum_grid(self, monkeypatch):
        # each scanned pair forms u with one map(add, ...) over n columns, and
        # the (b, b') pass one more: counting add counts the scanned pairs
        calls = 0

        def counting_add(x, y):
            nonlocal calls
            calls += 1
            return x + y

        m = law_grid(CorrelationLaw.quantum()).tolist()
        monkeypatch.setattr(nonlocality, "add", counting_add)
        assert _grid_argmax(m) == grid_argmax_reference(m)
        assert calls % 72 == 0
        assert calls // 72 - 1 < 300  # of the 72 * 73 / 2 = 2628 pairs a <= a'

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=square(st.floats(-1.0, 1.0)))
    def test_float_matrices_match_the_quartic_scan(self, m):
        assert _grid_argmax(m) == grid_argmax_reference(m)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=square(st.sampled_from([-1.0, 0.0, 1.0])))
    def test_tie_heavy_matrices_keep_the_first_maximum(self, m):
        assert _grid_argmax(m) == grid_argmax_reference(m)

    @pytest.mark.parametrize("value", [0.0, 0.5, -1.0])
    def test_constant_grid_picks_the_first_tuple(self, value):
        m = np.full((72, 72), value)
        assert _grid_argmax(m) == grid_argmax_reference(m) == (0, 0, 0, 0)

    def test_large_sign_matrix(self):
        m = np.sign(np.sin(np.arange(72.0 * 72.0))).reshape(72, 72)
        assert _grid_argmax(m) == grid_argmax_reference(m)


#: maximize_chsh results computed with the n^4 grid scan, compared with ==
GOLDEN = {
    "classical": (CorrelationLaw.classical(), 2.000000000000001,
                  (0.0, 0.17453292519943295, 3.141592653589793, 0.6108652381980153)),
    "quantum": (CorrelationLaw.quantum(), 2.8284271247461907,
                (0.3490658503988659, 1.9198621771937625, 1.1344640137963142,
                 5.8468529941810035)),
    "superquantum": (CorrelationLaw.superquantum(), 4.0,
                     (0.0, 0.17453292519943295, 0.0, 4.799655442984406)),
    "table-3": (seeded_table(3), 3.005111670899704,
                (0.4363323129985824, 2.498002491916884, 5.050546522958591,
                 0.4363323129985824)),
    "table-8": (seeded_table(8), 3.815134453000244,
                (0.0, 0.7853981633974483, 1.5707963267948966, 4.71238898038469)),
    "smooth-5": (smooth_table(5), 2.862216587119082,
                 (0.7013894126011712, 2.262951228316218, 4.623762974048488,
                  3.0389615824235685)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_maximize_matches_golden_results(name):
    law, value, angles = GOLDEN[name]
    assert maximize_chsh(law) == (ChshSettings(*angles), value)


@pytest.mark.parametrize("cap", [3, 10])
def test_refinement_stops_at_the_probe_cap(monkeypatch, cap):
    calls = 0

    def counting_chsh_value(law, settings):
        nonlocal calls
        calls += 1
        return chsh_value(law, settings)

    monkeypatch.setattr(nonlocality, "REFINE_MAX_EVALS", cap)
    monkeypatch.setattr(nonlocality, "chsh_value", counting_chsh_value)
    law = CorrelationLaw.quantum()
    angles, value = maximize_chsh(law)
    # one evaluation of the grid optimum, then exactly cap probes
    assert calls == 1 + cap
    assert chsh_value(law, angles) == value
