"""CHSH values, the local-realist ceiling, and the operator bound."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corrwork import nonlocality
from corrwork.energetics import energetic_chsh
from corrwork.laws import Angle, CorrelationLaw
from corrwork.nonlocality import (
    GRID_STEP,
    TSIRELSON_BOUND,
    ChshSettings,
    _grid_argmax,
    chsh_operator_norm,
    chsh_value,
    lhv_deterministic_max,
    maximize_chsh,
)
from corrwork.rng import RandomStream
from oracles import (
    chsh_operator_reference,
    compass_refine_reference,
    eig_norm,
    law_formula,
    relative_angle,
)


def random_settings(stream, scale=2.0 * math.pi):
    return ChshSettings(*(stream.next_uniform() * scale for _ in range(4)))


EDGE_ANGLES = (0.0, -0.0, math.pi / 4.0, math.pi / 2.0, math.pi, 1.5 * math.pi,
               2.0 * math.pi, 1e-300)


def with_edge_examples(test):
    """Run a property on every 4-tuple of EDGE_ANGLES before its draws."""
    for angles in itertools.product(EDGE_ANGLES, repeat=4):
        test = example(angles=angles)(test)
    return test


#: angles whose differences overflow, besides ordinary and arbitrary finite ones
SETTING_ANGLES = st.sampled_from((1e308, -1e308)) | st.floats(-10.0, 10.0) | st.floats()


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

    @pytest.mark.parametrize("first, second", [
        ("phi_a", "phi_b"), ("phi_a", "phi_b_prime"),
        ("phi_a_prime", "phi_b"), ("phi_a_prime", "phi_b_prime"),
    ])
    def test_settings_whose_difference_overflows_rejected(self, first, second):
        angles = dict.fromkeys(ChshSettings.__slots__, 0.0)
        angles[first], angles[second] = 1e308, -1e308
        with pytest.raises(ValueError, match=f"^{first} - {second} must be finite"):
            ChshSettings(**angles)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(angles=st.tuples(*[SETTING_ANGLES] * 4),
           name=st.sampled_from(("classical", "quantum", "superquantum")))
    def test_every_constructed_settings_can_be_evaluated(self, angles, name):
        a, ap, b, bp = angles
        try:
            s = ChshSettings(*angles)
        except ValueError as exc:
            assert "finite" in str(exc)
            assert not all(map(math.isfinite, (a - b, a - bp, ap - b, ap - bp)))
            return
        law = CorrelationLaw.from_name(name)
        assert 0.0 <= chsh_value(law, s) <= 4.0
        assert math.isfinite(energetic_chsh(law, s))
        assert chsh_operator_norm(s) <= TSIRELSON_BOUND + 1e-9
        assert lhv_deterministic_max(s) == 2.0

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

    @with_edge_examples
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(angles=st.tuples(*[st.floats(-50.0, 50.0)] * 4))
    def test_norm_matches_the_kronecker_reference_and_landau(self, angles):
        # the Bell blocks, numpy's eigvalsh and Landau's form each round
        # differently, so they agree to within rounding, not bit for bit
        a, ap, b, bp = angles
        s = ChshSettings(*angles)
        landau = 2.0 * math.sqrt(1.0 + abs(math.sin(a - ap) * math.sin(b - bp)))
        norm = chsh_operator_norm(s)
        assert norm == pytest.approx(eig_norm(chsh_operator_reference(s)),
                                     rel=1e-14, abs=0.0)
        assert norm == pytest.approx(landau, rel=1e-14, abs=0.0)

    @example(angles=(0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0))
    @example(angles=(0.0, 0.0, 0.0, 0.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(angles=st.tuples(*[st.floats(-50.0, 50.0)] * 4))
    def test_norm_is_the_hypot_form_bit_for_bit(self, angles):
        # alpha ZZ + beta ZX + gamma XZ + delta XX from the four observables;
        # the two Bell blocks are traceless, so each norm is one hypot
        ca, cap, cb, cbp = map(math.cos, angles)
        sa, sap, sb, sbp = map(math.sin, angles)
        alpha = ca * (cb + cbp) + cap * (cb - cbp)
        beta = ca * (sb + sbp) + cap * (sb - sbp)
        gamma = sa * (cb + cbp) + sap * (cb - cbp)
        delta = sa * (sb + sbp) + sap * (sb - sbp)
        assert chsh_operator_norm(ChshSettings(*angles)) == max(
            math.hypot(alpha - delta, beta + gamma), math.hypot(alpha + delta, beta - gamma))

    def test_thousand_random_settings_never_exceed(self):
        stream = RandomStream(37)
        for _ in range(1000):
            norm = chsh_operator_norm(random_settings(stream))
            assert norm <= TSIRELSON_BOUND + 1e-9

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

    def test_quantum_lands_exactly_on_tsirelson(self):
        assert maximize_chsh(CorrelationLaw.quantum())[1] == TSIRELSON_BOUND

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


def circulant(base):
    """The matrix m[i][j] = base[j - i] (indices mod n)."""
    n = len(base)
    return [[base[(j - i) % n] for j in range(n)] for i in range(n)]


def law_grid(law):
    """maximize_chsh's exactly circulant grid: cell (u, v) holds E at offset u - v."""
    grid = [i * GRID_STEP for i in range(72)]
    return circulant([law.evaluate(Angle(grid[-k % 72])) for k in range(72)])


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


def circulants(elements, max_n=9):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n)).map(circulant)


NAMED_LAWS = [CorrelationLaw.classical(), CorrelationLaw.quantum(),
              CorrelationLaw.superquantum()]


class TestGridArgmax:
    @pytest.mark.parametrize("law", NAMED_LAWS + [seeded_table(3)], ids=lambda l: l.name)
    def test_law_grids_match_the_quartic_scan(self, law):
        m = law_grid(law)
        assert _grid_argmax(m) == grid_argmax_reference(m)

    @pytest.mark.parametrize(
        "law",
        [smooth_table(seed) for seed in range(1, 41)]
        + [seeded_table(5), seeded_table(8, knots=9), seeded_table(13, knots=4),
           CorrelationLaw.tabulated([(1.0, 0.25)])],
        ids=[f"smooth-{seed}" for seed in range(1, 41)]
        + ["jagged-5", "jagged-8-9", "jagged-13-4", "one-knot"])
    def test_table_grids_match_the_quartic_scan(self, law):
        m = law_grid(law)
        assert _grid_argmax(m) == grid_argmax_reference(m)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=circulants(st.floats(-1.0, 1.0)))
    def test_float_matrices_match_the_quartic_scan(self, m):
        assert _grid_argmax(m) == grid_argmax_reference(m)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=circulants(st.sampled_from([-1.0, 0.0, 1.0])))
    def test_tie_heavy_matrices_keep_the_first_maximum(self, m):
        assert _grid_argmax(m) == grid_argmax_reference(m)

    @pytest.mark.parametrize("value", [0.0, 0.5, -1.0])
    def test_constant_grid_picks_the_first_tuple(self, value):
        m = np.full((72, 72), value)
        assert _grid_argmax(m) == grid_argmax_reference(m) == (0, 0, 0, 0)

    def test_large_sign_matrix(self):
        m = circulant(np.sign(np.sin(np.arange(72.0))).tolist())
        assert _grid_argmax(m) == grid_argmax_reference(m)


#: maximize_chsh results, compared with ==: the grid start from the n^4 scan
#: of the exactly circulant grid, then compass refinement from that start;
#: test_golden_results_match_the_reference_search derives each one again
GOLDEN = {
    "classical": (CorrelationLaw.classical(), 2.0000000000000004,
                  (0.0, 0.17453292519943295, 3.141592653589793, 0.33815754257390135)),
    "quantum": (CorrelationLaw.quantum(), 2.8284271247461903,
                (0.0, 1.5707963267948966, 0.7853981633974483, 5.497787143782138)),
    "superquantum": (CorrelationLaw.superquantum(), 4.0,
                     (0.0, 0.17453292519943295, 0.0, 4.799655442984406)),
    "table-3": (seeded_table(3), 3.005111670899704,
                (0.0, 1.6689710972195775, 0.0, 3.7306412761378795)),
    "table-8": (seeded_table(8), 3.815134453000244,
                (0.0, 0.7853981633974483, 1.5707963267948966, 4.71238898038469)),
    "smooth-5": (smooth_table(5), 2.8358885710204857,
                 (-0.00016211993135857364, 4.640990463797506, 2.2801785516176682,
                  3.926734487732321)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_maximize_matches_golden_results(name):
    law, value, angles = GOLDEN[name]
    assert maximize_chsh(law) == (ChshSettings(*angles), value)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_results_match_the_reference_search(name):
    # the law's formula at exactly reduced angles, the n^4 scan of its grid,
    # then the reference compass search with maximize_chsh's step, floor and budget
    law, value, angles = GOLDEN[name]
    e = law_formula(law.name, law.table)
    n = nonlocality.GRID_POINTS
    grid = [i * GRID_STEP for i in range(n)]
    m = [[e(relative_angle(grid[(u - v) % n], 0.0)) for v in range(n)] for u in range(n)]
    start = [grid[k] for k in grid_argmax_reference(m)]
    assert compass_refine_reference(
        e, start, GRID_STEP, nonlocality.REFINE_STEP_FLOOR, nonlocality.REFINE_MAX_EVALS
    ) == (list(angles), value)


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


@pytest.mark.parametrize("law", NAMED_LAWS + [seeded_table(3)], ids=lambda l: l.name)
def test_grid_builds_each_angle_once(monkeypatch, law):
    # 72 grid Angles, plus the four relative angles of each chsh_value call;
    # the matrix still evaluates every one of its 72 * 72 cells
    angles = evaluations = chsh_calls = 0
    init, evaluate = Angle.__init__, CorrelationLaw.evaluate

    def counting_init(self, radians):
        nonlocal angles
        angles += 1
        init(self, radians)

    def counting_evaluate(self, theta):
        nonlocal evaluations
        evaluations += 1
        return evaluate(self, theta)

    def counting_chsh_value(law, settings):
        nonlocal chsh_calls
        chsh_calls += 1
        return chsh_value(law, settings)

    monkeypatch.setattr(Angle, "__init__", counting_init)
    monkeypatch.setattr(CorrelationLaw, "evaluate", counting_evaluate)
    monkeypatch.setattr(nonlocality, "chsh_value", counting_chsh_value)
    maximize_chsh(law)
    assert chsh_calls > 1
    assert angles == 72 + 4 * chsh_calls
    assert evaluations - 4 * chsh_calls == 72 * 72
