"""Energetic CHSH hierarchy and misalignment exponents."""

import math
import random

import numpy as np
import pytest

from corrwork import energetics
from corrwork.energetics import (
    DECAY_POINTS,
    DECAY_WINDOW,
    DecayFit,
    energetic_chsh,
    fit_decay_exponent,
    hierarchy_report,
)
from corrwork.information import LN2, mutual_information, mutual_information_law
from corrwork.laws import Angle, CorrelationLaw
from corrwork.nonlocality import ChshSettings

from oracles import SW_CLASSICAL, SW_QUANTUM, SW_SUPERQUANTUM, h2_direct, h2_mp

STANDARD = ChshSettings.standard()

#: fit_decay_exponent's misalignments: DECAY_POINTS geometric steps over DECAY_WINDOW
_LO, _HI = DECAY_WINDOW
MISALIGNMENTS = [_LO * ((_HI / _LO) ** (1.0 / (DECAY_POINTS - 1))) ** k
                 for k in range(DECAY_POINTS)]


class TestEnergeticChsh:
    def test_classical_value(self):
        expected = 2.0 * (LN2 - h2_direct(0.25))
        assert expected == pytest.approx(SW_CLASSICAL, abs=1e-15)
        value = energetic_chsh(CorrelationLaw("classical"), STANDARD)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_quantum_value(self):
        expected = 2.0 * (LN2 - h2_direct(math.sin(math.pi / 8.0) ** 2))
        assert expected == pytest.approx(SW_QUANTUM, abs=1e-15)
        value = energetic_chsh(CorrelationLaw("quantum"), STANDARD)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_superquantum_value(self):
        value = energetic_chsh(CorrelationLaw("superquantum"), STANDARD)
        assert value == pytest.approx(2.0 * LN2, abs=1e-9)
        assert value == pytest.approx(SW_SUPERQUANTUM, abs=1e-15)

    def test_hierarchy_is_strict_at_standard_angles(self):
        s_c, s_q, s_s = hierarchy_report(STANDARD)
        assert s_c < s_q < s_s
        # the entropy arguments explain the ordering: sin^2(pi/8) < 1/4
        assert math.sin(math.pi / 8.0) ** 2 < 0.25
        assert h2_direct(math.sin(math.pi / 8.0) ** 2) < h2_direct(0.25)

    def test_quantum_classical_gap(self):
        s_c, s_q, _ = hierarchy_report(STANDARD)
        assert s_q - s_c == pytest.approx(SW_QUANTUM - SW_CLASSICAL, abs=1e-9)

    def test_degenerate_settings_tie(self):
        equal = ChshSettings(0.3, 0.3, 0.3, 0.3)
        s_c, s_q, s_s = hierarchy_report(equal)
        assert s_c == pytest.approx(2.0 * LN2, abs=1e-12)
        assert s_q == pytest.approx(2.0 * LN2, abs=1e-12)
        assert s_s == pytest.approx(2.0 * LN2, abs=1e-12)

    @pytest.mark.parametrize(
        "law",
        [CorrelationLaw("classical"), CorrelationLaw("quantum"),
         CorrelationLaw("superquantum")],
        ids=lambda law: law.name,
    )
    def test_reduced_form_at_standard_angles(self, law):
        # three relative angles of pi/4 and one of 3 pi/4
        reduced = abs(
            3.0 * mutual_information_law(law, Angle(math.pi / 4.0))
            - mutual_information_law(law, Angle(3.0 * math.pi / 4.0))
        )
        assert energetic_chsh(law, STANDARD) == pytest.approx(reduced, abs=1e-12)

    @pytest.mark.parametrize(
        "law",
        [CorrelationLaw("classical"), CorrelationLaw("quantum")],
        ids=lambda law: law.name,
    )
    def test_quarter_angle_symmetry(self, law):
        i1 = mutual_information_law(law, Angle(math.pi / 4.0))
        i2 = mutual_information_law(law, Angle(3.0 * math.pi / 4.0))
        assert abs(i1 - i2) < 1e-15


class TestDecayFit:
    def test_classical_linear_decay(self):
        fit = fit_decay_exponent(CorrelationLaw("classical"), 0.0)
        assert isinstance(fit, DecayFit)
        assert 0.995 <= fit.exponent <= 1.005
        assert fit.prefactor == pytest.approx(2.0 / math.pi, abs=1e-3)
        assert fit.r_squared >= 0.999
        assert fit.window == (1e-3, 1e-1)

    def test_quantum_quadratic_decay(self):
        fit = fit_decay_exponent(CorrelationLaw("quantum"), 0.0)
        assert fit is not None
        assert 1.99 <= fit.exponent <= 2.01
        assert fit.r_squared >= 0.999
        # leading coefficient of 1 - cos is 1/2
        assert fit.prefactor == pytest.approx(0.5, rel=0.01)

    def test_superquantum_is_flat(self):
        assert fit_decay_exponent(CorrelationLaw("superquantum"), 0.0) is None

    @pytest.mark.parametrize(
        "law",
        [CorrelationLaw("classical"), CorrelationLaw("quantum")],
        ids=lambda law: law.name,
    )
    def test_anchor_pi_matches_anchor_zero(self, law):
        at_zero = fit_decay_exponent(law, 0.0)
        at_pi = fit_decay_exponent(law, math.pi)
        assert at_zero is not None and at_pi is not None
        assert at_pi.exponent == pytest.approx(at_zero.exponent, abs=1e-9)

    def test_r_squared_is_the_squared_correlation_of_the_logs(self):
        rng = random.Random(35)
        ys = [0.5 * x * x * math.exp(rng.gauss(0.0, 0.2)) for x in MISALIGNMENTS]
        _, _, r2 = energetics._loglog_fit(MISALIGNMENTS, ys)
        pearson = np.corrcoef(np.log(MISALIGNMENTS), np.log(ys))[0, 1]
        assert r2 == pytest.approx(pearson**2, rel=0.0, abs=1e-12)
        assert r2 < 1.0

    def test_poor_fit_is_reported_not_raised(self, monkeypatch):
        # the fit reports r^2; verify's r2_deficit checks judge it
        monkeypatch.setattr(energetics, "_loglog_fit", lambda xs, ys: (1.0, 0.0, 0.5))
        fit = fit_decay_exponent(CorrelationLaw("classical"), 0.0)
        assert (fit.exponent, fit.prefactor, fit.r_squared) == (1.0, 1.0, 0.5)

    def test_invalid_anchor_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_exponent(CorrelationLaw("classical"), math.pi / 2.0)

    def test_tabulated_law_rejected(self):
        law = CorrelationLaw("tabulated", [(0.0, -1.0), (math.pi, 1.0)])
        with pytest.raises(ValueError):
            fit_decay_exponent(law, 0.0)


class TestWorkDeficit:
    """The paper's robustness claim on the work itself: misaligned by theta from
    perfect correlation, a law's work falls short of ln 2 by h2(eps), where eps
    is the bit error, theta/pi for the classical law and sin^2(theta/2) for the
    quantum one; so the deficit over ln(1/eps) decays as theta and theta^2."""

    @pytest.mark.parametrize("law, error, exponent", [
        (CorrelationLaw("classical"), lambda t: t / math.pi, 1.0),
        (CorrelationLaw("quantum"), lambda t: math.sin(t / 2.0) ** 2, 2.0),
    ], ids=["classical", "quantum"])
    def test_deficit_is_the_entropy_of_the_bit_error(self, law, error, exponent):
        deficits = [LN2 - mutual_information(law.evaluate(t)) for t in MISALIGNMENTS]
        eps = [error(t) for t in MISALIGNMENTS]
        for d, e in zip(deficits, eps):
            assert d == pytest.approx(h2_mp(e), rel=1e-10, abs=0.0)
        slope, _, _ = energetics._loglog_fit(
            MISALIGNMENTS, [d / -math.log(e) for d, e in zip(deficits, eps)])
        assert slope == pytest.approx(exponent, abs=0.05)

    def test_superquantum_work_has_no_deficit(self):
        law = CorrelationLaw("superquantum")
        assert [LN2 - mutual_information(law.evaluate(t)) for t in MISALIGNMENTS] == [
            0.0] * DECAY_POINTS
