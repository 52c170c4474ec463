"""Energetic CHSH hierarchy and misalignment exponents."""

import math

import pytest

from corrwork import energetics
from corrwork.energetics import (
    DecayFit,
    energetic_chsh,
    fit_decay_exponent,
    hierarchy_report,
)
from corrwork.information import LN2, mutual_information_law
from corrwork.laws import Angle, CorrelationLaw
from corrwork.nonlocality import ChshSettings

from oracles import SW_CLASSICAL, SW_QUANTUM, SW_SUPERQUANTUM, h2_direct

STANDARD = ChshSettings.standard()


class TestEnergeticChsh:
    def test_classical_value(self):
        expected = 2.0 * (LN2 - h2_direct(0.25))
        assert expected == pytest.approx(SW_CLASSICAL, abs=1e-15)
        value = energetic_chsh(CorrelationLaw.classical(), STANDARD)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_quantum_value(self):
        expected = 2.0 * (LN2 - h2_direct(math.sin(math.pi / 8.0) ** 2))
        assert expected == pytest.approx(SW_QUANTUM, abs=1e-15)
        value = energetic_chsh(CorrelationLaw.quantum(), STANDARD)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_superquantum_value(self):
        value = energetic_chsh(CorrelationLaw.superquantum(), STANDARD)
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
        [CorrelationLaw.classical(), CorrelationLaw.quantum(),
         CorrelationLaw.superquantum()],
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
        [CorrelationLaw.classical(), CorrelationLaw.quantum()],
        ids=lambda law: law.name,
    )
    def test_quarter_angle_symmetry(self, law):
        i1 = mutual_information_law(law, Angle(math.pi / 4.0))
        i2 = mutual_information_law(law, Angle(3.0 * math.pi / 4.0))
        assert abs(i1 - i2) < 1e-15


class TestDecayFit:
    def test_classical_linear_decay(self):
        fit = fit_decay_exponent(CorrelationLaw.classical(), 0.0)
        assert isinstance(fit, DecayFit)
        assert 0.995 <= fit.exponent <= 1.005
        assert fit.prefactor == pytest.approx(2.0 / math.pi, abs=1e-3)
        assert fit.r_squared >= 0.999
        assert fit.window == (1e-3, 1e-1)

    def test_quantum_quadratic_decay(self):
        fit = fit_decay_exponent(CorrelationLaw.quantum(), 0.0)
        assert fit is not None
        assert 1.99 <= fit.exponent <= 2.01
        assert fit.r_squared >= 0.999
        # leading coefficient of 1 - cos is 1/2
        assert fit.prefactor == pytest.approx(0.5, rel=0.01)

    def test_superquantum_is_flat(self):
        assert fit_decay_exponent(CorrelationLaw.superquantum(), 0.0) is None

    @pytest.mark.parametrize(
        "law",
        [CorrelationLaw.classical(), CorrelationLaw.quantum()],
        ids=lambda law: law.name,
    )
    def test_anchor_pi_matches_anchor_zero(self, law):
        at_zero = fit_decay_exponent(law, 0.0)
        at_pi = fit_decay_exponent(law, math.pi)
        assert at_zero is not None and at_pi is not None
        assert at_pi.exponent == pytest.approx(at_zero.exponent, abs=1e-9)

    def test_poor_fit_is_reported_not_raised(self, monkeypatch):
        # the fit reports r^2; verify's r2_deficit checks judge it
        monkeypatch.setattr(energetics, "_loglog_fit", lambda xs, ys: (1.0, 0.0, 0.5))
        fit = fit_decay_exponent(CorrelationLaw.classical(), 0.0)
        assert (fit.exponent, fit.prefactor, fit.r_squared) == (1.0, 1.0, 0.5)

    def test_invalid_anchor_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_exponent(CorrelationLaw.classical(), math.pi / 2.0)

    def test_tabulated_law_rejected(self):
        law = CorrelationLaw.tabulated([(0.0, -1.0), (math.pi, 1.0)])
        with pytest.raises(ValueError):
            fit_decay_exponent(law, 0.0)
