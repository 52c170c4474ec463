"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with -s (or -rA) to see the lines:

    pytest tests/test_acceptance.py -s
"""

import json
import math

from corrwork import cli
from corrwork.energetics import energetic_chsh, fit_decay_exponent, hierarchy_report
from corrwork.information import LN2, binary_entropy, mutual_information_law
from corrwork.laws import Angle, CorrelationLaw
from corrwork.nonlocality import (
    TSIRELSON_BOUND,
    ChshSettings,
    chsh_operator_norm,
    chsh_value,
    lhv_deterministic_max,
)
from corrwork.rng import RandomStream
from corrwork.szilard import EngineConfig, expected_work, optimal_partition, simulate

from oracles import h2_direct, law_probability

CLASSICAL = CorrelationLaw("classical")
QUANTUM = CorrelationLaw("quantum")
SUPERQUANTUM = CorrelationLaw("superquantum")
STANDARD = ChshSettings.standard()


def report(number: int, label: str, passed: bool) -> None:
    print(f"criterion {number} [{'PASS' if passed else 'FAIL'}] {label}")
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_1_chsh_triple():
    s_c = chsh_value(CLASSICAL, STANDARD)
    s_q = chsh_value(QUANTUM, STANDARD)
    s_s = chsh_value(SUPERQUANTUM, STANDARD)
    passed = (
        abs(s_c - 2.0) <= 1e-12
        and abs(s_q - TSIRELSON_BOUND) <= 1e-12
        and s_s == 4.0
    )
    report(1, f"CHSH triple (2, 2*sqrt(2), 4): got ({s_c}, {s_q}, {s_s})", passed)


def test_criterion_2_lhv_oracle():
    stream = RandomStream(101)
    values = []
    for _ in range(100):
        settings = ChshSettings(*(4.0 * math.pi * (stream.next_uniform() - 0.5)
                                  for _ in range(4)))
        values.append(lhv_deterministic_max(settings))
    passed = all(v == 2.0 for v in values)
    report(2, "LHV enumeration equals 2 for 100 random settings", passed)


def test_criterion_3_tsirelson_scan():
    stream = RandomStream(103)
    max_norm = 0.0
    for _ in range(1000):
        settings = ChshSettings(*(2.0 * math.pi * stream.next_uniform()
                                  for _ in range(4)))
        max_norm = max(max_norm, chsh_operator_norm(settings))
    standard_norm = chsh_operator_norm(STANDARD)
    passed = (
        max_norm <= TSIRELSON_BOUND + 1e-9
        and abs(standard_norm - TSIRELSON_BOUND) <= 1e-9
    )
    report(
        3,
        f"operator norm <= 2*sqrt(2) over 1000 settings (max {max_norm:.12f}), "
        f"equality at standard angles ({standard_norm:.12f})",
        passed,
    )


def test_criterion_4_mutual_information_curves():
    # the paper's closed forms I = ln 2 - h2(p(theta)) are the oracle
    worst = 0.0
    for law in (CLASSICAL, QUANTUM, SUPERQUANTUM):
        for i in range(10_000):
            theta = Angle(math.pi * i / 9999)
            closed = LN2 - h2_direct(law_probability(law.name, theta.radians))
            worst = max(worst, abs(mutual_information_law(law, theta) - closed))
    endpoints_ok = all(
        abs(mutual_information_law(law, Angle(t)) - LN2) <= 1e-12
        for law in (CLASSICAL, QUANTUM)
        for t in (0.0, math.pi)
    )
    step_ok = (
        mutual_information_law(SUPERQUANTUM, Angle(math.pi / 2.0)) == 0.0
        and mutual_information_law(SUPERQUANTUM, Angle(1.0)) == LN2
        and mutual_information_law(SUPERQUANTUM, Angle(2.0)) == LN2
    )
    passed = worst <= 1e-12 and endpoints_ok and step_ok
    report(
        4,
        f"I(theta) vs the closed forms ln 2 - h2(p) within 1e-12 on 10^4 grid "
        f"(worst {worst:.3e}), endpoint features reproduced",
        passed,
    )


def test_criterion_5_energetic_chsh():
    s_c, s_q, s_s = hierarchy_report(STANDARD)
    f_c = 2.0 * (LN2 - binary_entropy(0.25))
    f_q = 2.0 * (LN2 - binary_entropy(math.sin(math.pi / 8.0) ** 2))
    f_s = 2.0 * LN2
    passed = (
        abs(s_c - f_c) <= 1e-9
        and abs(s_q - f_q) <= 1e-9
        and abs(s_s - f_s) <= 1e-9
        and s_c < s_q < s_s
    )
    report(
        5,
        f"energetic CHSH ({s_c:.7f}, {s_q:.7f}, {s_s:.7f}) kT matches the "
        f"three formulas within 1e-9 with strict ordering",
        passed,
    )


def test_criterion_6_robustness_exponents():
    fit_c = fit_decay_exponent(CLASSICAL, 0.0)
    fit_q = fit_decay_exponent(QUANTUM, 0.0)
    fit_s = fit_decay_exponent(SUPERQUANTUM, 0.0)
    passed = (
        fit_c is not None
        and abs(fit_c.exponent - 1.0) <= 0.005
        and abs(fit_c.prefactor - 2.0 / math.pi) <= 1e-3
        and fit_c.r_squared >= 0.999
        and fit_q is not None
        and abs(fit_q.exponent - 2.0) <= 0.01
        and fit_q.r_squared >= 0.999
        and fit_s is None
    )
    report(
        6,
        f"decay exponents: classical {fit_c.exponent:.4f} "
        f"(prefactor {fit_c.prefactor:.5f}), quantum {fit_q.exponent:.4f}, "
        f"superquantum flat",
        passed,
    )


def test_criterion_7_szilard_saturation():
    # the reported optimum I(1 - 2 eps), and the engine's W at its partition,
    # both against the textbook ln 2 - h2(eps)
    worst_gap = engine_gap = 0.0
    for k in range(1, 11):
        eps = 0.05 * k
        opt = optimal_partition(eps)
        textbook = LN2 - binary_entropy(eps)
        worst_gap = max(worst_gap, abs(opt.w_opt_kT - textbook))
        engine_gap = max(engine_gap, abs(expected_work(eps, opt.x_opt) - textbook))
    stream = RandomStream(107)
    mc_ok = True
    for _ in range(10):
        eps = 0.05 + 0.4 * stream.next_uniform()
        x = 0.1 + 0.8 * stream.next_uniform()
        seed = stream.next_uint64()
        result = simulate(EngineConfig(error_prob=eps, partition_fraction=x,
                                       trials=10**6, seed=seed))
        mc_ok &= abs(result.mean_work_kT - expected_work(eps, x)) <= 4.0 * result.std_error
    perfect = optimal_partition(0.0)
    passed = (
        worst_gap <= 1e-12
        and engine_gap <= 1e-12
        and mc_ok
        and perfect.boundary
        and perfect.w_opt_kT == LN2
    )
    report(
        7,
        f"optimum saturates ln 2 - h2(eps) (worst gap {worst_gap:.3e}, engine "
        f"{engine_gap:.3e}), "
        f"10 seeded Monte Carlo runs within 4 standard errors, eps = 0 gives ln 2",
        passed,
    )


def test_criterion_8_second_law_ceiling():
    worst_excess = -math.inf
    for i in range(50):
        eps = 0.5 * i / 49.0
        bound = LN2 - binary_entropy(eps)
        for j in range(50):
            x = (j + 1) / 51.0
            worst_excess = max(worst_excess, expected_work(eps, x) - bound)
    passed = worst_excess <= 1e-12
    report(
        8,
        f"expected work never exceeds ln 2 - h2(eps) on the 50x50 grid "
        f"(worst excess {worst_excess:.3e})",
        passed,
    )


def test_criterion_9_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = cli.main(["verify", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    szilard_outputs = []
    for _ in range(2):
        code = cli.main(["szilard", "--epsilon", "0.25", "--x", "0.75",
                         "--trials", "100000", "--seed", "42"])
        captured = capsys.readouterr()
        assert code == 0
        szilard_outputs.append(captured.out)
    verify_identical = outputs[0] == outputs[1]
    szilard_identical = szilard_outputs[0] == szilard_outputs[1]
    json.loads(outputs[0])
    passed = verify_identical and szilard_identical
    with capsys.disabled():
        report(9, "verify and seeded szilard reruns are byte-identical", passed)
