"""The package's public names: exactly these, all importable, no retired ones."""

import pytest

import corrwork
from corrwork import energetics, information, jacobi, laws, nonlocality

PUBLIC = {
    "Angle", "ChshSettings", "CorrelationLaw", "CycleResult", "DecayFit",
    "EngineConfig", "LN2", "PartitionOptimum", "RandomStream",
    "TSIRELSON_BOUND", "__version__", "binary_entropy", "chsh_operator_norm",
    "chsh_value", "energetic_chsh", "expected_work", "fit_decay_exponent",
    "hierarchy_report", "lhv_deterministic_max", "maximize_chsh",
    "mutual_information", "mutual_information_law", "mutual_information_many",
    "optimal_partition", "simulate", "spectral_norm", "tabulated_from_csv",
}

#: names that no subcommand, verify check or acceptance criterion reached,
#: information_curve, a second route to I beside mutual_information_many,
#: chsh_operator, the Pauli-sum matrix that the Bell-basis norm replaced,
#: symmetric_eigenvalues, the dense eigensolver that one rotation per block
#: replaced, and the law enum, its field and CorrelationLaw's four alias
#: constructors, which a law's name replaced (CorrelationLaw is searched too)
RETIRED = (
    "JointDistribution", "joint_distribution", "sample_pair", "sample_pairs",
    "canonicalize_angle", "eval_classical", "eval_quantum", "eval_superquantum",
    "LedgerEntry", "ledger", "work_from_correlation", "conditional_entropy",
    "information_curve", "chsh_operator", "symmetric_eigenvalues",
    "LawKind", "kind", "classical", "quantum", "superquantum", "tabulated",
)


def test_all_is_exactly_the_public_set():
    assert set(corrwork.__all__) == PUBLIC
    assert len(corrwork.__all__) == len(PUBLIC)


def test_every_public_name_resolves():
    for name in corrwork.__all__:
        assert getattr(corrwork, name) is not None, name


@pytest.mark.parametrize("module", [corrwork, laws, energetics, information,
                                    nonlocality, jacobi, corrwork.CorrelationLaw],
                         ids=lambda m: m.__name__)
def test_retired_names_are_gone(module):
    # without a module __getattr__, "from module import name" fails exactly
    # when the attribute is missing
    for name in RETIRED:
        assert not hasattr(module, name), name


def test_a_law_is_its_name():
    assert corrwork.CorrelationLaw.__slots__ == ("name", "table")
    assert laws.NAMED_LAWS == ("classical", "quantum", "superquantum")


def test_random_stream_has_no_shard_api():
    assert not hasattr(corrwork.RandomStream, "derive")
    assert not hasattr(corrwork.RandomStream, "seed")
