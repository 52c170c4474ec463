"""corrwork: bipartite correlation laws as a thermodynamic resource.

Evaluates classical, quantum, and stronger-than-quantum correlation laws,
their CHSH parameters and mutual-information work potentials, and a
Monte Carlo Szilard engine that converts correlation into work.  The
``corrwork`` command exposes the same functionality on the command line.
"""

from ._version import __version__
from .energetics import (
    DecayFit,
    LedgerEntry,
    energetic_chsh,
    fit_decay_exponent,
    hierarchy_report,
    ledger,
    work_from_correlation,
)
from .information import (
    LN2,
    binary_entropy,
    conditional_entropy,
    information_curve,
    mutual_information,
    mutual_information_law,
    mutual_information_many,
)
from .jacobi import spectral_norm, symmetric_eigenvalues
from .laws import (
    Angle,
    CorrelationLaw,
    JointDistribution,
    LawKind,
    canonicalize_angle,
    eval_classical,
    eval_quantum,
    eval_superquantum,
    joint_distribution,
    sample_pair,
    sample_pairs,
    tabulated_from_csv,
)
from .nonlocality import (
    TSIRELSON_BOUND,
    ChshSettings,
    chsh_operator,
    chsh_operator_norm,
    chsh_value,
    lhv_deterministic_max,
    maximize_chsh,
)
from .rng import RandomStream
from .szilard import (
    CycleResult,
    EngineConfig,
    PartitionOptimum,
    expected_work,
    optimal_partition,
    simulate,
)

__all__ = [
    "Angle",
    "ChshSettings",
    "CorrelationLaw",
    "CycleResult",
    "DecayFit",
    "EngineConfig",
    "JointDistribution",
    "LN2",
    "LawKind",
    "LedgerEntry",
    "PartitionOptimum",
    "RandomStream",
    "TSIRELSON_BOUND",
    "__version__",
    "binary_entropy",
    "canonicalize_angle",
    "chsh_operator",
    "chsh_operator_norm",
    "chsh_value",
    "conditional_entropy",
    "energetic_chsh",
    "eval_classical",
    "eval_quantum",
    "eval_superquantum",
    "expected_work",
    "fit_decay_exponent",
    "hierarchy_report",
    "information_curve",
    "joint_distribution",
    "ledger",
    "lhv_deterministic_max",
    "maximize_chsh",
    "mutual_information",
    "mutual_information_law",
    "mutual_information_many",
    "optimal_partition",
    "sample_pair",
    "sample_pairs",
    "simulate",
    "spectral_norm",
    "symmetric_eigenvalues",
    "tabulated_from_csv",
    "work_from_correlation",
]
