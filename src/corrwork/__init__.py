"""corrwork: bipartite correlation laws as a thermodynamic resource.

Evaluates classical, quantum, and stronger-than-quantum correlation laws,
their CHSH parameters and mutual-information work potentials, and a
Monte Carlo Szilard engine that converts correlation into work.  The
``corrwork`` command exposes the same functionality on the command line.
"""

from ._version import __version__
from .energetics import (
    DecayFit,
    energetic_chsh,
    fit_decay_exponent,
    hierarchy_report,
)
from .information import (
    LN2,
    binary_entropy,
    mutual_information,
    mutual_information_law,
    mutual_information_many,
)
from .jacobi import spectral_norm
from .laws import Angle, CorrelationLaw, tabulated_from_csv
from .nonlocality import (
    TSIRELSON_BOUND,
    ChshSettings,
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
    "LN2",
    "PartitionOptimum",
    "RandomStream",
    "TSIRELSON_BOUND",
    "__version__",
    "binary_entropy",
    "chsh_operator_norm",
    "chsh_value",
    "energetic_chsh",
    "expected_work",
    "fit_decay_exponent",
    "hierarchy_report",
    "lhv_deterministic_max",
    "maximize_chsh",
    "mutual_information",
    "mutual_information_law",
    "mutual_information_many",
    "optimal_partition",
    "simulate",
    "spectral_norm",
    "tabulated_from_csv",
]
