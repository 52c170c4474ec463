"""Single-particle Szilard cycle powered by a correlated memory bit.

The memory bit predicts which half of the box holds the particle; the
prediction is wrong with probability eps = (1 - |E|)/2.  The agent reads
the bit, inserts the partition at the middle, and moves it quasi-statically
until a fraction x of the box lies on the predicted side.  Isothermal
expansion (or compression, when the bit was wrong) gives the branch works

    correct:  ln(2x)          wrong:  ln(2(1 - x))

in k_B*T units, so the expected work per cycle is

    W(eps, x) = (1 - eps) ln(2x) + eps ln(2(1 - x)).

W is concave in x with its maximum at x = 1 - eps, where it equals
ln 2 - h2(eps): exactly the mutual information of the bit, so the optimal
protocol converts the whole correlation into work and no choice of x can
do better.  eps = 0 pushes the optimum to the boundary x = 1 (plain
expansion from half the box to all of it, worth ln 2); so does any eps
small enough that 1 - eps rounds to 1.

simulate() runs the cycle as a Monte Carlo over bit correctness with the
repo's counter-based stream, so results are reproducible from the seed
alone.  Only the number of correct trials matters, and the stream counts
it on raw words against an exact integer threshold
(:meth:`RandomStream.count_below`), so memory stays flat in the number of
trials and time is linear in it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .information import mutual_information
from .laws import _Frozen, _set
from .rng import RandomStream


class EngineConfig(_Frozen):
    """Parameters of one Monte Carlo run."""

    __slots__ = ("error_prob", "partition_fraction", "trials", "seed")

    def __init__(
        self, error_prob: float, partition_fraction: float, trials: int, seed: int
    ) -> None:
        if not (0.0 <= error_prob <= 0.5):
            raise ValueError(f"error_prob {error_prob!r} outside [0, 1/2]")
        if not (0.0 < partition_fraction < 1.0):
            raise ValueError(
                f"partition_fraction {partition_fraction!r} outside (0, 1)"
            )
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        _set(self, "error_prob", error_prob)
        _set(self, "partition_fraction", partition_fraction)
        _set(self, "trials", trials)
        _set(self, "seed", seed)


class CycleResult(NamedTuple):
    """Monte Carlo estimate of the mean work per cycle."""

    mean_work_kT: float
    std_error: float
    n: int


def expected_work(epsilon: float, x: float) -> float:
    """Closed-form mean work (1-eps) ln(2x) + eps ln(2(1-x)), in k_B*T.

    x outside (0, 1) is rejected: a branch would be compressed to zero
    volume, which costs unbounded work.
    """
    if not (0.0 <= epsilon <= 0.5):
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1/2]")
    if not (0.0 < x < 1.0):
        raise ValueError(f"partition fraction {x!r} outside (0, 1)")
    return (1.0 - epsilon) * math.log(2.0 * x) + epsilon * math.log(2.0 * (1.0 - x))


class PartitionOptimum(NamedTuple):
    """Best final partition position and the work it yields."""

    x_opt: float
    w_opt_kT: float
    boundary: bool = False


def optimal_partition(epsilon: float) -> PartitionOptimum:
    """Work-maximizing partition fraction x = 1 - eps and its yield.

    The yield equals ln 2 - h2(eps), the mutual information of the memory
    bit, so the optimal cycle saturates the correlation-work bound.  When
    1 - eps rounds to 1 (eps = 0 included) there is no representable
    interior optimum: the supremum ln 2 - h2(eps) = I(1 - 2 eps) sits at
    the boundary x = 1 and is flagged as such.
    """
    if not (0.0 <= epsilon <= 0.5):
        raise ValueError(f"epsilon {epsilon!r} outside [0, 1/2]")
    x_opt = 1.0 - epsilon
    if x_opt == 1.0:
        w_opt = mutual_information(1.0 - 2.0 * epsilon)
        return PartitionOptimum(x_opt=1.0, w_opt_kT=w_opt, boundary=True)
    return PartitionOptimum(x_opt=x_opt, w_opt_kT=expected_work(epsilon, x_opt))


def simulate(config: EngineConfig) -> CycleResult:
    """Monte Carlo over memory-bit correctness.

    Trial i draws the i-th uniform of the seed's stream; the bit is correct
    when it falls below 1 - eps, and the trial contributes the matching
    branch work.  The count of correct trials is exactly that of n
    next_uniform() draws compared with 1 - eps in floating point.
    """
    eps = config.error_prob
    x = config.partition_fraction
    n = config.trials
    w_correct = math.log(2.0 * x)
    w_wrong = math.log(2.0 * (1.0 - x))

    correct = RandomStream(config.seed).count_below(n, 1.0 - eps)
    wrong = n - correct
    if wrong == 0 or correct == 0:
        # every trial is the same branch: the mean is exact, variance zero
        mean = w_correct if wrong == 0 else w_wrong
        return CycleResult(mean_work_kT=mean, std_error=0.0, n=n)
    mean = (correct * w_correct + wrong * w_wrong) / n
    ss = correct * (w_correct - mean) ** 2 + wrong * (w_wrong - mean) ** 2
    std_error = math.sqrt(ss / (n - 1)) / math.sqrt(n)
    return CycleResult(mean_work_kT=mean, std_error=std_error, n=n)
