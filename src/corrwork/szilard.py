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
ln 2 - h2(eps) = I(1 - 2 eps): exactly the mutual information of the bit,
so the optimal protocol converts the whole correlation into work and no
choice of x can do better.  optimal_partition reports that yield as
mutual_information(1 - 2 eps), which stays accurate where W's two terms
cancel near eps = 1/2; expected_work is W itself, the engine's closed form
at any x.  eps = 0 pushes the optimum to the boundary x = 1 (plain
expansion from half the box to all of it, worth ln 2); so does any eps
small enough that 1 - eps rounds to 1.  EngineConfig accepts x = 1 exactly
there, where no draw lands on the wrong side, so simulate() runs that
optimum like any other and returns ln 2 with zero standard error.

simulate() runs the cycle as a Monte Carlo over bit correctness with the
repo's counter-based stream, so results are reproducible from the seed
alone.  Only the number of correct trials matters, and the stream draws it
as one Binomial(n, q) count, q being 1 - eps rounded up to a multiple of
2**-53 (:meth:`RandomStream.count_below`), from about n/32 words: memory
stays flat in the number of trials and time is linear in it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .information import LN2, mutual_information
from .laws import _Frozen, _set
from .rng import RandomStream, check_seed


def _check_error_prob(eps: float) -> None:
    """The engine's rule for the memory bit's error probability: [0, 1/2]."""
    if eps > 0.5:
        raise ValueError(
            f"error probability {eps} exceeds 1/2: relabel the bit so that "
            "the prediction is right more often than wrong"
        )
    if not eps >= 0.0:
        raise ValueError(f"error probability must be >= 0, got {eps}")


class EngineConfig(_Frozen):
    """Parameters of one Monte Carlo run.

    The partition fraction lies in (0, 1), or is 1 when 1 - error_prob
    rounds to 1: the boundary optimum, whose wrong branch is never drawn.
    """

    __slots__ = ("error_prob", "partition_fraction", "trials", "seed")

    def __init__(
        self, error_prob: float, partition_fraction: float, trials: int, seed: int
    ) -> None:
        _check_error_prob(error_prob)
        boundary = partition_fraction == 1.0 and 1.0 - error_prob == 1.0
        if not (0.0 < partition_fraction < 1.0 or boundary):
            raise ValueError(
                f"partition_fraction {partition_fraction!r} outside (0, 1)"
            )
        if isinstance(trials, bool) or not isinstance(trials, int):
            raise TypeError(f"trials must be an int, got {type(trials).__name__}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        check_seed(seed)
        _set(self, "error_prob", error_prob)
        _set(self, "partition_fraction", partition_fraction)
        _set(self, "trials", trials)
        _set(self, "seed", seed)


class CycleResult(NamedTuple):
    """Monte Carlo mean work per cycle, from ``correct`` of ``n`` trials."""

    mean_work_kT: float
    std_error: float
    n: int
    correct: int


def expected_work(epsilon: float, x: float) -> float:
    """Closed-form mean work (1-eps) ln(2x) + eps ln(2(1-x)), in k_B*T.

    x outside (0, 1) is rejected: a branch would be compressed to zero
    volume, which costs unbounded work.  The one exception is x = 1 at
    eps = 0, where that branch is never taken: W = ln 2, with the
    0*ln(0) = 0 convention of binary_entropy.
    """
    _check_error_prob(epsilon)
    if x == 1.0 and epsilon == 0.0:
        return LN2
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

    The yield is I(1 - 2 eps) = ln 2 - h2(eps), the mutual information of
    the memory bit, so the optimal cycle saturates the correlation-work
    bound; it is computed as mutual_information(1 - 2 eps) for every eps,
    and so never exceeds that bound.  When 1 - eps rounds to 1 (eps = 0
    included) there is no representable interior optimum: the supremum
    sits at the boundary x = 1 and is flagged as such.
    """
    _check_error_prob(epsilon)
    x_opt = 1.0 - epsilon
    return PartitionOptimum(
        x_opt=x_opt,
        w_opt_kT=mutual_information(1.0 - 2.0 * epsilon),
        boundary=x_opt == 1.0,
    )


def simulate(config: EngineConfig) -> CycleResult:
    """Monte Carlo over memory-bit correctness.

    Each trial's bit is correct when a 53-bit uniform falls below 1 - eps,
    and the trial contributes the matching branch work.  The seed's stream
    draws the count of correct trials as RandomStream.count_below(n, 1 - eps):
    Binomial(n, ceil((1 - eps) * 2**53) * 2**-53), the law of n uniforms
    compared with 1 - eps in floating point.  When 1 - eps rounds to 1 every
    trial is correct, so at the boundary x = 1 ln(0) is never taken.
    """
    eps = config.error_prob
    x = config.partition_fraction
    n = config.trials
    correct = RandomStream(config.seed).count_below(n, 1.0 - eps)
    wrong = n - correct
    w_correct = math.log(2.0 * x)
    w_wrong = math.log(2.0 * (1.0 - x)) if wrong else 0.0
    if wrong == 0 or correct == 0:
        # every trial is the same branch: the mean is exact, variance zero
        mean = w_correct if wrong == 0 else w_wrong
        return CycleResult(mean_work_kT=mean, std_error=0.0, n=n, correct=correct)
    mean = (correct * w_correct + wrong * w_wrong) / n
    ss = correct * (w_correct - mean) ** 2 + wrong * (w_wrong - mean) ** 2
    std_error = math.sqrt(ss / (n - 1)) / math.sqrt(n)
    return CycleResult(mean_work_kT=mean, std_error=std_error, n=n, correct=correct)
