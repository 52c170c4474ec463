"""Entropy and mutual information for the binary symmetric pair, in nats.

For a correlation value E, the joint distribution P(x, y) = (1 + x*y*E)/4
has uniform marginals, so H(A) = ln 2 and

    I(A:E)  = ln 2 - h2((1 + E) / 2)

where h2(p) = -p ln p - (1-p) ln(1-p).  That difference cancels near E = 0,
so mutual_information evaluates the same quantity as the power series
sum_k E^(2k) / (2k(2k-1)) for |E| < 3/4 and as
[(1+|E|) ln(1+|E|) + (1-|E|) ln(1-|E|)]/2 otherwise: near machine precision on
all of [-1, 1], and never negative.  It is the one route to I:
mutual_information_law applies it to law.evaluate(theta), and its array twin
mutual_information_many gives the same bits below |E| = 3/4 and differs above
it only where numpy's log1p differs from the platform's, by a few ulp.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .laws import Angle, CorrelationLaw

LN2 = math.log(2.0)

#: 1/(2k(2k-1)) for k = 1..52; for E^2 < 9/16 the terms beyond the 52nd add
#: less than 2^-54 of the sum
_SERIES = tuple(1.0 / (2 * k * (2 * k - 1)) for k in range(1, 53))


def _series(x):
    """sum_k x^k / (2k(2k-1)) by Horner, for x = E^2 < 9/16 (float or array)."""
    acc = 0.0
    for c in reversed(_SERIES):
        acc = acc * x + c
    return acc * x


def _log_form(a, log1p):
    """[(1+a) ln(1+a) + (1-a) ln(1-a)] / 2 for a = |E| in [3/4, 1)."""
    return 0.5 * ((1.0 + a) * log1p(a) + (1.0 - a) * log1p(-a))


def binary_entropy(p: float) -> float:
    """h2(p) in nats, with the 0*ln(0) = 0 convention at the endpoints."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def mutual_information(e: float) -> float:
    """I(A:E) = ln 2 - h2((1 + E)/2), in nats.  Even in E; exactly 0 at E = 0."""
    if not (-1.0 <= e <= 1.0):
        raise ValueError(f"correlation {e!r} outside [-1, 1]")
    a = abs(e)
    if a < 0.75:
        return _series(a * a)
    if a == 1.0:
        return LN2
    return _log_form(a, math.log1p)


def mutual_information_many(e) -> np.ndarray:
    """Array twin of mutual_information: I(A:E) at every correlation of ``e``."""
    import numpy as np

    e = np.asarray(e, dtype=float)
    a = np.abs(e)
    if not np.all(a <= 1.0):
        raise ValueError(f"correlation {float(e[~(a <= 1.0)][0])!r} outside [-1, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        large = np.where(a == 1.0, LN2, _log_form(a, np.log1p))
    return np.where(a < 0.75, _series(a * a), large)


def mutual_information_law(law: CorrelationLaw, theta: Angle | float) -> float:
    """Mutual information of a law at an angle: I of its correlation E(theta)."""
    return mutual_information(law.evaluate(theta))
