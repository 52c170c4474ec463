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
mutual_information_many evaluates each branch only on its own elements, with
the scalar's operations: it gives the same bits below |E| = 3/4 and differs
above it only where numpy's log1p differs from the platform's, by a few ulp.
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
#: the coefficients that Horner's rule adds after its first step, last first
_HORNER = _SERIES[-2::-1]


def _series(x):
    """sum_k x^k / (2k(2k-1)) by Horner, for x = E^2 < 9/16: a float, or an
    array whose steps after the first run in place."""
    acc = 0.0 * x + _SERIES[-1]  # the first step, exactly the last coefficient
    for c in _HORNER:
        acc *= x
        acc += c
    acc *= x
    return acc


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
    i = np.empty_like(a)
    small = a < 0.75
    x = a[small]
    x *= x
    i[small] = _series(x)
    large = a[~small]
    with np.errstate(divide="ignore", invalid="ignore"):
        i[~small] = np.where(large == 1.0, LN2, _log_form(large, np.log1p))
    return i


def mutual_information_law(law: CorrelationLaw, theta: Angle | float) -> float:
    """Mutual information of a law at an angle: I of its correlation E(theta)."""
    return mutual_information(law.evaluate(theta))
