"""Entropy and mutual information for the binary symmetric pair, in nats.

For a correlation value E, the joint distribution P(x, y) = (1 + x*y*E)/4
has uniform marginals, so H(A) = ln 2 and

    I(A:E)  = ln 2 - h2((1 + E) / 2)
    H(A|E)  =        h2((1 + E) / 2)

where h2(p) = -p ln p - (1-p) ln(1-p).  That difference cancels near E = 0,
so mutual_information evaluates the same quantity as |E| atanh|E| + ln(1 - E^2)/2
for |E| < 1/2 and [(1+|E|) ln(1+|E|) + (1-|E|) ln(1-|E|)]/2 otherwise: near
machine precision on all of [-1, 1], and never negative.  The named laws' closed
forms give E = 2p - 1 from a probability p in the angle; the generic route
through the law's E(theta) must agree with them to 1e-12.
"""

from __future__ import annotations

import math

from .laws import Angle, CorrelationLaw, LawKind, _radians

LN2 = math.log(2.0)


def binary_entropy(p: float) -> float:
    """h2(p) in nats, with the 0*ln(0) = 0 convention at the endpoints."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def conditional_entropy(e: float) -> float:
    """Residual uncertainty H(A|E) = h2((1 + E)/2) for correlation E."""
    if not (-1.0 <= e <= 1.0):
        raise ValueError(f"correlation {e!r} outside [-1, 1]")
    return binary_entropy((1.0 + e) / 2.0)


def mutual_information(e: float) -> float:
    """I(A:E) = ln 2 - h2((1 + E)/2), in nats.  Even in E; exactly 0 at E = 0."""
    if not (-1.0 <= e <= 1.0):
        raise ValueError(f"correlation {e!r} outside [-1, 1]")
    a = abs(e)
    if a < 0.5:
        return a * math.atanh(a) + 0.5 * math.log1p(-a * a)
    if a == 1.0:
        return LN2
    return 0.5 * ((1.0 + a) * math.log1p(a) + (1.0 - a) * math.log1p(-a))


def mutual_information_law(law: CorrelationLaw, theta: Angle | float) -> float:
    """Mutual information of a law at an angle, via its closed form.

    classical     ln 2 - h2(p), p = theta/pi
    quantum       ln 2 - h2(p), p = sin^2(theta/2)
    superquantum  ln 2 for theta != pi/2, else 0
    tabulated     generic route through the interpolated correlation

    The first two evaluate mutual_information(2p - 1).
    """
    t = _radians(theta)
    if law.kind is LawKind.CLASSICAL_LINEAR:
        return mutual_information(2.0 * (t / math.pi) - 1.0)
    if law.kind is LawKind.QUANTUM_COSINE:
        return mutual_information(2.0 * math.sin(t / 2.0) ** 2 - 1.0)
    if law.kind is LawKind.SUPERQUANTUM_STEP:
        return 0.0 if 2.0 * t / math.pi == 1.0 else LN2
    return mutual_information(law.evaluate(theta))
