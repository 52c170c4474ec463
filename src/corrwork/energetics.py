"""Work bounds from correlation consumption, all in units of k_B*T.

For a process on the system, free energy, work and mutual information obey

    dF = W - dI          (k_B*T = 1 units, dI in nats)

so the work done on the system is W = dF + dI and the work extracted is
-W.  A cyclic process (dF = 0) that consumes an initial mutual information
I_i (dI = -I_i) can therefore extract at most I_i, which is the bound the
Szilard module saturates.

The energetic CHSH parameter replaces each correlator in the CHSH
combination with the work potential of that setting pair:

    S_W = |I(a,b) + I(a,b') + I(a',b) - I(a',b')|

At the standard angles this produces a strict hierarchy
classical < quantum < superquantum, because the entropy argument
sin^2(pi/8) = (2 - sqrt(2))/4 of the quantum law lies below the classical
argument 1/4.

fit_decay_exponent quantifies robustness to misalignment: the correlation
deficit 1 - |E| near perfect (anti-)alignment grows linearly for the
classical law, quadratically for the quantum law, and not at all for the
step law.  The fit reports its r^2 and does not judge it; its callers do
(verify's robustness.*.r2_deficit checks).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .information import mutual_information_law
from .laws import Angle, CorrelationLaw, LawKind
from .nonlocality import ChshSettings

#: least-squares window for the misalignment fit, radians
DECAY_WINDOW = (1e-3, 1e-1)
DECAY_POINTS = 25

#: correlation deficits below this across the window count as flat
FLAT_DEFICIT = 1e-15


def energetic_chsh(law: CorrelationLaw, settings: ChshSettings) -> float:
    """S_W = |I(a,b) + I(a,b') + I(a',b) - I(a',b')| in k_B*T units."""
    t_ab, t_abp, t_apb, t_apbp = settings.relative_angles()
    return abs(
        mutual_information_law(law, t_ab)
        + mutual_information_law(law, t_abp)
        + mutual_information_law(law, t_apb)
        - mutual_information_law(law, t_apbp)
    )


def hierarchy_report(settings: ChshSettings) -> tuple[float, float, float]:
    """(S_W classical, S_W quantum, S_W superquantum) at the settings.

    The ordering is strictly increasing at the standard angles.  Degenerate
    settings can tie (all four angles equal gives 2*ln 2 for every law), so
    callers assert strictness only where it is claimed to hold.
    """
    return (
        energetic_chsh(CorrelationLaw.classical(), settings),
        energetic_chsh(CorrelationLaw.quantum(), settings),
        energetic_chsh(CorrelationLaw.superquantum(), settings),
    )


class DecayFit(NamedTuple):
    """Power-law fit of the correlation deficit against misalignment."""

    exponent: float
    prefactor: float
    r_squared: float
    window: tuple[float, float]


def _loglog_fit(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares slope, intercept, r^2 of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((a - mx) ** 2 for a in lx)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    syy = sum((b - my) ** 2 for b in ly)
    slope = sxy / sxx
    intercept = my - slope * mx
    r2 = 1.0 if syy == 0.0 else min(1.0, (sxy * sxy) / (sxx * syy))
    return slope, intercept, r2


def fit_decay_exponent(law: CorrelationLaw, anchor: Angle | float) -> DecayFit | None:
    """Fit 1 - |E(anchor +- dtheta)| ~ prefactor * dtheta^exponent.

    ``anchor`` must be one of the perfect-correlation points 0 or pi.  The
    fit runs over 25 geometrically spaced misalignments in DECAY_WINDOW.
    Returns None when the deficit stays below FLAT_DEFICIT across the whole
    window (the step law), since there is nothing to fit.
    """
    if law.kind is LawKind.TABULATED:
        raise ValueError("decay fit supports the classical, quantum, and "
                         "superquantum laws only")
    a = anchor.radians if isinstance(anchor, Angle) else float(anchor)
    if a not in (0.0, math.pi):
        raise ValueError(f"anchor must be 0 or pi, got {a!r}")

    lo, hi = DECAY_WINDOW
    ratio = (hi / lo) ** (1.0 / (DECAY_POINTS - 1))
    deltas = [lo * ratio**k for k in range(DECAY_POINTS)]
    # Angle is even: Angle(d - a) is d at anchor 0 and pi - d at anchor pi
    deficits = [1.0 - abs(law.evaluate(Angle(d - a))) for d in deltas]

    if all(d < FLAT_DEFICIT for d in deficits):
        return None

    slope, intercept, r2 = _loglog_fit(deltas, deficits)
    return DecayFit(
        exponent=slope,
        prefactor=math.exp(intercept),
        r_squared=r2,
        window=DECAY_WINDOW,
    )
