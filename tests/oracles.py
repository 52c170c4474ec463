"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from first principles, separate
from the package under test: direct entropy formulas, the four-cell
Shannon sum, golden-section search, and numpy's eigensolver.  Tests
compare package output against these routes.
"""

import math

import mpmath
import numpy as np


def h2_direct(p: float) -> float:
    """Binary entropy in nats by direct evaluation (0*ln 0 = 0)."""
    total = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            total -= q * math.log(q)
    return total


def mutual_information_mp(e: float) -> float:
    """I(E) = [(1+E) ln(1+E) + (1-E) ln(1-E)] / 2 in mpmath, rounded to a float.

    The working precision grows with -log10|E|, so that 1 +- E keeps every
    digit of E and the E^2/2 left after cancellation is still exact to
    ~40 digits.
    """
    if e == 0.0:
        return 0.0
    if abs(e) == 1.0:
        return math.log(2.0)
    with mpmath.workdps(40 + 2 * int(-math.log10(abs(e)))):
        x = mpmath.mpf(e)
        return float(((1 + x) * mpmath.log1p(x) + (1 - x) * mpmath.log1p(-x)) / 2)


def joint_cells(e: float) -> tuple[float, float, float, float]:
    """P(x, y) = (1 + x*y*E) / 4 over the cells (+,+), (+,-), (-,+), (-,-)."""
    same, diff = (1.0 + e) / 4.0, (1.0 - e) / 4.0
    return (same, diff, diff, same)


def shannon_mutual_information(cells) -> float:
    """I = sum P(x,y) ln(P(x,y) / (P(x) P(y))) over the four cells."""
    p_pp, p_pm, p_mp, p_mm = cells
    px = (p_pp + p_pm, p_mp + p_mm)
    py = (p_pp + p_mp, p_pm + p_mm)
    grid = ((p_pp, px[0] * py[0]), (p_pm, px[0] * py[1]),
            (p_mp, px[1] * py[0]), (p_mm, px[1] * py[1]))
    total = 0.0
    for p, indep in grid:
        if p > 0.0:
            total += p * math.log(p / indep)
    return total


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Abscissa of the maximum of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while b - a > tol:
        if f(c) > f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


def eig_norm(matrix) -> float:
    """Spectral norm of a symmetric matrix via numpy (oracle route)."""
    eigs = np.linalg.eigvalsh(np.asarray(matrix, dtype=float))
    return float(np.max(np.abs(eigs)))


# Frozen constants, each computed by the oracles above (and cross-checked
# at 50-digit precision during development).
LN2 = math.log(2.0)
H2_QUARTER = 0.5623351446188083           # h2_direct(0.25)
I_AT_HALF_CORRELATION = 0.130812035941137  # LN2 - h2_direct(0.25)
SW_CLASSICAL = 0.261624071882274           # 2 * (LN2 - h2_direct(1/4))
SW_QUANTUM = 0.5533032997205156            # 2 * (LN2 - h2_direct(sin^2(pi/8)))
SW_SUPERQUANTUM = 1.3862943611198906       # 2 * LN2
