"""CHSH parameter, local-realist ceiling, and the quantum operator bound.

The CHSH parameter for a correlation law E and four measurement angles is

    S = |E(a,b) + E(a,b') + E(a',b) - E(a',b')|

with each correlator evaluated at the canonicalized relative angle.  Three
reference ceilings apply: deterministic local strategies give exactly 2,
the two-level operator construction caps the singlet value at 2*sqrt(2),
and the algebra allows at most 4.

The operator bound is checked constructively: with planar observables
A(phi) = cos(phi) Z + sin(phi) X the 4x4 operator

    B = A(phi_a) (x) (B(phi_b) + B(phi_b')) + A(phi_a') (x) (B(phi_b) - B(phi_b'))

is real symmetric, and its spectral norm (via the in-repo Jacobi solver)
never exceeds 2*sqrt(2).

maximize_chsh searches the four angle settings for the largest S: an exact
O(n^3) scan of the grid at step pi/36, in plain Python over a list of
floats, followed by derivative-free compass refinement, chosen because the
step law is discontinuous.  The scan skips every pair of rows that a bound
from the grid's near-circulant structure proves below the maximum, which
leaves a few hundred of 2628 pairs for smooth laws.  This module never
imports numpy.
"""

from __future__ import annotations

import itertools
import math
from operator import add, sub

from .jacobi import spectral_norm
from .laws import Angle, CorrelationLaw, _Frozen, _set

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: coarse stage of maximize_chsh: grid step over each angle
GRID_STEP = math.pi / 36.0
#: refinement stops once the compass step falls below this
REFINE_STEP_FLOOR = 1e-7
#: hard cap on refinement probes, besides the grid optimum's own evaluation
REFINE_MAX_EVALS = 10_000
#: one compass round: +-step on each of the four angles
_PROBES = tuple(itertools.product(range(4), (1.0, -1.0)))


class ChshSettings(_Frozen):
    """Four measurement angles (phi_a, phi_a', phi_b, phi_b') in radians."""

    __slots__ = ("phi_a", "phi_a_prime", "phi_b", "phi_b_prime")

    def __init__(
        self, phi_a: float, phi_a_prime: float, phi_b: float, phi_b_prime: float
    ) -> None:
        for name, phi in zip(self.__slots__, (phi_a, phi_a_prime, phi_b, phi_b_prime)):
            if not isinstance(phi, (int, float)) or not math.isfinite(phi):
                raise ValueError(f"{name} must be finite, got {phi!r}")
            _set(self, name, phi)

    @classmethod
    def standard(cls) -> "ChshSettings":
        """The angles that maximize the singlet value: 0, pi/2, pi/4, -pi/4."""
        return cls(0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)

    def as_dict(self) -> dict[str, float]:
        return {
            "phi_a": self.phi_a,
            "phi_a_prime": self.phi_a_prime,
            "phi_b": self.phi_b,
            "phi_b_prime": self.phi_b_prime,
        }

    def relative_angles(self) -> tuple[Angle, Angle, Angle, Angle]:
        """Canonical relative angles for (a,b), (a,b'), (a',b), (a',b')."""
        return (
            Angle(self.phi_a - self.phi_b),
            Angle(self.phi_a - self.phi_b_prime),
            Angle(self.phi_a_prime - self.phi_b),
            Angle(self.phi_a_prime - self.phi_b_prime),
        )


def chsh_value(law: CorrelationLaw, settings: ChshSettings) -> float:
    """S = |E(a,b) + E(a,b') + E(a',b) - E(a',b')| for the given law."""
    t_ab, t_abp, t_apb, t_apbp = settings.relative_angles()
    return abs(
        law.evaluate(t_ab)
        + law.evaluate(t_abp)
        + law.evaluate(t_apb)
        - law.evaluate(t_apbp)
    )


def lhv_deterministic_max(settings: ChshSettings) -> float:
    """Largest CHSH combination over all 16 deterministic strategies.

    Each party pre-assigns outcomes A, A', B, B' in {-1, +1}; the
    correlator of two fixed outcomes is their product.  The result is
    settings-independent and always exactly 2; the argument is kept for
    interface uniformity with chsh_value.
    """
    del settings
    best = 0.0
    for a, ap, b, bp in itertools.product((-1, 1), repeat=4):
        s = abs(a * b + a * bp + ap * b - ap * bp)
        if s > best:
            best = float(s)
    return best


def _observable(phi: float) -> list[list[float]]:
    """Planar two-level observable cos(phi) Z + sin(phi) X; eigenvalues +-1."""
    c, s = math.cos(phi), math.sin(phi)
    return [[c, s], [s, -c]]


def _kron4(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    out = [[0.0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k][2 * j + l] = a[i][j] * b[k][l]
    return out


def chsh_operator(settings: ChshSettings) -> list[list[float]]:
    """The 4x4 real symmetric CHSH operator for planar observables."""
    a = _observable(settings.phi_a)
    ap = _observable(settings.phi_a_prime)
    b = _observable(settings.phi_b)
    bp = _observable(settings.phi_b_prime)
    b_sum = [[b[i][j] + bp[i][j] for j in range(2)] for i in range(2)]
    b_diff = [[b[i][j] - bp[i][j] for j in range(2)] for i in range(2)]
    first = _kron4(a, b_sum)
    second = _kron4(ap, b_diff)
    return [[first[i][j] + second[i][j] for j in range(4)] for i in range(4)]


def chsh_operator_norm(settings: ChshSettings) -> float:
    """Spectral norm of the CHSH operator; at most 2*sqrt(2) for any angles."""
    return spectral_norm(chsh_operator(settings))


def _grid_argmax(m) -> tuple[int, int, int, int]:
    """First (a, a', b, b') in lexicographic order maximizing
    |(m[a][b] + m[a'][b]) + (m[a][b'] - m[a'][b'])| over an n x n matrix m;
    maximize_chsh's docstring proves the scan and its prune exact."""
    n = len(m)
    best = [[-1.0] * n for _ in range(n)]

    def scan(a: int, aps) -> None:
        """Fill best[a][a'] and best[a'][a] for each a' in aps."""
        row, best_a = m[a], best[a]
        for ap in aps:
            u = list(map(add, row, m[ap]))
            v = list(map(sub, row, m[ap]))
            hi_u, lo_u, hi_v, lo_v = max(u), min(u), max(v), min(v)
            best_a[ap] = max(hi_u + hi_v, -(lo_u + lo_v))
            best[ap][a] = max(hi_u - lo_v, -(lo_u - hi_v))

    scan(0, range(n))
    floor = max(best[0] + [row[0] for row in best])
    # delta[r] bounds how far row r strays from row 0 shifted by r, which
    # row0_twice[n - r:] starts
    row0_twice = list(m[0]) * 2
    delta = [max(map(abs, map(sub, row, row0_twice[n - r:]))) for r, row in enumerate(m)]
    slack = 2.0**-44 * (max(map(abs, row0_twice)) + max(delta))
    lim = [b + 2.0 * d + slack for b, d in zip(best[0], delta)]
    reach = [max(lim[d], lim[-d]) for d in range(n)]
    for a in range(1, n):
        scan(a, [ap for ap, r, d in zip(range(a, n), reach, delta[a:])
                 if not r + 2.0 * (delta[a] + d) < floor])
    top = max(map(max, best))
    a, ap = next((a, row.index(top)) for a, row in enumerate(best) if top in row)
    u = list(map(add, m[a], m[ap]))
    v = list(map(sub, m[a], m[ap]))
    b, bp = next((b, bp) for b, ub in enumerate(u) for bp, vb in enumerate(v)
                 if abs(ub + vb) == top)
    return a, ap, b, bp


def maximize_chsh(law: CorrelationLaw) -> tuple[ChshSettings, float]:
    """Angles maximizing the CHSH parameter for a law, and the value there.

    Stage 1 takes the first maximum, in lexicographic angle order, of S on
    a grid of step pi/36 over [0, 2pi) in each angle.  With
    m[i, j] = E(grid_i - grid_j) and (a, a') fixed, S = |u_b + v_b'| with
    u_b = m[a,b] + m[a',b] and v_b' = m[a,b'] - m[a',b'].  Rounded addition
    is monotone, so max |u_b + v_b'| = max(max u + max v, -(min u + min v))
    bit for bit.  The pair (a', a) has the same u (addition commutes) and
    exactly -v, so its maximum max(max u - min v, -(min u - max v)) comes
    from the same four extrema, and only the pairs a <= a' are scanned.
    This n^3 scan finds the first maximal (a, a'), and one n x n pass on it
    the first maximal (b, b'), as an n^4 scan would.
    Most pairs need no scan.  A law depends on the relative angle only, so
    row r of m is row 0 shifted by r up to rounding:
    delta_r = max_b |m[r,b] - m[0,b-r]| (indices mod n).  Row 0 is scanned
    first.  A later pair (a, a') with d = a' - a matches the pair (0, d)
    term by term at (b-a, b'-a): the two terms from row a move by at most
    delta_a each, those from row a' by delta_a', and those from row d of
    (0, d) by delta_d.  So in exact arithmetic its maximum is at most
    best[0][d] + 2(delta_a + delta_a' + delta_d), and that of (a', a) at most
    best[0][n-d] + 2(delta_a + delta_a' + delta_{n-d}).  Rounded addition and
    subtraction err by at most 2^-53 of their result (subnormal results are
    exact) and doubling is exact, so all the rounding in the scanned values,
    the deltas and the bounds stays far below the slack that each bound
    adds, 2^-44 (max|m[0]| + max delta), which is at least 2^-44 max|m|.
    A pair is scanned unless both bounds fall below the largest value of row
    0's pairs; a skipped pair is then strictly below the maximum, so the
    maximum, the first maximal (a, a') and the (b, b') pass are those of the
    full scan, bit for bit.  Smooth laws scan a few hundred of the 2628
    pairs; laws whose maximum ties across most offsets (classical,
    superquantum) scan nearly all.
    Stage 2 refines with compass search (probe +-step on each coordinate,
    take the best improvement, halve the step on failure) until the step
    drops below REFINE_STEP_FLOOR or REFINE_MAX_EVALS probes have run, which
    may end a round part-way.
    Compass search needs no derivatives, which the step law does not have.
    """
    grid = [i * GRID_STEP for i in range(72)]
    # one correlator matrix serves all four angle pairs
    best_idx = _grid_argmax(
        [[law.evaluate(Angle(phi_u - phi_v)) for phi_v in grid] for phi_u in grid]
    )
    x = [grid[k] for k in best_idx]

    def f(angles: list[float]) -> float:
        return chsh_value(law, ChshSettings(*angles))

    fx = f(x)
    step = GRID_STEP
    evals = 0
    while step >= REFINE_STEP_FLOOR and evals < REFINE_MAX_EVALS:
        best_probe = None
        best_probe_val = fx
        for k, sign in _PROBES[:REFINE_MAX_EVALS - evals]:
            probe = list(x)
            probe[k] += sign * step
            val = f(probe)
            evals += 1
            if val > best_probe_val:
                best_probe = probe
                best_probe_val = val
        if best_probe is None:
            step *= 0.5
        else:
            x = best_probe
            fx = best_probe_val
    return ChshSettings(*x), fx
