"""CHSH parameter, local-realist ceiling, and the quantum operator bound.

The CHSH parameter for a correlation law E and four measurement angles is

    S = |E(a,b) + E(a,b') + E(a',b) - E(a',b')|

with each correlator evaluated at the canonicalized relative angle;
ChshSettings.combine forms that signed sum for any function of the angle,
so energetic_chsh shares it.  Three
reference ceilings apply: deterministic local strategies give exactly 2,
the two-level operator construction caps the singlet value at 2*sqrt(2),
and the algebra allows at most 4.

The operator bound is Landau's closed form (Phys. Lett. A 120, 54, 1987).
With planar observables A(phi) = cos(phi) Z + sin(phi) X, the operator
A(a) (x) (A(b) + A(b')) + A(a') (x) (A(b) - A(b')) is the Pauli sum
alpha ZZ + beta ZX + gamma XZ + delta XX.  It commutes with Y (x) Y, so in
the Bell basis (phi-, psi+, phi+, psi-) it is two traceless 2x2 blocks,
[[alpha - delta, beta + gamma], [beta + gamma, delta - alpha]] and
[[alpha + delta, beta - gamma], [beta - gamma, -alpha - delta]].  A block
[[x, y], [y, -x]] has eigenvalues +-hypot(x, y), so the norm is
max(hypot(alpha - delta, beta + gamma), hypot(alpha + delta, beta - gamma)).
alpha -+ delta and beta +- gamma are the CHSH-signed sums of the cosines and
sines of a_k +- b_l, so each hypot is |sum of +-e^{i(a_k +- b_l)}|, and
neither exceeds 2*sqrt(2).  jacobi.spectral_norm takes the two blocks as
(x, y) pairs and returns the larger hypot, in one call per norm.  verify
checks the form against numpy's eigvalsh of the operators built from the
observables.

maximize_chsh searches the four angle settings for the largest S: an exact
O(n^2) scan of the grid at step pi/36, in plain Python over an exactly
circulant matrix of correlators, followed by derivative-free compass
refinement, chosen because the step law is discontinuous.  This module
never imports numpy.
"""

from __future__ import annotations

import itertools
import math
from operator import add, sub
from typing import Callable

from .jacobi import spectral_norm
from .laws import Angle, CorrelationLaw, _Frozen, _set

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: coarse stage of maximize_chsh: grid points over [0, 2pi) in each angle
GRID_POINTS = 72
GRID_STEP = 2.0 * math.pi / GRID_POINTS
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
        # finite angles can still differ by inf, which no relative angle allows
        for a in ("phi_a", "phi_a_prime"):
            for b in ("phi_b", "phi_b_prime"):
                diff = getattr(self, a) - getattr(self, b)
                if not math.isfinite(diff):
                    raise ValueError(f"{a} - {b} must be finite, got {diff!r}")

    @classmethod
    def standard(cls) -> "ChshSettings":
        """The angles that maximize the singlet value: 0, pi/2, pi/4, -pi/4."""
        return cls(0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.__slots__, self._values()))

    def combine(self, f: Callable[[Angle], float]) -> float:
        """The CHSH combination |f(a-b) + f(a-b') + f(a'-b) - f(a'-b')| of a
        function of the canonical relative angle, summed left to right."""
        a, ap, b, bp = self.phi_a, self.phi_a_prime, self.phi_b, self.phi_b_prime
        return abs(f(Angle(a - b)) + f(Angle(a - bp))
                   + f(Angle(ap - b)) - f(Angle(ap - bp)))


def chsh_value(law: CorrelationLaw, settings: ChshSettings) -> float:
    """S = |E(a,b) + E(a,b') + E(a',b) - E(a',b')| for the given law."""
    return settings.combine(law.evaluate)


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


def chsh_operator_norm(settings: ChshSettings) -> float:
    """Spectral norm of the CHSH operator; at most 2*sqrt(2) for any angles."""
    ca, sa = math.cos(settings.phi_a), math.sin(settings.phi_a)
    cap, sap = math.cos(settings.phi_a_prime), math.sin(settings.phi_a_prime)
    cb, sb = math.cos(settings.phi_b), math.sin(settings.phi_b)
    cbp, sbp = math.cos(settings.phi_b_prime), math.sin(settings.phi_b_prime)
    p, q, r, t = cb + cbp, sb + sbp, cb - cbp, sb - sbp
    alpha, beta = ca * p + cap * r, ca * q + cap * t
    gamma, delta = sa * p + sap * r, sa * q + sap * t
    return spectral_norm(((alpha - delta, beta + gamma), (alpha + delta, beta - gamma)))


def _grid_argmax(m) -> tuple[int, int, int, int]:
    """First (a, a', b, b') in lexicographic order maximizing
    |(m[a][b] + m[a'][b]) + (m[a][b'] - m[a'][b'])| over an n x n circulant
    matrix m; maximize_chsh's docstring proves the scan exact."""
    uv = [(list(map(add, m[0], row)), list(map(sub, m[0], row))) for row in m]
    tops = [max(max(u) + max(v), -(min(u) + min(v))) for u, v in uv]
    top = max(tops)
    d = tops.index(top)
    u, v = uv[d]
    b, bp = next((b, bp) for b, ub in enumerate(u) for bp, vb in enumerate(v)
                 if abs(ub + vb) == top)
    return 0, d, b, bp


def maximize_chsh(law: CorrelationLaw) -> tuple[ChshSettings, float]:
    """Angles maximizing the CHSH parameter for a law, and the value there.

    Stage 1 takes the first maximum, in lexicographic angle order, of S on
    a grid of step pi/36 over [0, 2pi) in each angle.  Cell (i, j) of the
    correlator matrix m holds E at grid offset (i - j) mod n, so m is
    exactly circulant: m[a, b] = m[0, b - a] (indices mod n).  With (a, a')
    fixed, S = |u_b + v_b'| with u_b = m[a,b] + m[a',b] and
    v_b' = m[a,b'] - m[a',b'], and these are, bit for bit, the u and v of
    the pair (0, a' - a) at columns b - a and b' - a.  So the first maximal
    pair is (0, d) for the first maximal offset d.  Rounded addition is
    monotone, so max |u_b + v_b'| = max(max u + max v, -(min u + min v))
    bit for bit, and one n x n pass on (0, d) finds the first maximal
    (b, b'), as an n^4 scan would.
    Stage 2 refines with compass search (probe +-step on each coordinate,
    take the best improvement, halve the step on failure) until the step
    drops below REFINE_STEP_FLOOR or REFINE_MAX_EVALS probes have run, which
    may end a round part-way.
    Compass search needs no derivatives, which the step law does not have.
    """
    n = GRID_POINTS
    grid = [i * GRID_STEP for i in range(n)]
    angles = [Angle(g) for g in grid]
    # one evaluation per cell, not per offset: perfbench pins 72 * 72 evaluations
    best_idx = _grid_argmax(
        [[law.evaluate(angles[(u - v) % n]) for v in range(n)] for u in range(n)]
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
