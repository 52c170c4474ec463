"""Bipartite correlation laws E(theta) on the canonical angle range.

Three two-outcome correlation laws E(theta), each a function of the relative
angle theta between the two parties' measurement directions:

    classical     E(theta) = -1 + 2*theta/pi        (linear)
    quantum       E(theta) = -cos(theta)            (singlet cosine)
    superquantum  E(theta) = sgn(2*theta/pi - 1)    (step, sgn(0) = 0)

plus a tabulated law interpolated from user-supplied (theta, E) knots.

Angles are canonicalized to [0, pi] on construction by reflecting modulo
2*pi, so every law is total over the reals.  CorrelationLaw.evaluate_many
and canonical_radians are the array twins of evaluate and Angle; numpy is
imported only when an array routine runs.
"""

from __future__ import annotations

import csv
import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Angle:
    """A relative measurement angle, stored canonically in [0, pi]."""

    radians: float

    def __post_init__(self) -> None:
        r = self.radians
        if not isinstance(r, (int, float)) or not math.isfinite(r):
            raise ValueError(f"angle must be a finite number, got {r!r}")
        object.__setattr__(self, "radians", _reflect(float(r)))


def _reflect(raw: float) -> float:
    """Reduce to [0, pi]: theta -> min(theta mod 2pi, 2pi - theta mod 2pi)."""
    r = math.fmod(raw, _TWO_PI)
    if r < 0.0:
        r += _TWO_PI
    return min(r, _TWO_PI - r)


def canonical_radians(raw) -> np.ndarray:
    """Array twin of Angle: every finite angle of ``raw`` reduced to [0, pi]."""
    import numpy as np

    r = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("angles must be finite numbers")
    r = np.fmod(r, _TWO_PI)
    r = np.where(r < 0.0, r + _TWO_PI, r)
    return np.minimum(r, _TWO_PI - r)


def _radians(theta: Angle | float) -> float:
    if isinstance(theta, Angle):
        return theta.radians
    return Angle(theta).radians


class LawKind(enum.Enum):
    """The supported correlation-law families; values are the CLI names."""

    CLASSICAL_LINEAR = "classical"
    QUANTUM_COSINE = "quantum"
    SUPERQUANTUM_STEP = "superquantum"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class CorrelationLaw:
    """A total map from relative angle to a correlation value in [-1, 1].

    ``table`` is only set for the tabulated kind: canonical-angle knots,
    strictly increasing, linearly interpolated and clamped outside the
    knot range.
    """

    kind: LawKind
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind is LawKind.TABULATED:
            if not self.table:
                raise ValueError("tabulated law requires a non-empty table")
            prev = -math.inf
            for theta, e in self.table:
                if not (0.0 <= theta <= math.pi):
                    raise ValueError(
                        f"table angle {theta!r} outside canonical range [0, pi]"
                    )
                if theta <= prev:
                    raise ValueError("table angles must be strictly increasing")
                if not (-1.0 <= e <= 1.0):
                    raise ValueError(f"table correlation {e!r} outside [-1, 1]")
                prev = theta
        elif self.table is not None:
            raise ValueError(f"{self.kind.value} law does not take a table")

    @classmethod
    def classical(cls) -> "CorrelationLaw":
        return cls(LawKind.CLASSICAL_LINEAR)

    @classmethod
    def quantum(cls) -> "CorrelationLaw":
        return cls(LawKind.QUANTUM_COSINE)

    @classmethod
    def superquantum(cls) -> "CorrelationLaw":
        return cls(LawKind.SUPERQUANTUM_STEP)

    @classmethod
    def tabulated(cls, knots) -> "CorrelationLaw":
        return cls(LawKind.TABULATED, tuple((float(t), float(e)) for t, e in knots))

    @classmethod
    def from_name(cls, name: str) -> "CorrelationLaw":
        """Law for a CLI name: classical, quantum, or superquantum."""
        for kind in (
            LawKind.CLASSICAL_LINEAR,
            LawKind.QUANTUM_COSINE,
            LawKind.SUPERQUANTUM_STEP,
        ):
            if name == kind.value:
                return cls(kind)
        valid = "classical, quantum, superquantum, table:<path>"
        raise ValueError(f"unknown law name {name!r}; valid names: {valid}")

    @property
    def name(self) -> str:
        return self.kind.value

    def evaluate(self, theta: Angle | float) -> float:
        t = _radians(theta)
        if self.kind is LawKind.CLASSICAL_LINEAR:
            return -1.0 + 2.0 * t / math.pi
        if self.kind is LawKind.QUANTUM_COSINE:
            return -math.cos(t)
        if self.kind is LawKind.SUPERQUANTUM_STEP:
            arg = 2.0 * t / math.pi - 1.0
            if arg > 0.0:
                return 1.0
            if arg < 0.0:
                return -1.0
            return 0.0
        return self._interpolate(t)

    def evaluate_many(self, theta) -> np.ndarray:
        """Array twin of evaluate: E at every angle of ``theta``, with the same
        arithmetic (a table interpolates by the formula of _interpolate)."""
        import numpy as np

        t = canonical_radians(theta)
        if self.kind is LawKind.CLASSICAL_LINEAR:
            return -1.0 + 2.0 * t / math.pi
        if self.kind is LawKind.QUANTUM_COSINE:
            return -np.cos(t)
        if self.kind is LawKind.SUPERQUANTUM_STEP:
            return np.sign(2.0 * t / math.pi - 1.0)
        knots, values = np.array(self.table).T
        if len(knots) == 1:
            return np.full_like(t, values[0])
        # clipping keeps the clamped lanes finite; np.where then picks the knot
        inside = np.clip(t, knots[0], knots[-1])
        hi = np.clip(np.searchsorted(knots, inside, side="right"), 1, len(knots) - 1)
        t0, t1, e0, e1 = knots[hi - 1], knots[hi], values[hi - 1], values[hi]
        inner = e0 + (e1 - e0) * (inside - t0) / (t1 - t0)
        return np.where(t <= knots[0], values[0],
                        np.where(t >= knots[-1], values[-1], inner))

    def _interpolate(self, t: float) -> float:
        table = self.table
        assert table is not None
        if t <= table[0][0]:
            return table[0][1]
        if t >= table[-1][0]:
            return table[-1][1]
        lo = bisect_right(table, t, key=itemgetter(0)) - 1
        t0, e0 = table[lo]
        t1, e1 = table[lo + 1]
        return e0 + (e1 - e0) * (t - t0) / (t1 - t0)


def tabulated_from_csv(path) -> CorrelationLaw:
    """Load a tabulated law from a two-column CSV ``theta_radians,e``.

    The file must carry exactly that header, strictly increasing angles in
    [0, pi], and correlations in [-1, 1].  Parse errors name the offending
    line number.
    """
    knots: list[tuple[float, float]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: line 1: empty file, expected header theta_radians,e")
        if [h.strip() for h in header] != ["theta_radians", "e"]:
            raise ValueError(f"{path}: line 1: expected header 'theta_radians,e'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                theta = float(row[0])
                e = float(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from exc
            if not (0.0 <= theta <= math.pi):
                raise ValueError(f"{path}: line {lineno}: theta {theta} outside [0, pi]")
            if knots and theta <= knots[-1][0]:
                raise ValueError(f"{path}: line {lineno}: theta must be strictly increasing")
            if not (-1.0 <= e <= 1.0):
                raise ValueError(f"{path}: line {lineno}: e {e} outside [-1, 1]")
            knots.append((theta, e))
    if not knots:
        raise ValueError(f"{path}: no data rows")
    return CorrelationLaw.tabulated(knots)

