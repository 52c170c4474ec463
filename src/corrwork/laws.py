"""Bipartite correlation laws E(theta) on the canonical angle range.

Three two-outcome correlation laws E(theta), each a function of the relative
angle theta between the two parties' measurement directions:

    classical     E(theta) = -1 + 2*theta/pi        (linear)
    quantum       E(theta) = -cos(theta)            (singlet cosine)
    superquantum  E(theta) = sgn(2*theta/pi - 1)    (step, sgn(0) = 0)

plus a tabulated law interpolated from user-supplied (theta, E) knots.
CorrelationLaw.from_name is the one parser of law names, the CLI's
``table:<path>`` included.

Angles are canonicalized to [0, pi] on construction: theta maps to
r = fmod(|theta|, 2*pi), reflected to min(r, 2*pi - r).  fmod is exact, and
so is 2*pi - r wherever it is the smaller (r >= pi, Sterbenz's lemma), so
the reduction is exactly |remainder(theta, 2*pi)| for every finite double,
and even: Angle(-x) == Angle(x), down to the smallest misalignment.  Every
law is therefore total over the reals.  CorrelationLaw.evaluate_many and
canonical_radians are the array twins of evaluate and Angle, with the same
arithmetic; numpy is imported only when an array routine runs.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi

#: sets a field of a _Frozen value; only its own __init__ may call it
_set = object.__setattr__


class _Frozen:
    """Immutable value whose fields are its ``__slots__``.

    Equality, hash and repr follow the fields in slot order.  The methods
    are written out rather than generated by the standard library, whose
    generator imports ``inspect`` and adds about 10 ms to the start-up of
    every CLI process.  A subclass's ``__init__`` validates its arguments
    and stores each field with ``_set``; assigning or deleting a field
    afterwards raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__  # positional class patterns

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, which maps a valid value to itself
        return type(self), self._values()


class Angle(_Frozen):
    """A relative measurement angle, stored canonically in [0, pi]."""

    __slots__ = ("radians",)

    def __init__(self, radians: float) -> None:
        if not isinstance(radians, (int, float)) or not math.isfinite(radians):
            raise ValueError(f"angle must be a finite number, got {radians!r}")
        _set(self, "radians", _reflect(float(radians)))


def _reflect(raw: float) -> float:
    """Reduce exactly to [0, pi]: |theta| -> min(r, 2pi - r), r = |theta| mod 2pi."""
    r = math.fmod(abs(raw), _TWO_PI)
    return min(r, _TWO_PI - r)


def canonical_radians(raw) -> np.ndarray:
    """Array twin of Angle: every finite angle of ``raw`` reduced to [0, pi]."""
    import numpy as np

    r = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("angles must be finite numbers")
    r = np.fmod(np.abs(r), _TWO_PI)
    return np.minimum(r, _TWO_PI - r)


class LawKind(enum.Enum):
    """The supported correlation-law families; values are the CLI names."""

    CLASSICAL_LINEAR = "classical"
    QUANTUM_COSINE = "quantum"
    SUPERQUANTUM_STEP = "superquantum"
    TABULATED = "tabulated"


#: the kinds as module globals, which evaluate reads several times faster
#: than an Enum member as a class attribute
_CLASSICAL, _QUANTUM, _SUPERQUANTUM, _TABULATED = LawKind


class CorrelationLaw(_Frozen):
    """A total map from relative angle to a correlation value in [-1, 1].

    ``table`` is only set for the tabulated kind: canonical-angle knots,
    strictly increasing, linearly interpolated and clamped outside the
    knot range.
    """

    __slots__ = ("kind", "table")

    def __init__(
        self, kind: LawKind, table: tuple[tuple[float, float], ...] | None = None
    ) -> None:
        if kind is _TABULATED:
            if not table:
                raise ValueError("tabulated law requires a non-empty table")
            prev = -math.inf
            for theta, e in table:
                _check_knot(theta, e, prev)
                prev = theta
        elif table is not None:
            raise ValueError(f"{kind.value} law does not take a table")
        _set(self, "kind", kind)
        _set(self, "table", table)

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
        """Law for a name: classical, quantum, superquantum, or ``table:<path>``
        (loaded by tabulated_from_csv); a bad name or table raises ValueError."""
        if name.startswith("table:"):
            path = name[len("table:"):]
            if not path:
                raise ValueError("table law needs a path: table:<path>")
            return tabulated_from_csv(path)
        for kind in (_CLASSICAL, _QUANTUM, _SUPERQUANTUM):
            if name == kind.value:
                return cls(kind)
        valid = "classical, quantum, superquantum, table:<path>"
        raise ValueError(f"unknown law name {name!r}; valid names: {valid}")

    @property
    def name(self) -> str:
        return self.kind.value

    def evaluate(self, theta: Angle | float) -> float:
        t = (theta if isinstance(theta, Angle) else Angle(theta)).radians
        kind = self.kind
        if kind is _CLASSICAL:
            return -1.0 + 2.0 * t / math.pi
        if kind is _QUANTUM:
            return -math.cos(t)
        if kind is _SUPERQUANTUM:
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
        kind = self.kind
        if kind is _CLASSICAL:
            return -1.0 + 2.0 * t / math.pi
        if kind is _QUANTUM:
            return -np.cos(t)
        if kind is _SUPERQUANTUM:
            return np.sign(2.0 * t / math.pi - 1.0)
        knots, values = _knot_arrays(self.table)
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
        # every knot's e is finite, so (t, inf) sorts after each knot at t
        lo = bisect_right(table, (t, math.inf)) - 1
        t0, e0 = table[lo]
        t1, e1 = table[lo + 1]
        return e0 + (e1 - e0) * (t - t0) / (t1 - t0)


def _check_knot(theta: float, e: float, prev: float, where: str = "") -> None:
    """Reject a table knot unless theta is in [0, pi] and above ``prev``, the
    previous knot's angle, and e is in [-1, 1]; ``where`` prefixes the message."""
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"{where}table angle {theta!r} outside canonical range [0, pi]")
    if theta <= prev:
        raise ValueError(f"{where}table angles must be strictly increasing")
    if not (-1.0 <= e <= 1.0):
        raise ValueError(f"{where}table correlation {e!r} outside [-1, 1]")


#: (table, its knot and value arrays) of the last table law evaluated as an
#: array; a sweep evaluates one law block after block
_last_knots: tuple = (None, None)


def _knot_arrays(table: tuple) -> np.ndarray:
    """``np.array(table).T``, converted once per table object."""
    global _last_knots
    cached, arrays = _last_knots
    if cached is not table:
        import numpy as np

        arrays = np.array(table).T
        arrays.flags.writeable = False
        _last_knots = (table, arrays)
    return arrays


def tabulated_from_csv(path) -> CorrelationLaw:
    """Load a tabulated law from a two-column CSV ``theta_radians,e``.

    The file must carry exactly that header, strictly increasing angles in
    [0, pi], and correlations in [-1, 1].  It is read as UTF-8, with or
    without a leading byte-order mark.  Parse errors name the offending
    line number, and so does a byte that is not UTF-8.
    """
    import csv  # lazily: only table laws read a CSV
    import io

    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not valid UTF-8") from exc
    knots: list[tuple[float, float]] = []
    reader = csv.reader(io.StringIO(text, newline=""))
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
        prev = knots[-1][0] if knots else -math.inf
        _check_knot(theta, e, prev, f"{path}: line {lineno}: ")
        knots.append((theta, e))
    if not knots:
        raise ValueError(f"{path}: no data rows")
    return CorrelationLaw.tabulated(knots)

