"""Bipartite correlation laws E(theta) on the canonical angle range.

Three two-outcome correlation laws E(theta), each a function of the relative
angle theta between the two parties' measurement directions:

    classical     E(theta) = -1 + 2*theta/pi        (linear)
    quantum       E(theta) = -cos(theta)            (singlet cosine)
    superquantum  E(theta) = sgn(2*theta/pi - 1)    (step, sgn(0) = 0)

plus CorrelationLaw("tabulated", knots), interpolated from (theta, E) knots.
A law is its name; CorrelationLaw.from_name is the one parser of the CLI's
law names, those of NAMED_LAWS and ``table:<path>``.

Angles are canonicalized to [0, pi] on construction: theta maps to
r = fmod(|theta|, 2*pi), reflected to min(r, 2*pi - r).  fmod is exact, and
so is 2*pi - r wherever it is the smaller (r >= pi, Sterbenz's lemma), so
the reduction is exactly |remainder(theta, 2*pi)| for every finite double,
and even: Angle(-x) == Angle(x), down to the smallest misalignment.  Every
law is therefore total over the reals.  CorrelationLaw.evaluate_many and
canonical_radians are the array twins of evaluate and Angle, with the same
arithmetic; numpy is imported only when an array routine runs.  A table law
interpolates by np.interp's formula, (e1 - e0) / (t1 - t0) * (t - t0) + e0,
takes e0 itself at a knot, and is clipped to [-1, 1]; a table whose slope
between two knots overflows is rejected.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain
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


#: the closed-form laws, in report order; the one other law name is "tabulated"
NAMED_LAWS = ("classical", "quantum", "superquantum")


class CorrelationLaw(_Frozen):
    """A total map from relative angle to a correlation value in [-1, 1].

    ``name`` is one of NAMED_LAWS or "tabulated", and ``table`` is only set
    for a tabulated law: canonical-angle knots, frozen to a tuple of float
    pairs, strictly increasing with a finite slope between neighbours,
    linearly interpolated and clamped outside the knot range.
    """

    __slots__ = ("name", "table")

    def __init__(self, name: str, table=None) -> None:
        if name == "tabulated":
            table = tuple((float(t), float(e)) for t, e in table or ())
            if not table:
                raise ValueError("tabulated law requires a non-empty table")
            for prev, knot in zip((None, *table), table):
                _check_knot(*knot, prev)
        elif name not in NAMED_LAWS:
            raise ValueError(f"law name {name!r} is neither tabulated nor in NAMED_LAWS")
        elif table is not None:
            raise ValueError(f"{name} law does not take a table")
        _set(self, "name", name)
        _set(self, "table", table)

    @classmethod
    def from_name(cls, name: str) -> "CorrelationLaw":
        """Law for a name of NAMED_LAWS or ``table:<path>`` (loaded by
        tabulated_from_csv); a bad name or table raises ValueError."""
        if name.startswith("table:"):
            path = name[len("table:"):]
            if not path:
                raise ValueError("table law needs a path: table:<path>")
            return tabulated_from_csv(path)
        if name not in NAMED_LAWS:
            raise ValueError(f"unknown law name {name!r}; valid names: "
                             f"{', '.join(NAMED_LAWS)}, table:<path>")
        return cls(name)

    def evaluate(self, theta: Angle | float) -> float:
        t = (theta if isinstance(theta, Angle) else Angle(theta)).radians
        name = self.name
        if name == "classical":
            return -1.0 + 2.0 * t / math.pi
        if name == "quantum":
            return -math.cos(t)
        if name == "superquantum":
            arg = 2.0 * t / math.pi - 1.0
            if arg > 0.0:
                return 1.0
            if arg < 0.0:
                return -1.0
            return 0.0
        return self._interpolate(t)

    def evaluate_many(self, theta) -> np.ndarray:
        """Array twin of evaluate: E at every angle of ``theta``, with the same
        arithmetic.  A table law is np.interp clipped to [-1, 1]: between knots
        t0 < t < t1 its formula is (e1 - e0) / (t1 - t0) * (t - t0) + e0, and
        at a knot it is the knot's e, which _interpolate computes alike."""
        import numpy as np

        t = canonical_radians(theta)
        if self.name == "classical":
            return -1.0 + 2.0 * t / math.pi
        if self.name == "quantum":
            return -np.cos(t)
        if self.name == "superquantum":
            return np.sign(2.0 * t / math.pi - 1.0)
        pairs = np.fromiter(chain.from_iterable(self.table), float, 2 * len(self.table))
        return np.clip(np.interp(t, pairs[0::2], pairs[1::2]), -1.0, 1.0)

    def _interpolate(self, t: float) -> float:
        table = self.table
        if t <= table[0][0]:
            return table[0][1]
        if t >= table[-1][0]:
            return table[-1][1]
        # every knot's e is finite, so (t, inf) sorts after each knot at t
        lo = bisect_right(table, (t, math.inf)) - 1
        t0, e0 = table[lo]
        if t == t0:
            return e0
        t1, e1 = table[lo + 1]
        e = (e1 - e0) / (t1 - t0) * (t - t0) + e0
        # rounded, the formula can pass a knot at +-1 by an ulp: clip, as the twin does
        return e if -1.0 <= e <= 1.0 else math.copysign(1.0, e)


def _check_knot(theta: float, e: float, prev: tuple | None, where: str = "") -> None:
    """Reject a table knot unless theta is in [0, pi], e is in [-1, 1], and,
    after the previous knot ``prev`` (None for the first), theta is larger and
    the slope between them is finite; ``where`` prefixes the message."""
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"{where}table angle {theta!r} outside canonical range [0, pi]")
    t0, e0 = prev or (-math.inf, e)  # nothing below the first knot, slope 0
    if theta <= t0:
        raise ValueError(f"{where}table angles must be strictly increasing")
    if not (-1.0 <= e <= 1.0):
        raise ValueError(f"{where}table correlation {e!r} outside [-1, 1]")
    if not math.isfinite((e - e0) / (theta - t0)):
        raise ValueError(f"{where}table slope from angle {t0!r} to {theta!r} overflows")


def tabulated_from_csv(path) -> CorrelationLaw:
    """Load a tabulated law from a two-column CSV ``theta_radians,e``.

    The file must carry exactly that header, then one unquoted record per
    line: strictly increasing angles in [0, pi], correlations in [-1, 1],
    and a finite slope between neighbouring rows; blank and whitespace-only
    lines are skipped.  A line ends at LF, CR or CRLF and is read as UTF-8;
    the file may start with a byte-order mark.  Errors are raised in line
    order and name the offending line, a byte that is not UTF-8 included.
    """
    with open(path, "rb") as handle:
        # bytes.splitlines ends a line at LF, CR and CRLF only, none inside UTF-8
        lines = handle.read().removeprefix(b"\xef\xbb\xbf").splitlines()
    if not lines:
        raise ValueError(f"{path}: line 1: empty file, expected header theta_radians,e")
    knots: list[tuple[float, float]] = []
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}: line {lineno}: "
        try:
            fields = line.decode("utf-8").split(",")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where}not valid UTF-8") from exc
        if lineno == 1:
            if [field.strip() for field in fields] != ["theta_radians", "e"]:
                raise ValueError(f"{where}expected header 'theta_radians,e'")
            continue
        if len(fields) == 1 and not fields[0].strip():
            continue
        if len(fields) != 2:
            raise ValueError(f"{where}expected 2 fields, got {len(fields)}")
        try:
            theta = float(fields[0])
            e = float(fields[1])
        except ValueError as exc:
            raise ValueError(f"{where}non-numeric field") from exc
        _check_knot(theta, e, knots[-1] if knots else None, where)
        knots.append((theta, e))
    if not knots:
        raise ValueError(f"{path}: no data rows")
    return CorrelationLaw("tabulated", knots)
