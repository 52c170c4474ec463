"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from first principles, separate
from the package under test: direct entropy formulas, the four-cell
Shannon sum, golden-section search, the law formulas at angles reduced by
the IEEE remainder with a compass search over them, numpy's Kronecker
product and eigensolver, the csv module's reader of table laws, and
RandomStream.count_below's walk on the stream's scalar words with each
Binomial(m, 1/2) acceptance decided by binomial coefficients in exact
integers.  Tests compare package output against these routes.
"""

import csv
import io
import math
from fractions import Fraction

import mpmath
import numpy as np

from corrwork.rng import RandomStream


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


def quantum_information_mp(theta: float) -> float:
    """I(-cos theta) in mpmath, at the float theta taken exactly, rounded to a float.

    At 120 digits the cancellation in I, about 2*17 digits for the
    |cos theta| >= 6e-17 of any float theta near pi/2, still leaves ~80.
    """
    with mpmath.workdps(120):
        x = -mpmath.cos(mpmath.mpf(theta))
        return float(((1 + x) * mpmath.log1p(x) + (1 - x) * mpmath.log1p(-x)) / 2)


def h2_mp(eps: float) -> float:
    """h2(eps) in nats in mpmath, at the float eps in (0, 1) taken exactly,
    rounded to a float."""
    with mpmath.workdps(40):
        x = mpmath.mpf(eps)
        return float(-x * mpmath.log(x) - (1 - x) * mpmath.log1p(-x))


def bit_information_mp(eps: float) -> float:
    """ln 2 - h2(eps) in mpmath for eps in [0, 1/2], rounded to a float.

    For float eps < 1/2 the result is at least ~2^-107, so 80 digits leave
    ~45 after the cancellation near eps = 1/2.
    """
    if eps == 0.5:
        return 0.0
    with mpmath.workdps(80):
        x = mpmath.mpf(eps)
        h2 = -x * mpmath.log(x) - (1 - x) * mpmath.log1p(-x) if eps > 0.0 else 0
        return float(mpmath.log(2) - h2)


def binomial_tail_mp(n: int, p, k: int, upper: bool):
    """P(X >= k) (``upper``) or P(X <= k) of X ~ Binomial(n, p), in mpmath.

    The terms C(n, j) p^j (1 - p)^(n - j) are summed from j = k away from
    the mean, where they shrink at least geometrically, until one falls
    below 1e-40 of the sum; each term is the last times the ratio of
    consecutive terms.
    """
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        term = mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k)
        total, j = term, k
        while term >= total * mpmath.mpf("1e-40") and 0 < j < n:
            if upper:
                term *= (n - j) * p / ((j + 1) * (1 - p))
                j += 1
            else:
                term *= j * (1 - p) / ((n - j + 1) * p)
                j -= 1
            total += term
        return total


def uniform_below(stream, num: int, den: int) -> bool:
    """Whether a uniform U in [0, 1), read 64 bits per word from ``stream``
    until its digits decide, lies below num / den, in integers."""
    u, scale = stream.next_uint64(), 2**64
    while u * den < num * scale < (u + 1) * den:
        u, scale = u * 2**64 + stream.next_uint64(), scale * 2**64
    return (u + 1) * den <= num * scale


def half_binomial_reference(stream, m: int) -> int:
    """RandomStream._half_binomial's Binomial(m, 1/2) draw on ``stream``'s
    scalar words, with every acceptance decided in exact integers.

    An odd m adds the low bit of one word to the draw for m - 1.  For
    m = 2a >= 2 a proposal reads a block index g, the trailing zeros of a
    word (64 more for each zero word), then, from the next c words taken
    together (c of them so that 64c - 1 bits hold [0, W), and again while
    their top 64c - 1 bits reach the largest multiple of W below 2**(64c - 1)),
    the sign bit s (the low bit) and u (the other bits mod W), with the
    package's float width W = isqrt(ceil(2 ln 2 * a)) + 1.  Its offset
    D = g W + u, or -(g W + u + 1) for s = 1, is rejected if |D| > a;
    otherwise U, read 64 bits per word, is compared with
    t = 2**g C(2a, a + |D|) / C(2a, a) until the digits read decide U < t.
    """
    a, odd = divmod(m, 2)
    x = a + stream.next_uint64() % 2 if odd else a
    if a == 0:
        return x
    width = math.isqrt(math.ceil(2.0 * math.log(2.0) * a)) + 1
    count = width.bit_length() // 64 + 1
    limit = 2 ** (64 * count - 1) // width * width
    while True:
        word = stream.next_uint64()
        g = 0
        while word == 0:
            g, word = g + 64, stream.next_uint64()
        while word % 2 == 0:
            g, word = g + 1, word // 2
        while True:
            word = 0
            for _ in range(count):
                word = word * 2**64 + stream.next_uint64()
            if word // 2 < limit:
                break
        offset = g * width + word // 2 % width
        d = offset + 1 if word % 2 else offset
        if d > a:
            continue
        # C(2a, a + d) / C(2a, a) = (a! / (a - d)!) / ((a + d)! / a!)
        if uniform_below(stream, 2**g * math.perm(a, d), math.perm(a + d, d)):
            return x - d if word % 2 else x + d


def count_below_reference(seed: int, n: int, p: float):
    """RandomStream.count_below's walk on scalar words, bit by bit of
    k = ceil(p * 2**53) taken in exact rational arithmetic.

    At each bit of k from bit 52 down, the number Z of tied trials whose
    next bit is 0 is drawn by half_binomial_reference on
    RandomStream(seed).  A 1 bit of k counts those Z and keeps the others
    tied; a 0 bit keeps only the Z.  The walk stops when nothing is tied or k
    has no set bit at or below the current one.  Returns the count and the
    stream after the last draw.
    """
    stream = RandomStream(seed)
    k = math.ceil(Fraction(p) * 2**53)
    if k == 2**53:
        return n, stream
    count, tied = 0, n
    for level in range(52, -1, -1):
        if tied == 0 or k % 2 ** (level + 1) == 0:
            break
        zeros = half_binomial_reference(stream, tied)
        if k >> level & 1:
            count, tied = count + zeros, tied - zeros
        else:
            tied = zeros
    return count, stream


def law_probability(name: str, theta: float) -> float:
    """The paper's p(theta) = (1 + E)/2 of a named law at a canonical angle."""
    if name == "classical":
        return theta / math.pi
    if name == "quantum":
        return math.sin(theta / 2.0) ** 2
    step = 2.0 * theta / math.pi  # superquantum: E = sgn(step - 1)
    return 0.5 if step == 1.0 else float(step > 1.0)


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


def law_formula(name: str, table=None):
    """E(theta) of a law at a canonical angle, written from its definition:
    -1 + 2 theta/pi, -cos theta, sgn(2 theta/pi - 1), or the table's knots
    joined by straight lines in np.interp's formula, clipped to [-1, 1], and
    held flat outside them."""
    if name == "classical":
        return lambda t: -1.0 + 2.0 * t / math.pi
    if name == "quantum":
        return lambda t: -math.cos(t)
    if name == "superquantum":
        return lambda t: float(np.sign(2.0 * t / math.pi - 1.0))

    def tabulated(t):
        if t <= table[0][0]:
            return table[0][1]
        for (t0, e0), (t1, e1) in zip(table, table[1:]):
            if t == t0:
                return e0
            if t < t1:
                return min(1.0, max(-1.0, (e1 - e0) / (t1 - t0) * (t - t0) + e0))
        return table[-1][1]

    return tabulated


def finite_slopes(knots) -> bool:
    """Whether the slope (e1 - e0) / (t1 - t0) between each pair of adjacent
    sorted knots is finite, as a table law requires."""
    return all(math.isfinite((e1 - e0) / (t1 - t0))
               for (t0, e0), (t1, e1) in zip(knots, knots[1:]))


def csv_table_records(path):
    """Yield (line, theta, e) for each data record of a table law CSV, read
    by the csv module: the whole file is decoded as UTF-8 after an optional
    byte-order mark, and a record is numbered by the physical line it starts
    on, where LF, CR and CRLF each end a line.  A file that is not UTF-8, a
    bad header, a record without 2 numeric fields and a file without records
    raise ValueError with the message table laws use; the knots themselves
    are left to the caller, so that a bad knot is reported in line order."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}: line {line}: not valid UTF-8") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: line 1: empty file, expected header theta_radians,e")
    if [h.strip() for h in header] != ["theta_radians", "e"]:
        raise ValueError(f"{path}: line 1: expected header 'theta_radians,e'")
    records = 0
    while True:
        line = reader.line_num + 1
        row = next(reader, None)
        if row is None:
            break
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: line {line}: expected 2 fields, got {len(row)}")
        try:
            theta, e = float(row[0]), float(row[1])
        except ValueError:
            raise ValueError(f"{path}: line {line}: non-numeric field") from None
        records += 1
        yield line, theta, e
    if not records:
        raise ValueError(f"{path}: no data rows")


def relative_angle(phi: float, psi: float) -> float:
    """phi - psi reduced to [0, pi] by the IEEE remainder modulo 2*pi, which is exact."""
    return abs(math.remainder(phi - psi, 2.0 * math.pi))


def chsh_reference(e, angles) -> float:
    """|E(a-b) + E(a-b') + E(a'-b) - E(a'-b')| at angles (a, a', b, b')."""
    a, ap, b, bp = angles
    return abs(e(relative_angle(a, b)) + e(relative_angle(a, bp))
               + e(relative_angle(ap, b)) - e(relative_angle(ap, bp)))


def compass_refine_reference(e, start, step: float, floor: float, budget: int):
    """Compass search for the largest chsh_reference from ``start``.

    A round probes +step then -step on each of the four angles in turn and
    moves to the best strict improvement; a round without one halves the
    step.  The search ends once the step is below ``floor`` or ``budget``
    probes have run, possibly part-way through a round.  Returns the final
    angles and their value.
    """
    x, fx, probes = list(start), chsh_reference(e, start), 0
    while step >= floor and probes < budget:
        best, best_value = None, fx
        for k in range(4):
            for sign in (1.0, -1.0):
                if probes == budget:
                    break
                probe = list(x)
                probe[k] += sign * step
                value = chsh_reference(e, probe)
                probes += 1
                if value > best_value:
                    best, best_value = probe, value
        if best is None:
            step /= 2.0
        else:
            x, fx = best, best_value
    return x, fx


def chsh_operator_reference(settings) -> np.ndarray:
    """A(a) (x) (A(b) + A(b')) + A(a') (x) (A(b) - A(b')) built with np.kron,
    from planar observables A(phi) = cos(phi) Z + sin(phi) X."""

    def observable(phi: float) -> np.ndarray:
        return np.array([[math.cos(phi), math.sin(phi)], [math.sin(phi), -math.cos(phi)]])

    b, bp = observable(settings.phi_b), observable(settings.phi_b_prime)
    return (np.kron(observable(settings.phi_a), b + bp)
            + np.kron(observable(settings.phi_a_prime), b - bp))


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
