"""Cyclic Jacobi eigenvalue iteration for small dense symmetric matrices.

Plain-Python on nested lists: the matrices here are 4x4 and block-diagonal,
two 2x2 blocks that one rotation each diagonalizes, so simplicity and
bit-stable behavior matter more than throughput.  Each sweep visits every
off-diagonal pair (p, q) in row order and applies the rotation that zeroes
a[p][q]; sweeps repeat until every off-diagonal magnitude falls below the
convergence threshold.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: all off-diagonal magnitudes must fall below this for convergence
OFF_DIAGONAL_TOL = 1e-12

_MAX_SWEEPS = 100


def symmetric_eigenvalues(matrix: Sequence[Sequence[float]]) -> list[float]:
    """Eigenvalues of a real symmetric matrix, ascending.

    Raises ValueError for a non-square or non-symmetric input and
    ArithmeticError if the sweep limit is hit before convergence (does not
    happen for well-scaled small matrices).
    """
    n = len(matrix)
    a = [[float(x) for x in row] for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > 1e-9 * max(1.0, abs(a[i][j])):
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")

    if n == 1:
        return [a[0][0]]

    for _ in range(_MAX_SWEEPS):
        off = max(
            abs(a[p][q]) for p in range(n - 1) for q in range(p + 1, n)
        )
        if off < OFF_DIAGONAL_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) < OFF_DIAGONAL_TOL / (n * n):
                    continue
                # rotation angle from tan(2*phi) = 2*apq / (app - aqq)
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = 0.0
                a[q][p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = aip * c - aiq * s
                    a[p][i] = a[i][p]
                    a[i][q] = aiq * c + aip * s
                    a[q][i] = a[i][q]
    else:
        raise ArithmeticError("Jacobi iteration did not converge")

    return sorted(a[i][i] for i in range(n))


def spectral_norm(matrix: Sequence[Sequence[float]]) -> float:
    """Largest absolute eigenvalue of a real symmetric matrix."""
    eigs = symmetric_eigenvalues(matrix)
    return max(abs(eigs[0]), abs(eigs[-1]))
