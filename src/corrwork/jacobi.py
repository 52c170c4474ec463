"""Spectral norm of a real symmetric matrix of 2x2 diagonal blocks, by the one
exact Jacobi rotation that diagonalizes each block.  Its one caller is
nonlocality.chsh_operator_norm; it stays only because the benchmark pins one
spectral_norm call per CHSH norm.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def spectral_norm(matrix: Sequence[Sequence[float]]) -> float:
    """Largest |eigenvalue| of a real symmetric matrix of 2x2 diagonal blocks.

    Raises ValueError unless the matrix is square, of even nonzero order,
    finite, zero outside its 2x2 diagonal blocks and symmetric.
    """
    n = len(matrix)
    a = [[float(x) for x in row] for row in matrix]
    if n == 0 or n % 2 or any(len(row) != n for row in a):
        raise ValueError("matrix must be square, of even nonzero order")
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if not math.isfinite(x):
                raise ValueError(f"matrix entry ({i}, {j}) is not finite")
            if x != 0.0 and i // 2 != j // 2:
                raise ValueError(f"matrix entry ({i}, {j}) is outside the 2x2 blocks")
    norm = 0.0
    for p, q in zip(range(0, n, 2), range(1, n, 2)):
        app, apq, aqq = a[p][p], a[p][q], a[q][q]
        if abs(apq - a[q][p]) > 1e-9 * max(1.0, abs(apq)):
            raise ValueError(f"matrix is not symmetric at ({p}, {q})")
        if apq != 0.0:
            # the rotation angle from tan(2*phi) = 2*apq / (app - aqq)
            tau = (aqq - app) / (2.0 * apq)
            if tau >= 0.0:
                t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
            app, aqq = app - t * apq, aqq + t * apq
        norm = max(norm, abs(app), abs(aqq))
    return norm
