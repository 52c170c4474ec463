"""Spectral norm of traceless real symmetric 2x2 blocks, given as pairs.

The module keeps its name only because perfbench traces
corrwork.jacobi.spectral_norm, once per CHSH norm; ROADMAP item 3 deletes
it after item 2 lifts that pin.
"""

from __future__ import annotations

import math
from collections.abc import Iterable


def spectral_norm(blocks: Iterable[tuple[float, float]]) -> float:
    """Largest |eigenvalue| over the blocks [[a, b], [b, -a]], given as (a, b).

    Each such block's eigenvalues are +-hypot(a, b).  Raises ValueError when
    there is no block or an entry is not finite.
    """
    norms = []
    for a, b in blocks:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"block entry ({a!r}, {b!r}) is not finite")
        norms.append(math.hypot(a, b))
    if not norms:
        raise ValueError("no blocks given")
    return max(norms)
