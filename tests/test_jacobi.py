"""spectral_norm of traceless 2x2 blocks [[a, b], [b, -a]], given as (a, b)
pairs, against numpy's eigensolver on the dense blocks and an mpmath oracle."""

import math
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from corrwork.jacobi import spectral_norm

from oracles import eig_norm


def block_diagonal(pairs):
    """The dense matrix with the blocks [[a, b], [b, -a]] on its diagonal."""
    n = 2 * len(pairs)
    m = [[0.0] * n for _ in range(n)]
    for k, (a, b) in enumerate(pairs):
        p = 2 * k
        m[p][p], m[p][p + 1], m[p + 1][p], m[p + 1][p + 1] = a, b, b, -a
    return m


def exact_norm(pairs):
    """The largest sqrt(a^2 + b^2) in mpmath, rounded once to a float (inf
    when it leaves the float range)."""
    with mpmath.workprec(200):
        return float(max(mpmath.sqrt(mpmath.mpf(a) ** 2 + mpmath.mpf(b) ** 2)
                         for a, b in pairs))


def test_diagonal_matrix_is_fixed_point():
    assert spectral_norm([(-5.0, 0.0)]) == 5.0


def test_known_two_by_two():
    # eigenvalues of [[3, 4], [4, -3]] are -5 and 5
    assert spectral_norm([(3.0, 4.0)]) == 5.0


def test_tiny_off_diagonal_entry_is_rotated():
    # eigenvalues of [[0, y], [y, 0]] are -y and y, however small y is
    assert spectral_norm([(0.0, 1e-13)]) == 1e-13


@pytest.mark.parametrize("n", [2, 4, 6])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_matrices_match_numpy(n, data):
    pair = st.tuples(*[st.floats(-1e3, 1e3)] * 2)
    pairs = data.draw(st.lists(pair, min_size=n // 2, max_size=n // 2))
    assert spectral_norm(pairs) == pytest.approx(eig_norm(block_diagonal(pairs)),
                                                 rel=1e-14, abs=0.0)


@pytest.mark.parametrize("pair", [
    (-9e307, 9.001e307),  # the dense form of this block once gave 0.0
    (1.7e308, 1e307), (-1.7e308, -1.7e307), (1.2e308, -1.2e308),
    (sys.float_info.max, 0.0), (0.0, -sys.float_info.max),
    (5e-324, 0.0), (3e-320, 4e-320), (1e-310, -1e-310), (2.2e-308, 5e-324),
], ids=str)
def test_extreme_scales_match_numpy_and_mpmath(pair):
    norm = spectral_norm([pair])
    assert math.isfinite(norm)
    assert norm == pytest.approx(eig_norm(block_diagonal([pair])), rel=1e-14, abs=0.0)
    assert norm == exact_norm([pair])


def test_overflows_only_when_the_norm_leaves_the_float_range():
    big = sys.float_info.max
    assert spectral_norm([(big, big)]) == math.inf == exact_norm([(big, big)])
    assert spectral_norm([(big / math.sqrt(2.0), big / 2.0)]) < math.inf


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
                      min_size=1, max_size=3))
def test_whole_finite_range_matches_mpmath(pairs):
    # hypot is within an ulp of the exact norm, and inf exactly when the
    # exact norm rounds beyond the largest float
    norm, exact = spectral_norm(pairs), exact_norm(pairs)
    if math.isinf(exact):
        assert norm == math.inf
    else:
        assert math.isfinite(norm)
        assert abs(norm - exact) <= math.ulp(exact)


def test_rejects_no_blocks():
    for blocks in ([], (), iter([])):
        with pytest.raises(ValueError, match="no blocks"):
            spectral_norm(blocks)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (0, 1)])
def test_rejects_non_finite_entries(value, i, j):
    # entry j of block i: a at j = 0, b at j = 1
    blocks = [[0.0, 0.0], [0.0, 1.0]]
    blocks[i][j] = value
    with pytest.raises(ValueError, match="not finite"):
        spectral_norm(blocks)
