"""The one-rotation-per-block spectral norm against numpy's eigensolver."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from corrwork.jacobi import spectral_norm

from oracles import eig_norm


def block_diagonal(blocks):
    """The matrix with the symmetric 2x2 blocks [[x, y], [y, z]] on its diagonal."""
    n = 2 * len(blocks)
    m = [[0.0] * n for _ in range(n)]
    for k, (x, y, z) in enumerate(blocks):
        p = 2 * k
        m[p][p], m[p][p + 1], m[p + 1][p], m[p + 1][p + 1] = x, y, y, z
    return m


def test_diagonal_matrix_is_fixed_point():
    assert spectral_norm([[3.0, 0.0], [0.0, -5.0]]) == 5.0


def test_known_two_by_two():
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    assert spectral_norm([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0, abs=1e-12)


def test_tiny_off_diagonal_entry_is_rotated():
    # eigenvalues of [[0,y],[y,0]] are -y and y, however small y is
    assert spectral_norm([[0.0, 1e-13], [1e-13, 0.0]]) == 1e-13


@pytest.mark.parametrize("n", [2, 4, 6])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_matrices_match_numpy(n, data):
    block = st.tuples(*[st.floats(-1e3, 1e3)] * 3)
    m = block_diagonal(data.draw(st.lists(block, min_size=n // 2, max_size=n // 2)))
    assert spectral_norm(m) == pytest.approx(eig_norm(m), rel=1e-14, abs=0.0)


def test_rejects_non_square():
    for matrix in ([[1.0, 2.0]], [[1.0, 0.0], [0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):
        with pytest.raises(ValueError, match="square"):
            spectral_norm(matrix)


def test_rejects_asymmetric():
    for matrix in ([[1.0, 2.0], [0.0, 1.0]],
                   [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 0.0, 1.0]]):
        with pytest.raises(ValueError, match="not symmetric"):
            spectral_norm(matrix)


@pytest.mark.parametrize("matrix", [
    [], [[7.5]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
], ids=["0x0", "1x1", "3x3"])
def test_rejects_odd_or_zero_order(matrix):
    with pytest.raises(ValueError, match="even nonzero order"):
        spectral_norm(matrix)


@pytest.mark.parametrize("i, j", [(0, 2), (1, 3), (2, 1), (3, 0)])
def test_rejects_a_nonzero_entry_outside_the_blocks(i, j):
    m = block_diagonal([(1.0, 0.5, -1.0), (2.0, 0.25, 0.0)])
    m[i][j] = 1e-300
    with pytest.raises(ValueError, match="outside the 2x2 blocks"):
        spectral_norm(m)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (0, 1)])
def test_rejects_non_finite_entries(value, i, j):
    # at (0, 1) the entry is set on both sides, so the block stays symmetric
    m = [[0.0, 0.0], [0.0, 1.0]]
    m[i][j] = m[j][i] = value
    with pytest.raises(ValueError, match="not finite"):
        spectral_norm(m)
