from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from borelideals import InvalidInputError
from borelideals.linalg import kernel_basis, rref


def rank_by_elimination(rows, width):
    """Independent rank computation used to check rank-nullity."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_empty_rows_give_identity_basis():
    assert kernel_basis([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_invertible_matrix_gives_empty_kernel():
    assert kernel_basis([(2, -1), (-1, 2)], 2) == ()


def test_single_row_kernels():
    assert kernel_basis([(-1, 2)], 2) == ((2, 1),)
    assert kernel_basis([(2, -1)], 2) == ((1, 2),)
    assert kernel_basis([(2, 4)], 2) == ((2, -1),)


def test_all_ones_row():
    assert kernel_basis([(1, 1, 1)], 3) == ((1, 0, -1), (0, 1, -1))


def test_vectors_are_primitive_with_positive_leading_entry():
    for rows, width in [
        ([(3, 6, 9)], 3),
        ([(0, 5, -10)], 3),
        ([(2, -2, 4), (1, -1, 2)], 3),
    ]:
        for vec in kernel_basis(rows, width):
            from math import gcd

            g = 0
            for v in vec:
                g = gcd(g, v)
            assert g == 1
            lead = next(v for v in vec if v != 0)
            assert lead > 0


FIXED_MATRICES = [
    ([], 1),
    ([(1, 2, 3), (4, 5, 6), (7, 8, 9)], 3),
    ([(2, 0, -2, 0), (0, 3, 0, -3)], 4),
    ([(1, 1), (1, 1), (2, 2)], 2),
    ([(5,)], 1),
    ([(0, 0, 0)], 3),
    ([(1, -2, 1, 0), (0, 1, -2, 1)], 4),
]


@pytest.mark.parametrize("rows,width", FIXED_MATRICES)
def test_kernel_vectors_annihilate_rows(rows, width):
    basis = kernel_basis(rows, width)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@pytest.mark.parametrize("rows,width", FIXED_MATRICES)
def test_rank_nullity(rows, width):
    assert len(kernel_basis(rows, width)) == width - rank_by_elimination(rows, width)


def test_kernel_basis_rows_are_reduced_echelon():
    basis = kernel_basis([(1, 1, 1, 1)], 4)
    reduced, pivots = rref([[Fraction(x) for x in v] for v in basis], 4)
    # re-reducing an already reduced basis changes nothing beyond scaling
    assert len(reduced) == len(basis)
    for row, col in zip(basis, pivots):
        before = row[:col]
        assert all(v == 0 for v in before)


def test_row_width_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        kernel_basis([(1, 2, 3)], 2)


@st.composite
def integer_matrices(draw):
    """Rows of a small integer matrix and its width; zero and repeated rows come up often."""
    width = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    return draw(st.lists(row, max_size=7)), width


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(integer_matrices())
def test_kernel_basis_on_random_matrices(matrix):
    rows, width = matrix
    basis = kernel_basis(rows, width)
    assert len(basis) == width - rank_by_elimination(rows, width)
    for vec in basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    # the basis is already reduced: re-reducing it gives each row back, scaled to a leading 1
    reduced, _ = rref(basis, width)
    assert len(reduced) == len(basis)
    for vec, row in zip(basis, reduced):
        lead = next(x for x in vec if x)
        assert row == [Fraction(x, lead) for x in vec]
