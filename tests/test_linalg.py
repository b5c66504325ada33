import json
import subprocess
import sys
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from borelideals.roots import RootSystem, _cut, cartan_matrix
from reference import assert_reduced_kernel, rref


def kernel_basis(rows, width):
    """The rows' kernel: ``roots._cut`` by each row in turn, from the identity basis."""
    return reduce(_cut, rows, tuple(tuple(int(i == j) for j in range(width)) for i in range(width)))


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
    assert len(kernel_basis(rows, width)) == width - len(rref(rows, width)[0])


def test_kernel_basis_rows_are_reduced_echelon():
    basis = kernel_basis([(1, 1, 1, 1)], 4)
    reduced, pivots = rref([[Fraction(x) for x in v] for v in basis], 4)
    # re-reducing an already reduced basis changes nothing beyond scaling
    assert len(reduced) == len(basis)
    for row, col in zip(basis, pivots):
        before = row[:col]
        assert all(v == 0 for v in before)


def cartan_row_subsets(family, rank):
    """The Cartan rows of each subset of the simple roots, one matrix per subset."""
    cm = cartan_matrix(family, rank)
    return [[cm[i] for i in range(rank) if m >> i & 1] for m in range(1 << rank)]


@pytest.mark.parametrize(
    "family,rank",
    [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("A", 6), ("B", 6), ("C", 6), ("D", 6)],
)
def test_kernel_basis_on_every_cartan_row_subset(family, rank):
    # the kernels classify makes, 724 of them over these nine systems, each made
    # by one cut of another: read up from the identity, and down, where the
    # first read makes the whole chain below it
    subsets = cartan_row_subsets(family, rank)
    for order in (range(1 << rank), reversed(range(1 << rank))):
        kernels = RootSystem(family, rank)._kernels
        for missing in order:
            assert_reduced_kernel(subsets[missing], rank, kernels[missing])


# Makes the kernels of stdin's matrices, then says whether it loaded ``fractions``.
NO_FRACTIONS = """
import json, sys
from functools import reduce
from borelideals.roots import _cut
def kernel_basis(rows, width):
    return reduce(_cut, rows, tuple(tuple(int(i == j) for j in range(width)) for i in range(width)))
kernels = [kernel_basis(rows, width) for rows, width in json.load(sys.stdin)]
print(json.dumps(["fractions" in sys.modules, kernels]))
"""


def test_kernel_basis_uses_no_rational_arithmetic():
    matrices = list(FIXED_MATRICES)
    for family in "BC":  # rows and columns of these Cartan matrices differ
        matrices += [(rows, 4) for rows in cartan_row_subsets(family, 4)]
    proc = subprocess.run(
        [sys.executable, "-c", NO_FRACTIONS], input=json.dumps(matrices),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rational, kernels = json.loads(proc.stdout)
    assert not rational
    for (rows, width), basis in zip(matrices, kernels, strict=True):
        assert_reduced_kernel(rows, width, [tuple(v) for v in basis])


@st.composite
def integer_matrices(draw):
    """Rows of a small integer matrix and its width; zero and repeated rows come up often."""
    width = draw(st.integers(1, 8))  # up to E8's rank, so the integer combinations grow
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    return draw(st.lists(row, max_size=7)), width


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(integer_matrices())
def test_kernel_basis_on_random_matrices(matrix):
    rows, width = matrix
    basis = kernel_basis(rows, width)
    assert_reduced_kernel(rows, width, basis)
    # the basis is already reduced: re-reducing it gives each row back, scaled to a leading 1
    reduced, _ = rref(basis, width)
    assert len(reduced) == len(basis)
    for vec, row in zip(basis, reduced):
        lead = next(x for x in vec if x)
        assert row == [Fraction(x, lead) for x in vec]
