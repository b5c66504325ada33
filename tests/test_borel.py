import pytest

from borelideals import (
    CartanGenerator,
    InvalidInputError,
    RootVector,
    basis_element_ascii,
    borel_basis,
    coroot_pairing,
    monomial_bracket,
    nilradical_basis,
    root_height,
)
from conftest import system


def test_borel_basis_a2_order():
    basis = borel_basis(system("A", 2))
    assert basis.elements == (
        CartanGenerator(0),
        CartanGenerator(1),
        RootVector((1, 0)),
        RootVector((0, 1)),
        RootVector((1, 1)),
    )
    assert len(basis) == 5


@pytest.mark.parametrize(
    "family,rank,total", [("A", 2, 5), ("B", 2, 6), ("G", 2, 8), ("F", 4, 28)]
)
def test_borel_basis_size(family, rank, total):
    rs = system(family, rank)
    basis = borel_basis(rs)
    assert len(basis) == total
    assert len(basis.cartan_part) == rank
    assert [rv.root for rv in basis.nilradical_part] == list(rs.positive_roots)


@pytest.mark.parametrize("family,rank,count", [("A", 2, 3), ("B", 2, 4), ("F", 4, 24)])
def test_nilradical_basis_size(family, rank, count):
    assert len(nilradical_basis(system(family, rank))) == count


def test_monomial_bracket_values():
    a2 = system("A", 2)
    assert monomial_bracket((1, 0), (0, 1), a2) == (1, 1)
    assert monomial_bracket((1, 0), (1, 1), a2) is None
    for r in a2.positive_roots:
        assert monomial_bracket(r, r, a2) is None


def test_monomial_bracket_rejects_non_roots():
    a2 = system("A", 2)
    with pytest.raises(InvalidInputError):
        monomial_bracket((2, 1), (0, 1), a2)
    with pytest.raises(InvalidInputError):
        monomial_bracket((1, 0), (0, 0), a2)
    with pytest.raises(InvalidInputError):
        monomial_bracket((16, 0), (1, 0), a2)  # packs to the root key of a2


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("G", 2)])
def test_monomial_bracket_symmetric_support_and_grading(family, rank):
    rs = system(family, rank)
    for r in rs.positive_roots:
        for s in rs.positive_roots:
            one = monomial_bracket(r, s, rs)
            other = monomial_bracket(s, r, rs)
            assert one == other
            if one is not None:
                assert root_height(one) == root_height(r) + root_height(s)


@pytest.mark.parametrize("family,rank", [("B", 2), ("G", 2), ("F", 4)])
def test_cartan_action_values_are_bounded(family, rank):
    # evaluation of a root on a simple coroot stays within the range set by
    # the Cartan matrix column extended over root heights
    rs = system(family, rank)
    bound = max(root_height(r) for r in rs.positive_roots) * 3
    for r in rs.positive_roots:
        for j in range(rs.rank):
            assert abs(coroot_pairing(r, j, rs.cartan)) <= bound


def test_basis_element_rendering():
    assert basis_element_ascii(CartanGenerator(0)) == "H[a1]"
    assert basis_element_ascii(RootVector((1, 2))) == "X[a1+2a2]"
    assert basis_element_ascii(RootVector((1, 2)), unicode_alpha=True) == "X[α1+2α2]"
