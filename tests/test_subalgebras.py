import pytest

from borelideals import (
    InvalidInputError,
    MonomialSubalgebra,
    RootSystem,
    enumerate_nilradical_ideals,
    is_monomial_subalgebra,
    monomial_centralizer,
    monomial_normalizer,
    monomial_subalgebra,
)
from conftest import system


def centralizer_oracle(roots, rs):
    """Direct double loop over the positive-root list."""
    members = set(rs.positive_roots)
    return {
        r
        for r in rs.positive_roots
        if all(tuple(a + b for a, b in zip(r, s)) not in members for s in roots)
    }


def test_is_monomial_subalgebra_values():
    a2 = system("A", 2)
    b2 = system("B", 2)
    assert not is_monomial_subalgebra({(1, 0), (0, 1)}, a2)
    assert is_monomial_subalgebra({(0, 1), (1, 2)}, b2)
    for rs in (a2, b2, system("G", 2)):
        for r in rs.positive_roots:
            assert is_monomial_subalgebra({r}, rs)
    with pytest.raises(InvalidInputError):
        is_monomial_subalgebra({(5, 5)}, a2)


def test_factory_validates_and_canonicalizes():
    b2 = system("B", 2)
    sub = monomial_subalgebra([(1, 2), (0, 1)], b2)
    assert sub.roots == ((0, 1), (1, 2))
    assert sub.dimension == 2
    with pytest.raises(InvalidInputError):
        monomial_subalgebra([(1, 0), (0, 1)], system("A", 2))


def test_normalizer_reference_values():
    b2 = system("B", 2)
    a2 = system("A", 2)
    assert monomial_normalizer(monomial_subalgebra([(0, 1)], b2), b2).roots == (
        (0, 1),
        (1, 2),
    )
    assert monomial_normalizer(monomial_subalgebra([(1, 1)], a2), a2).roots == (
        (1, 0),
        (0, 1),
        (1, 1),
    )


def test_normalizer_of_whole_nilradical_is_itself():
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = system(family, rank)
        whole = monomial_subalgebra(rs.positive_roots, rs)
        assert monomial_normalizer(whole, rs).roots == rs.positive_roots


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2), ("B", 3)])
def test_normalizer_contains_input_and_is_closed(family, rank):
    rs = system(family, rank)
    for r in rs.positive_roots:
        sub = monomial_subalgebra([r], rs)
        normalized = monomial_normalizer(sub, rs)
        assert set(sub.roots) <= set(normalized.roots)
        assert is_monomial_subalgebra(normalized.roots, rs)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_normalizer_of_any_nonzero_ideal_is_everything(family, rank):
    rs = system(family, rank)
    for ideal in enumerate_nilradical_ideals(rs):
        sub = MonomialSubalgebra(ideal.roots)
        assert monomial_normalizer(sub, rs).roots == rs.positive_roots


def test_centralizer_reference_values():
    b2 = system("B", 2)
    a2 = system("A", 2)
    g2 = system("G", 2)
    assert monomial_centralizer(monomial_subalgebra([(0, 1)], b2), b2) == {
        (0, 1),
        (1, 2),
    }
    assert monomial_centralizer(monomial_subalgebra([(1, 1)], a2), a2) == {
        (1, 0),
        (0, 1),
        (1, 1),
    }
    expected_g2 = centralizer_oracle([(1, 0)], g2)
    assert expected_g2 == {(1, 0), (3, 1), (3, 2)}
    assert monomial_centralizer(monomial_subalgebra([(1, 0)], g2), g2) == expected_g2


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2), ("C", 3)])
def test_centralizer_matches_oracle_and_sits_inside_normalizer(family, rank):
    rs = system(family, rank)
    for r in rs.positive_roots:
        sub = monomial_subalgebra([r], rs)
        central = monomial_centralizer(sub, rs)
        assert central == centralizer_oracle([r], rs)
        assert central <= set(monomial_normalizer(sub, rs).roots)


def test_centralizer_reads_only_the_union_of_sum_rows(monkeypatch):
    # a validated subalgebra is closed, so no sum needs looking up
    rs = system("F", 4)
    sub = monomial_subalgebra([(1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1)], rs)
    calls = []
    sum_index = RootSystem.sum_index
    monkeypatch.setattr(RootSystem, "sum_index", lambda *args: calls.append(args) or sum_index(*args))
    assert monomial_centralizer(sub, rs) == centralizer_oracle(sub.roots, rs)
    assert calls == []


def test_centralizer_of_highest_root_is_everything():
    for family, rank in [("A", 3), ("B", 3), ("G", 2), ("F", 4)]:
        rs = system(family, rank)
        sub = monomial_subalgebra([rs.highest_root], rs)
        assert monomial_centralizer(sub, rs) == set(rs.positive_roots)
