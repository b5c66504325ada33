import json
import subprocess
import sys
from itertools import chain, pairwise
from math import gcd

import pytest

from borelideals import (
    CapacityError,
    InvalidInputError,
    MonomialIdeal,
    RootSystem,
    ZERO_IDEAL,
    abelian_ideals,
    brute_force_ideals,
    build_lattice,
    cartan_kernel,
    coroot_pairing,
    counts_by_dimension,
    enumerate_nilradical_ideals,
    extension_candidates,
    full_ideal_classification,
    ideal_ascii,
    ideal_sort_key,
    is_abelian,
    is_monomial_ideal,
    one_dimensional_ideals,
)
from borelideals import ideals as ideals_module, roots
from borelideals.cli import run
from borelideals.ideals import (
    _brute_force_masks,
    _classification,
    _enumerate_masks,
    _ideal_from_mask,
    _is_abelian_mask,
    _search,
    nonzero_ideal_count,
)
from borelideals.roots import cartan_matrix, positive_root_count
from conftest import system
from reference import assert_reduced_kernel, exponents

# systems small enough for the exhaustive subset oracle
ORACLE_SYSTEMS = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("A", 4),
    ("A", 5),
    ("B", 2),
    ("B", 3),
    ("B", 4),
    ("C", 3),
    ("C", 4),
    ("D", 4),
    ("G", 2),
]

# classical ideal counts (zero ideal excluded)
NONZERO_IDEAL_COUNTS = {
    ("A", 1): 1,
    ("A", 2): 4,
    ("A", 3): 13,
    ("A", 4): 41,
    ("A", 5): 131,
    ("B", 2): 5,
    ("B", 3): 19,
    ("B", 4): 69,
    ("C", 3): 19,
    ("C", 4): 69,
    ("D", 4): 49,
    ("G", 2): 7,
    ("F", 4): 104,
}

# every family as far as the suite stays fast; far past the subset oracle
CLOSED_FORM_SYSTEMS = (
    [("A", n) for n in range(1, 10)]
    + [("B", n) for n in range(2, 8)]
    + [("C", n) for n in range(2, 8)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


A2_IDEALS = {
    frozenset({(1, 1)}),
    frozenset({(1, 0), (1, 1)}),
    frozenset({(0, 1), (1, 1)}),
    frozenset({(1, 0), (0, 1), (1, 1)}),
}

B2_IDEALS = {
    frozenset({(1, 2)}),
    frozenset({(1, 1), (1, 2)}),
    frozenset({(1, 0), (1, 1), (1, 2)}),
    frozenset({(0, 1), (1, 1), (1, 2)}),
    frozenset({(1, 0), (0, 1), (1, 1), (1, 2)}),
}


def as_root_sets(ideals):
    return {frozenset(j.roots) for j in ideals}


def test_one_dimensional_ideals_are_highest_root_singletons():
    assert as_root_sets(one_dimensional_ideals(system("A", 2))) == {frozenset({(1, 1)})}
    assert as_root_sets(one_dimensional_ideals(system("G", 2))) == {frozenset({(3, 2)})}
    assert as_root_sets(one_dimensional_ideals(system("A", 1))) == {frozenset({(1,)})}
    for family, rank in ORACLE_SYSTEMS:
        rs = system(family, rank)
        assert as_root_sets(one_dimensional_ideals(rs)) == {
            frozenset({rs.highest_root})
        }


def test_extension_candidates_values():
    a2 = system("A", 2)
    b2 = system("B", 2)
    assert extension_candidates(MonomialIdeal(((1, 1),)), a2) == {(1, 0), (0, 1)}
    assert extension_candidates(MonomialIdeal(((1, 2),)), b2) == {(1, 1)}
    assert extension_candidates(MonomialIdeal(b2.positive_roots), b2) == frozenset()


@pytest.mark.parametrize(
    "family,rank", [("A", 6), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]
)
def test_search_addable_roots_are_the_extension_candidates(family, rank):
    # each layer lists an addable beside each ideal, the roots its step table
    # admits; they must be exactly the public extension candidates
    rs = system(family, rank)
    seen = 0
    for masks, addables in _search(rs):
        for mask, addable in zip(masks, addables, strict=True):
            assert addable == rs.mask_of(extension_candidates(_ideal_from_mask(mask, rs), rs))
        seen += len(masks)
    assert seen == nonzero_ideal_count(family, rank) + 1


@pytest.mark.parametrize("family,rank", [("G", 2), ("F", 4), ("E", 8), ("A", 11)])
def test_each_ideal_is_made_once_from_its_canonical_parent(family, rank):
    # an ideal grows only by the roots below its lowest bit: those steps make
    # the next layer with no ideal made twice and none missed; a search that
    # grew a mask by all of its addable would repeat a mask in its layer.
    # Each layer is checked as it comes, before the search makes the next.
    rs = system(family, rank)
    made = 0
    for (masks, addables), (above, _) in pairwise(chain(_search(rs), [([], [])])):
        steps = sum((addable & ((mask & -mask) - 1)).bit_count() for mask, addable in zip(masks, addables))
        assert steps == len(above)
        assert len(set(above)) == len(above)
        made += len(masks)
    assert made == nonzero_ideal_count(family, rank) + 1


@pytest.mark.parametrize("family,rank", ORACLE_SYSTEMS + [("D", 5)])
def test_search_layers_are_the_oracle_layers(family, rank):
    # the search and the subset oracle meet in one shape, a list of masks
    # per dimension; pruned to abelian children the search keeps the oracle's
    # abelian masks, layer by layer, with the empty layers dropped
    rs = system(family, rank)
    oracle = _brute_force_masks(rs)
    assert list(_enumerate_masks(rs)) == oracle
    abelian = [[m for m in layer if _is_abelian_mask(m, rs)] for layer in oracle]
    assert list(_enumerate_masks(rs, abelian=True)) == [layer for layer in abelian if layer]


def test_extension_candidates_rejects_non_ideal():
    a2 = system("A", 2)
    with pytest.raises(InvalidInputError):
        extension_candidates(MonomialIdeal(((1, 0),)), a2)


def test_every_ideal_check_rejects_a_non_ideal_alike():
    a2 = system("A", 2)
    a1 = MonomialIdeal(((1, 0),))
    messages = []
    for call in (
        lambda: cartan_kernel(a1, a2),
        lambda: extension_candidates(a1, a2),
        lambda: build_lattice([a1], a2),
        lambda: counts_by_dimension([a1], a2),
    ):
        with pytest.raises(InvalidInputError) as raised:
            call()
        messages.append(str(raised.value))
    assert messages == ["not a monomial ideal: [X[a1]]"] * 4


def test_extension_preserves_ideal_property():
    for family, rank in [("A", 3), ("B", 3), ("G", 2)]:
        rs = system(family, rank)
        for ideal in enumerate_nilradical_ideals(rs):
            for candidate in extension_candidates(ideal, rs):
                assert is_monomial_ideal(set(ideal.roots) | {candidate}, rs)


def test_is_monomial_ideal_values():
    a2 = system("A", 2)
    assert not is_monomial_ideal({(1, 0)}, a2)
    assert is_monomial_ideal({(1, 0), (1, 1)}, a2)
    assert is_monomial_ideal(set(), a2)
    with pytest.raises(InvalidInputError):
        is_monomial_ideal({(2, 1)}, a2)


def test_enumerate_a2_matches_reference():
    assert as_root_sets(enumerate_nilradical_ideals(system("A", 2))) == A2_IDEALS


def test_enumerate_b2_matches_reference():
    assert as_root_sets(enumerate_nilradical_ideals(system("B", 2))) == B2_IDEALS


def test_enumerate_g2_matches_oracle_count():
    g2 = system("G", 2)
    found = enumerate_nilradical_ideals(g2)
    assert len(found) == 7
    assert found == brute_force_ideals(g2)


@pytest.mark.parametrize("family,rank", ORACLE_SYSTEMS)
def test_enumeration_equals_subset_oracle(family, rank):
    rs = system(family, rank)
    assert enumerate_nilradical_ideals(rs) == brute_force_ideals(rs)


@pytest.mark.parametrize("family,rank", sorted(NONZERO_IDEAL_COUNTS))
def test_nonzero_ideal_counts(family, rank):
    rs = system(family, rank)
    assert len(enumerate_nilradical_ideals(rs)) == NONZERO_IDEAL_COUNTS[(family, rank)]


@pytest.mark.parametrize("family,rank", CLOSED_FORM_SYSTEMS)
def test_nonzero_ideal_count_is_weyl_catalan(family, rank):
    # Cellini-Papi / Shi: ad-nilpotent ideals, zero included, number
    # prod (h + e_i + 1) / (e_i + 1); the CLI predicts sizes the same way
    es = exponents(family, rank)
    h = max(es) + 1
    assert len(es) == rank
    numerator = denominator = 1
    for e in es:
        numerator *= h + e + 1
        denominator *= e + 1
    assert numerator % denominator == 0
    rs = system(family, rank)
    found = enumerate_nilradical_ideals(rs)
    assert len(found) == numerator // denominator - 1
    assert nonzero_ideal_count(family, rank) == len(found)
    assert positive_root_count(family, rank) == rank * h // 2 == len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", [("A", 3), ("C", 3), ("G", 2), ("F", 4)])
def test_every_enumerated_set_is_an_ideal_containing_highest_root(family, rank):
    rs = system(family, rank)
    for ideal in enumerate_nilradical_ideals(rs):
        assert is_monomial_ideal(ideal.roots, rs)
        assert rs.highest_root in ideal.roots


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_monotone_chain_reaches_every_ideal(family, rank):
    # every ideal of dimension >= 2 stays an ideal after dropping some
    # minimal-height member, so breadth-first growth cannot miss any
    rs = system(family, rank)
    found = enumerate_nilradical_ideals(rs)
    sets = as_root_sets(found)
    for ideal in found:
        if ideal.dimension < 2:
            continue
        min_height = min(sum(r) for r in ideal.roots)
        shrunk = [
            frozenset(set(ideal.roots) - {r})
            for r in ideal.roots
            if sum(r) == min_height
        ]
        assert any(s in sets and is_monomial_ideal(s, rs) for s in shrunk)


def test_brute_force_respects_capacity_bound():
    with pytest.raises(CapacityError):
        brute_force_ideals(system("F", 4))
    with pytest.raises(CapacityError):
        brute_force_ideals(system("A", 3), max_positive_roots=5)
    assert len(brute_force_ideals(system("A", 3), max_positive_roots=6)) == 13


def test_is_abelian_values():
    b2 = system("B", 2)
    a2 = system("A", 2)
    for family, rank in ORACLE_SYSTEMS:
        rs = system(family, rank)
        assert is_abelian(MonomialIdeal((rs.highest_root,)), rs)
    assert is_abelian(MonomialIdeal(((1, 0), (1, 1), (1, 2))), b2)
    assert not is_abelian(MonomialIdeal(((1, 0), (0, 1), (1, 1))), a2)


def test_abelian_ideals_rank2_values():
    assert [frozenset(j.roots) for j in abelian_ideals(system("A", 2))] == [
        frozenset(),
        frozenset({(1, 1)}),
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 1)}),
    ]
    assert [frozenset(j.roots) for j in abelian_ideals(system("B", 2))] == [
        frozenset(),
        frozenset({(1, 2)}),
        frozenset({(1, 1), (1, 2)}),
        frozenset({(1, 0), (1, 1), (1, 2)}),
    ]


@pytest.mark.parametrize("family,rank", CLOSED_FORM_SYSTEMS)
def test_abelian_count_is_two_to_the_rank(family, rank):
    # classical count of abelian ideals, zero ideal included
    rs = system(family, rank)
    listed = abelian_ideals(rs)
    assert listed[0] == ZERO_IDEAL
    assert len(listed) == 2**rank
    assert listed == tuple(sorted(listed, key=ideal_sort_key))


@pytest.mark.parametrize("family,rank", [("A", 9), ("E", 8)])
def test_abelian_search_stops_at_the_first_empty_layer(family, rank, monkeypatch, tmp_path):
    # the parent of an abelian ideal is abelian, so the search pruned to
    # abelian children makes the 2^rank abelian ideals alone, one layer per
    # dimension 0..top, and stops at the first empty layer after them
    rs = system(family, rank)
    made = []
    real = ideals_module._enumerate_masks

    def counted(*args, **kwargs):
        for layer in real(*args, **kwargs):
            made.append(list(layer))
            yield layer

    monkeypatch.setattr(ideals_module, "_enumerate_masks", counted)
    listed = abelian_ideals(rs)
    top = max(j.dimension for j in listed)
    assert len(listed) == 2**rank
    searches = [list(made)]
    made.clear()
    target = tmp_path / "abelian.txt"
    assert run(["abelian", family, str(rank), "--out", str(target)]) == 0
    assert len(target.read_text().splitlines()) == 2**rank
    searches.append(made)
    for layers in searches:
        assert len(layers) == top + 1
        assert all(m.bit_count() == d for d, layer in enumerate(layers) for m in layer)
        assert all(ideals_module._is_abelian_mask(m, rs) for layer in layers for m in layer)
        assert sum(map(len, layers)) == 2**rank


def test_cartan_kernel_values():
    a2 = system("A", 2)
    assert cartan_kernel(MonomialIdeal(a2.positive_roots), a2).vectors == (
        (1, 0),
        (0, 1),
    )
    assert cartan_kernel(MonomialIdeal(((1, 0), (1, 1))), a2).vectors == ((2, 1),)
    assert cartan_kernel(MonomialIdeal(((1, 1),)), a2).vectors == ()
    assert cartan_kernel(ZERO_IDEAL, a2).vectors == ()


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_cartan_kernel_annihilates_complement_exactly(family, rank):
    rs = system(family, rank)
    for ideal in [ZERO_IDEAL] + sorted(
        enumerate_nilradical_ideals(rs), key=ideal_sort_key
    ):
        kernel = cartan_kernel(ideal, rs)
        members = set(ideal.roots)
        outside = [r for r in rs.positive_roots if r not in members]
        for vec in kernel.vectors:
            for beta in outside:
                assert (
                    sum(
                        c * coroot_pairing(beta, j, rs.cartan)
                        for j, c in enumerate(vec)
                    )
                    == 0
                )


@pytest.mark.parametrize(
    "family,rank",
    [("A", 9), ("B", 7), ("C", 7), ("D", 8), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_kernels_satisfy_their_defining_equations(family, rank):
    # Checked in integers, without ``rref``.  A Cartan matrix is invertible,
    # so the rows of the missing set M are independent and the kernel has
    # dimension rank - |M|; vectors in echelon form are independent, so
    # rank - |M| of them annihilated by those rows span it.
    rs = system(family, rank)
    for missing in range(1 << rank):
        rows = [rs.cartan[i] for i in range(rank) if missing >> i & 1]
        kernel, mixed = _classification(missing, rs)
        vectors = kernel.vectors
        assert len(vectors) == rank - len(rows)
        assert mixed == (0 < missing < (1 << rank) - 1)
        pivots = []
        for vec in vectors:
            assert len(vec) == rank and all(type(c) is int for c in vec)
            assert all(sum(a * c for a, c in zip(row, vec)) == 0 for row in rows)
            assert gcd(*vec) == 1
            pivot = next(j for j, c in enumerate(vec) if c)
            assert vec[pivot] > 0
            pivots.append(pivot)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for vec, own in zip(vectors, pivots):
            assert all(vec[p] == 0 for p in pivots if p != own)


def test_classification_a2():
    cls = full_ideal_classification(system("A", 2))
    assert [e.ideal.dimension for e in cls.entries] == [0, 1, 2, 2, 3]
    assert [e.kernel_dimension for e in cls.entries] == [0, 0, 1, 1, 2]
    assert [e.mixed for e in cls.entries] == [False, False, True, True, False]
    assert cls.note


def test_classification_b2():
    cls = full_ideal_classification(system("B", 2))
    assert len(cls.entries) == 6
    assert cls.entries[-1].ideal.dimension == 4
    assert cls.entries[-1].kernel_dimension == 2
    assert cls.entries[0].ideal == ZERO_IDEAL
    assert cls.entries[0].kernel_dimension == 0


def test_classification_a1():
    cls = full_ideal_classification(system("A", 1))
    assert [(e.ideal.dimension, e.kernel_dimension) for e in cls.entries] == [
        (0, 0),
        (1, 1),
    ]


@pytest.mark.parametrize(
    "family,rank",
    [("A", 3), ("B", 3), ("G", 2), ("A", 6), ("B", 5), ("C", 5), ("D", 6), ("E", 6), ("F", 4)],
)
def test_classification_matches_per_ideal_kernels(family, rank):
    rs = system(family, rank)
    cls = full_ideal_classification(rs)
    assert [e.ideal for e in cls.entries] == [ZERO_IDEAL] + sorted(
        enumerate_nilradical_ideals(rs), key=ideal_sort_key
    )
    for entry in cls.entries:
        # the kernel of every root outside the ideal, without the reduction
        # to the simple roots it misses
        members = set(entry.ideal.roots)
        rows = [
            tuple(coroot_pairing(r, j, rs.cartan) for j in range(rs.rank))
            for r in rs.positive_roots
            if r not in members
        ]
        assert_reduced_kernel(rows, rs.rank, entry.kernel.vectors)
        assert entry.kernel == cartan_kernel(entry.ideal, rs)
        assert entry.mixed == (
            entry.kernel_dimension > 0
            and entry.ideal.dimension < len(rs.positive_roots)
        )


def counted_cuts(monkeypatch):
    """The list that each later ``roots._cut`` call appends its row to."""
    cuts, cut = [], roots._cut
    monkeypatch.setattr(roots, "_cut", lambda basis, row: cuts.append(row) or cut(basis, row))
    return cuts


def test_cartan_kernel_reduces_once_per_missing_set(monkeypatch):
    # a kernel depends only on the simple roots an ideal misses, and each is
    # one cut of another, so a system cuts at most 2^rank - 1 times, however
    # many ideals ask
    cuts = counted_cuts(monkeypatch)
    rs = RootSystem("E", 6)
    for ideal in [ZERO_IDEAL, *enumerate_nilradical_ideals(rs)]:
        cartan_kernel(ideal, rs)
    assert 0 < len(cuts) <= (1 << rs.rank) - 1
    reduced = len(cuts)
    full_ideal_classification(rs)
    assert len(cuts) == reduced  # the classification reads the same kernels


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_command_reduces_once_per_missing_set(monkeypatch, capsys, fmt):
    # the command renders each missing set's suffix once, and drops its kernel
    # then; a set first shows after every set that holds it, so no kernel is
    # dropped before a cut reads it, and each of the 2^6 kernels of A6 is made
    # once for its 429 ideals, all but the identity by one cut
    cuts = counted_cuts(monkeypatch)
    assert run(["classify", "A", "6", "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert len(cuts) == (1 << 6) - 1


# Prints the kernels of A120's zero ideal, which misses all 120 simple roots,
# and of its ideal of the roots over any of a1..a60, which misses a61..a120,
# read with a recursion limit no deeper than their chains of 120 and 60 cuts.
DEEP_KERNELS = """
import json, sys
from borelideals import MonomialIdeal, RootSystem, ZERO_IDEAL, cartan_kernel
rs = RootSystem("A", 120)
over = MonomialIdeal(tuple(r for r in rs.positive_roots if any(r[:60])))
sys.setrecursionlimit(60)
print(json.dumps([cartan_kernel(ZERO_IDEAL, rs).vectors, cartan_kernel(over, rs).vectors]))
"""


def test_cartan_kernel_makes_a_long_chain_of_cuts_without_recursion():
    proc = subprocess.run([sys.executable, "-c", DEEP_KERNELS], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    zero, over = json.loads(proc.stdout)
    assert zero == []
    cartan = cartan_matrix("A", 120)
    assert_reduced_kernel(cartan[60:], 120, [tuple(v) for v in over])


@pytest.mark.parametrize(
    "family,rank",
    [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("E", 6), ("E", 7), ("F", 4), ("G", 2)],
)
def test_mask_order_matches_ideal_sort_key(family, rank):
    # the layers start at the zero ideal; each sorted on its own, joined in
    # order they give the whole sort
    rs = system(family, rank)
    ideals = enumerate_nilradical_ideals(rs)
    layers = list(_enumerate_masks(rs))
    assert list(layers[0]) == [0]
    assert [{m.bit_count() for m in layer} for layer in layers] == [
        {d} for d in range(len(rs.positive_roots) + 1)
    ]
    by_mask = [m for layer in layers[1:] for m in layer]
    assert by_mask == [rs.mask_of(j.roots) for j in sorted(ideals, key=ideal_sort_key)]


def test_ideal_ascii_rendering():
    assert ideal_ascii(ZERO_IDEAL) == "0"
    assert ideal_ascii(MonomialIdeal(((1, 0), (1, 1)))) == "[X[a1], X[a1+a2]]"
