"""Closed-form shapes of the ideal lattice and of the abelian ideals, beyond the subset oracle.

Each expected value comes from a formula in the literature, not from the
code under test:

- the largest abelian ideal has the Malcev dimension;
- the maximal abelian ideals are as many as the long simple roots
  (Panyushev, *Abelian ideals of a Borel subalgebra and long positive
  roots*, 2003);
- the ideals counted by their number of minimal roots, which is their
  number of lower covers, are the W-Narayana numbers (Athanasiadis 2005;
  Armstrong, *Generalized noncrossing partitions*, Mem. AMS 949): closed
  forms for the classical types, the rows of Armstrong's §5.2 for E, F, G;
- the abelian ideals, zero included, number 2^rank (Peterson);
- in type A_n the ideals counted by dimension, zero included, are the
  coefficients of the Carlitz-Riordan q-Catalan polynomial C_{n+1}(q);
- the ideals that miss exactly the simple roots in M number Cat+(Phi_M), the
  product of prod (h + e_i - 1) / (e_i + 1) over the components of the
  Dynkin subdiagram on M (Panyushev): they are the ideals of the parabolic
  subsystem Phi_M that hold none of its simple roots.

Past the subset oracle, the search is also checked against the antichains of
the root poset (``conftest.antichain_ideals``): each ideal is the up-closure
of the antichain of its minimal roots.
"""

import json
from fractions import Fraction
from math import comb

import pytest

from borelideals import (
    MonomialIdeal,
    abelian_ideals,
    build_lattice,
    counts_by_dimension,
    enumerate_nilradical_ideals,
    extension_candidates,
    generate_positive_roots,
    is_abelian,
)
from borelideals import ideals as ideals_module
from borelideals.cli import run
from borelideals.ideals import _enumerate_masks
from conftest import antichain_ideals, system


def malcev_dimension(family, rank):
    """Dimension of the largest abelian ideal (B for rank >= 4, D for rank >= 4)."""
    n = rank
    classical = {
        "A": (n + 1) ** 2 // 4,
        "B": n * (n - 1) // 2 + 1,
        "C": n * (n + 1) // 2,
        "D": n * (n - 1) // 2,
    }
    exceptional = {("E", 6): 16, ("E", 7): 27, ("E", 8): 36, ("F", 4): 9, ("G", 2): 3}
    return classical[family] if family in classical else exceptional[family, rank]


def long_simple_roots(family, rank):
    """Long simple roots: all of them in A, D, E; rank - 1 in B; one in C and G2; two in F4."""
    return {"B": rank - 1, "C": 1, "F": 2, "G": 1}.get(family, rank)


EXCEPTIONAL_NARAYANA = {
    ("E", 6): (1, 36, 204, 351, 204, 36, 1),
    ("E", 7): (1, 63, 546, 1470, 1470, 546, 63, 1),
    ("E", 8): (1, 120, 1540, 6120, 9518, 6120, 1540, 120, 1),
    ("F", 4): (1, 24, 55, 24, 1),
    ("G", 2): (1, 6, 1),
}


def w_narayana(family, n, k):
    """Ideals with k minimal roots (zero ideal included)."""
    if (family, n) in EXCEPTIONAL_NARAYANA:
        return EXCEPTIONAL_NARAYANA[family, n][k]
    if family == "A":
        value = Fraction(comb(n + 1, k) * comb(n + 1, k + 1), n + 1)
    elif family in "BC":
        value = Fraction(comb(n, k) ** 2)
    else:  # D
        below = comb(n - 1, k - 1) if k else 0
        value = comb(n, k) ** 2 - Fraction(n, n - 1) * comb(n - 1, k) * below
    assert value.denominator == 1
    return int(value)


MALCEV_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(4, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(4, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

def q_catalan(m):
    """Coefficients of the Carlitz-Riordan C_m(q): C_0 = 1, C_{m+1} = sum_k q^((k+1)(m-k)) C_k C_{m-k}."""
    polys = [[1]]
    for top in range(m):
        poly = [0] * (1 + top * (top + 1) // 2)  # C_{top+1} has degree (top+1) top / 2
        for k in range(top + 1):
            shift = (k + 1) * (top - k)
            for i, a in enumerate(polys[k]):
                for j, b in enumerate(polys[top - k]):
                    poly[shift + i + j] += a * b
        polys.append(poly)
    return polys[m]


def component_exponents(rank, positives, simply_laced):
    """Exponents of an irreducible system named by its rank, |R+| and whether it is simply laced.

    |R+| = rank * h / 2 fixes the Coxeter number h; B_n and C_n share their exponents.
    """
    h = 2 * positives // rank
    if not simply_laced:
        return {(4, 12): (1, 5, 7, 11), (2, 6): (1, 5)}.get((rank, h), tuple(range(1, 2 * rank, 2)))
    if h == rank + 1:  # A
        return tuple(range(1, rank + 1))
    if h == 2 * rank - 2:  # D
        return (*range(1, 2 * rank - 2, 2), rank - 1)
    return {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17), 8: (1, 7, 11, 13, 17, 19, 23, 29)}[rank]


def positive_catalan(cartan, missing):
    """Cat+ of the parabolic subsystem on the simple roots in ``missing``: 1 when it is empty."""
    left = {i for i in range(len(cartan)) if missing >> i & 1}
    value = Fraction(1)
    while left:  # one connected component of the subdiagram per pass
        part, todo = [], [left.pop()]
        while todo:
            i = todo.pop()
            part.append(i)
            linked = {j for j in left if cartan[i][j]}
            left -= linked
            todo.extend(linked)
        sub = tuple(tuple(cartan[i][j] for j in part) for i in part)
        simply_laced = all(a >= -1 for row in sub for a in row)
        exponents = component_exponents(len(part), len(generate_positive_roots(sub)), simply_laced)
        h = max(exponents) + 1
        for e in exponents:
            value *= Fraction(h + e - 1, e + 1)
    assert value.denominator == 1
    return int(value)


NARAYANA_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(3, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def cli_json(argv, capsys):
    assert run([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("family,rank", MALCEV_SYSTEMS)
def test_largest_abelian_ideal_has_the_malcev_dimension(family, rank):
    rs = system(family, rank)
    assert max(j.dimension for j in abelian_ideals(rs)) == malcev_dimension(family, rank)


@pytest.mark.parametrize(
    "family,rank", [("A", 6), ("B", 5), ("C", 4), ("D", 5), ("E", 7), ("F", 4), ("G", 2)]
)
def test_every_abelian_flag_path_agrees_with_the_closed_forms(family, rank, capsys):
    # the listings flag the ideals of every layer, and stop testing after the
    # first layer without an abelian one
    rs = system(family, rank)
    top = malcev_dimension(family, rank)
    for command in ("ideals", "abelian", "classify"):
        payload = cli_json([command, family, str(rank)], capsys)
        assert payload["counts"]["abelian_total"] == 2**rank
        flagged = [e["dimension"] for e in payload["ideals"] if e["abelian"]]
        assert max(flagged) == top
    lattice = cli_json(["lattice", family, str(rank)], capsys)["lattice"]
    assert sum(node["abelian"] for node in lattice["nodes"]) == 2**rank
    assert run(["lattice", family, str(rank), "--format", "dot"]) == 0
    assert capsys.readouterr().out.count("fillcolor") == 2**rank
    every = enumerate_nilradical_ideals(rs)
    built = build_lattice(every, rs)
    assert sum(built.abelian) == 2**rank
    assert max(n.dimension for n, a in zip(built.nodes, built.abelian) if a) == top
    assert counts_by_dimension(every, rs).abelian_total == 2**rank
    assert counts_by_dimension(abelian_ideals(rs), rs).abelian_total == 2**rank


@pytest.mark.parametrize("family,rank", [("E", 8), ("A", 8)])
def test_listings_flag_abelian_ideals_without_testing_them(family, rank, monkeypatch, capsys):
    # the flags are membership in the pruned search's 2^rank masks, so no
    # listing tests an ideal's roots pairwise
    tested = []
    real = ideals_module._is_abelian_mask
    monkeypatch.setattr(
        ideals_module, "_is_abelian_mask", lambda m, rs: tested.append(m) or real(m, rs)
    )
    listed = cli_json(["ideals", family, str(rank), "--include-zero"], capsys)["ideals"]
    assert sum(entry["abelian"] for entry in listed) == 2**rank
    assert run(["lattice", family, str(rank), "--format", "dot"]) == 0
    assert capsys.readouterr().out.count("fillcolor") == 2**rank
    assert tested == []


@pytest.mark.parametrize("family,rank", MALCEV_SYSTEMS)
def test_maximal_abelian_ideals_match_the_long_simple_roots(family, rank):
    rs = system(family, rank)
    maximal = [
        ideal
        for ideal in abelian_ideals(rs)
        if not any(
            is_abelian(MonomialIdeal((*ideal.roots, r)), rs)
            for r in extension_candidates(ideal, rs)
        )
    ]
    assert len(maximal) == long_simple_roots(family, rank)


@pytest.mark.parametrize("family,rank", NARAYANA_SYSTEMS)
def test_ideals_by_minimal_roots_are_w_narayana_numbers(family, rank):
    rs = system(family, rank)
    # the vectors r - alpha_j, each a root or not: r is minimal if none is in the ideal
    steps_down = {
        r: {tuple(c - (i == j) for i, c in enumerate(r)) for j in range(rank)}
        for r in rs.positive_roots
    }

    def minimal_roots(ideal):
        members = set(ideal.roots)
        return sum(members.isdisjoint(steps_down[r]) for r in ideal.roots)

    counts = [0] * (rank + 1)
    counts[0] = 1  # the zero ideal
    for ideal in enumerate_nilradical_ideals(rs):
        counts[minimal_roots(ideal)] += 1
    assert counts == [w_narayana(family, rank, k) for k in range(rank + 1)]


@pytest.mark.parametrize("family,rank", [*MALCEV_SYSTEMS, ("A", 11)])
def test_antichain_oracle_agrees_with_the_search(family, rank):
    rs = system(family, rank)
    searched = {m for layer in _enumerate_masks(rs) for m in layer}
    assert set(antichain_ideals(rs)) == searched


@pytest.mark.parametrize("family,rank", NARAYANA_SYSTEMS)
def test_antichains_by_size_are_w_narayana_numbers(family, rank):
    sizes = list(antichain_ideals(system(family, rank)).values())
    assert [sizes.count(k) for k in range(rank + 1)] == [
        w_narayana(family, rank, k) for k in range(rank + 1)
    ]


@pytest.mark.parametrize(
    "family,rank", [("A", 7), ("B", 5), ("C", 5), ("D", 6), ("E", 6), ("F", 4)]
)
def test_lower_covers_in_the_lattice_are_w_narayana_numbers(family, rank, capsys):
    lattice = cli_json(["lattice", family, str(rank)], capsys)["lattice"]
    below = [0] * len(lattice["nodes"])
    for _, larger in lattice["edges"]:
        below[larger] += 1
    assert [below.count(k) for k in range(rank + 1)] == [
        w_narayana(family, rank, k) for k in range(rank + 1)
    ]


@pytest.mark.parametrize(
    "family,rank",
    [("A", 2), ("A", 6), ("A", 11), ("B", 2), ("B", 5), ("C", 3), ("C", 5), ("D", 4), ("D", 6)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_ideals_per_missing_set_are_positive_catalan_numbers(family, rank):
    rs = system(family, rank)
    simple = (1 << rank) - 1
    found = [0] * (1 << rank)
    for layer in _enumerate_masks(rs):
        for mask in layer:
            found[~mask & simple] += 1
    assert found == [positive_catalan(rs.cartan, missing) for missing in range(1 << rank)]


@pytest.mark.parametrize("rank", range(1, 10))
def test_ideals_by_dimension_are_the_q_catalan_coefficients(rank, capsys):
    expected = q_catalan(rank + 1)
    assert expected[0] == 1 and sum(expected) == ideals_module.nonzero_ideal_count("A", rank) + 1
    expected = {d: c for d, c in enumerate(expected) if d}  # the zero ideal is not counted
    rs = system("A", rank)
    assert counts_by_dimension(enumerate_nilradical_ideals(rs), rs).by_dimension == expected
    by_dimension = cli_json(["ideals", "A", str(rank)], capsys)["counts"]["by_dimension"]
    assert by_dimension == {str(d): c for d, c in expected.items()}
