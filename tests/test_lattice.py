import re

import pytest

from borelideals import (
    DotOptions,
    InvalidInputError,
    MonomialIdeal,
    ZERO_IDEAL,
    build_lattice,
    counts_by_dimension,
    enumerate_nilradical_ideals,
    export_dot,
    is_abelian,
)
from borelideals.cli import run
from borelideals.ideals import nonzero_ideal_count
from borelideals.lattice import _cover_edges
from conftest import system
from test_ideals import CLOSED_FORM_SYSTEMS


def cover_edges_by_inclusion(nodes):
    """Quadratic oracle: nested pairs with dimension gap exactly one."""
    edges = []
    for i, small in enumerate(nodes):
        for j, large in enumerate(nodes):
            if (
                large.dimension == small.dimension + 1
                and set(small.roots) <= set(large.roots)
            ):
                edges.append((i, j))
    return sorted(edges)


def build(family, rank):
    rs = system(family, rank)
    return rs, build_lattice(enumerate_nilradical_ideals(rs), rs)


def test_a2_lattice_shape():
    rs, lattice = build("A", 2)
    assert len(lattice.nodes) == 5
    assert lattice.nodes[0] == ZERO_IDEAL
    assert list(lattice.cover_edges) == cover_edges_by_inclusion(lattice.nodes)
    assert lattice.cover_edges == ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4))


def test_b2_lattice_is_chain_with_one_split():
    rs, lattice = build("B", 2)
    assert len(lattice.nodes) == 6
    dims = [node.dimension for node in lattice.nodes]
    assert dims == [0, 1, 2, 3, 3, 4]
    assert lattice.cover_edges == ((0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5))


def test_a1_lattice_trivial():
    rs, lattice = build("A", 1)
    assert len(lattice.nodes) == 2
    assert lattice.cover_edges == ((0, 1),)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_edges_sound_and_complete(family, rank):
    rs, lattice = build(family, rank)
    for a, b in lattice.cover_edges:
        small, large = lattice.nodes[a], lattice.nodes[b]
        assert set(small.roots) < set(large.roots)
        assert large.dimension == small.dimension + 1
    # the per-layer blocks of covers, joined, come out sorted as a whole
    assert list(lattice.cover_edges) == cover_edges_by_inclusion(lattice.nodes)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_every_node_reachable_from_bottom(family, rank):
    rs, lattice = build(family, rank)
    reached = {0}
    frontier = [0]
    adjacency = {}
    for a, b in lattice.cover_edges:
        adjacency.setdefault(a, []).append(b)
    while frontier:
        nxt = []
        for node in frontier:
            for other in adjacency.get(node, []):
                if other not in reached:
                    reached.add(other)
                    nxt.append(other)
        frontier = nxt
    assert reached == set(range(len(lattice.nodes)))


def test_unique_bottom_and_top():
    rs, lattice = build("B", 3)
    targets = {b for _, b in lattice.cover_edges}
    sources = {a for a, _ in lattice.cover_edges}
    bottoms = [i for i in range(len(lattice.nodes)) if i not in targets]
    tops = [i for i in range(len(lattice.nodes)) if i not in sources]
    assert bottoms == [0]
    assert tops == [len(lattice.nodes) - 1]
    assert lattice.nodes[-1].roots == rs.positive_roots


def test_build_lattice_rejects_non_ideal():
    rs = system("A", 2)
    with pytest.raises(InvalidInputError):
        build_lattice([MonomialIdeal(((1, 0),))], rs)


def test_build_lattice_rejects_an_incomplete_set():
    # the covers and the numbering come from the search, so they hold only
    # for the complete set of ideals
    rs = system("A", 2)
    every = sorted(enumerate_nilradical_ideals(rs), key=lambda j: j.roots)
    for missing in every:
        with pytest.raises(InvalidInputError, match="not every ideal"):
            build_lattice([j for j in every if j != missing], rs)
    assert len(build_lattice([ZERO_IDEAL, *every], rs).nodes) == len(every) + 1


def test_counts_by_dimension_values():
    a2 = system("A", 2)
    counts = counts_by_dimension(enumerate_nilradical_ideals(a2), a2)
    assert counts.by_dimension == {1: 1, 2: 2, 3: 1}
    assert counts.nonzero_total == 4
    assert counts.with_zero_total == 5
    assert counts.abelian_total == 4

    b2 = system("B", 2)
    counts = counts_by_dimension(enumerate_nilradical_ideals(b2), b2)
    assert counts.by_dimension == {1: 1, 2: 1, 3: 2, 4: 1}
    assert counts.nonzero_total == 5

    f4 = system("F", 4)
    counts = counts_by_dimension(enumerate_nilradical_ideals(f4), f4)
    assert counts.abelian_total == 16
    assert counts.nonzero_total == 104
    assert counts.with_zero_total == 105

    # any set counts, not only one closed downward: a non-abelian ideal of
    # dimension 4 beside an abelian one of dimension 5, the zero ideal added
    c3 = system("C", 3)
    non_abelian = MonomialIdeal(((1, 1, 0), (1, 1, 1), (1, 2, 1), (2, 2, 1)))
    abelian = MonomialIdeal(((0, 1, 1), (1, 1, 1), (0, 2, 1), (1, 2, 1), (2, 2, 1)))
    assert not is_abelian(non_abelian, c3) and is_abelian(abelian, c3)
    counts = counts_by_dimension([non_abelian, abelian], c3)
    assert counts.by_dimension == {4: 1, 5: 1}
    assert counts.abelian_total == 2


def test_dot_export_structure_and_stability():
    rs, lattice = build("A", 2)
    dot = export_dot(lattice)
    assert dot == export_dot(lattice)
    node_lines = re.findall(r'^  n(\d+) \[label="([^"]*)"', dot, re.M)
    edge_lines = re.findall(r"^  n(\d+) -> n(\d+);$", dot, re.M)
    assert len(node_lines) == 5
    assert len(edge_lines) == 5
    # structural round trip: the printed graph is the lattice itself
    assert {int(a) for a, _ in node_lines} == set(range(5))
    assert {(int(a), int(b)) for a, b in edge_lines} == set(lattice.cover_edges)
    assert node_lines[0][1] == "0"


def test_dot_export_marks_abelian_nodes():
    rs, lattice = build("B", 2)
    dot = export_dot(lattice)
    marked = re.findall(r"fillcolor", dot)
    assert len(marked) == sum(lattice.abelian)
    assert len(marked) == 4
    plain = export_dot(lattice, DotOptions(mark_abelian=False))
    assert "fillcolor" not in plain


def test_dot_export_custom_name_and_unicode():
    rs, lattice = build("A", 1)
    dot = export_dot(lattice, DotOptions(graph_name="g", unicode_alpha=True))
    assert dot.startswith("digraph g {")
    assert "α" in dot
    assert export_dot(lattice, DotOptions(graph_name="_G2")).startswith("digraph _G2 {")


@pytest.mark.parametrize(
    "name", ["my graph", 'my graph"; x', "", "2nd", "ideal_lattice\n", "graph", "Node"]
)
def test_dot_export_rejects_a_graph_name_that_is_not_an_unquoted_id(name):
    # a space or a quote would end the name early; a keyword is no name at all
    rs, lattice = build("A", 1)
    with pytest.raises(InvalidInputError, match="not a DOT identifier"):
        export_dot(lattice, DotOptions(graph_name=name))


@pytest.mark.parametrize("family,rank", [("E", 6), ("B", 4), ("A", 5), ("G", 2)])
def test_public_dot_export_matches_the_cli(family, rank, capsys):
    # both paths render through `_dot_chunks`, the CLI from masks layer by layer
    rs = system(family, rank)
    dot = export_dot(build_lattice(enumerate_nilradical_ideals(rs), rs))
    assert run(["lattice", family, str(rank), "--format", "dot"]) == 0
    assert capsys.readouterr().out == dot


def test_abelian_flags_match_filter():
    rs, lattice = build("G", 2)
    for node, flag in zip(lattice.nodes, lattice.abelian):
        assert flag == is_abelian(node, rs)


@pytest.mark.parametrize("family,rank", CLOSED_FORM_SYSTEMS)
def test_cover_count_is_rank_times_nodes_over_two(family, rank):
    # an ideal covers one ideal per minimal root, and the antichains of the
    # root poset counted by size are symmetric under k <-> rank - k
    # (Athanasiadis 2005); `lattice` text prints this count before the covers
    # The covers are the search's steps, numbered as the nodes are listed,
    # and come out sorted without a sort.
    rs = system(family, rank)
    covers = list(_cover_edges(rs))
    assert covers == sorted(covers)
    assert 2 * len(covers) == rank * (nonzero_ideal_count(family, rank) + 1)
