"""Inclusion lattice of the monomial ideals, with counts and DOT export."""

from __future__ import annotations

import re
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import InvalidInputError
from .ideals import (
    DimensionCounts,
    MonomialIdeal,
    _Counts,
    _dimension_counts,
    _enumerate_masks,
    _ideal_from_mask,
    _ideal_mask,
    ideal_ascii,
    nonzero_ideal_count,
)
from .roots import RootSystem


class IdealLattice(NamedTuple):
    """Ideals ordered by inclusion; edges are covers (dimension gap one).

    ``nodes`` includes the zero ideal as the unique bottom and is sorted by
    (dimension, canonical order); ``cover_edges`` holds (smaller-index,
    larger-index) pairs; ``abelian`` flags each node.
    """

    nodes: tuple[MonomialIdeal, ...]
    cover_edges: tuple[tuple[int, int], ...]
    abelian: tuple[bool, ...]


def build_lattice(ideals: Iterable[MonomialIdeal], rs: RootSystem) -> IdealLattice:
    """Assemble the lattice from the complete set of nonzero monomial ideals.

    A set that misses one raises ``InvalidInputError``: the nodes and covers come from the search.
    """
    masks = {0}
    for ideal in ideals:
        masks.add(_ideal_mask(ideal, rs))
    if len(masks) != nonzero_ideal_count(rs.family, rs.rank) + 1:
        raise InvalidInputError(f"not every ideal of {rs.family}{rs.rank}: {len(masks) - 1} nonzero given")
    nodes, abelian = zip(*_Counts(rs).walk(_enumerate_masks(rs)))
    return IdealLattice(
        nodes=tuple(_ideal_from_mask(m, rs) for m in nodes),
        cover_edges=tuple(_cover_edges(rs)),
        abelian=abelian,
    )


def _cover_edges(rs: RootSystem) -> Iterator[tuple[int, int]]:
    """The (smaller-index, larger-index) covers, numbered as the search lists the ideals.

    Each cover I < I + g is a step of the search, g a root that may join I.
    I + g precedes I + h in a layer when g < h (g is the lowest bit in which
    they differ), so the covers come out sorted.
    """
    layers = _enumerate_masks(rs)
    layer, start = next(layers), 0
    for above in layers:
        index = {mask: i for i, mask in enumerate(above, start + len(layer))}
        for i, (mask, addable) in enumerate(layer.items(), start):
            while addable:
                bit = addable & -addable
                addable ^= bit
                yield i, index[mask | bit]
        layer, start = above, start + len(layer)


def counts_by_dimension(ideals: Iterable[MonomialIdeal], rs: RootSystem) -> DimensionCounts:
    """Count nonzero ideals per dimension, totals with/without zero, and abelian.

    Any set of ideals is counted, a repeated one once; a non-ideal raises ``InvalidInputError``.
    """
    masks = {_ideal_mask(j, rs) for j in ideals} - {0}
    abelian = 1 + len(masks & _Counts(rs).abelian_masks)  # the zero ideal is abelian
    return _dimension_counts(Counter(map(int.bit_count, masks)), abelian)


class DotOptions(NamedTuple):
    """Rendering options for DOT export; defaults give the canonical ASCII form."""

    graph_name: str = "ideal_lattice"
    unicode_alpha: bool = False
    mark_abelian: bool = True


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}  # in any letter case


def export_dot(lattice: IdealLattice, options: DotOptions | None = None) -> str:
    """DOT digraph of the lattice, bottom to top, byte-stable per input; the graph name is an unquoted ID."""
    opts = options or DotOptions()
    name = opts.graph_name
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name.lower() in _DOT_KEYWORDS:
        raise InvalidInputError(f"graph name is not a DOT identifier: {name!r}")

    def render(node: MonomialIdeal, head: str, tail: str) -> str:
        return "".join((head, ideal_ascii(node, opts.unicode_alpha), tail))

    return "".join(_dot_chunks(zip(lattice.nodes, lattice.abelian), lattice.cover_edges, opts, render))


def _dot_chunks(
    nodes: Iterable[tuple[object, bool]], edges: Iterable[tuple[int, int]], opts: DotOptions, render: Callable[..., str]
) -> Iterator[str]:
    """DOT text of a lattice, one chunk per (node, abelian) pair and per cover.

    Nodes are numbered in the order they arrive; a node's line is ``render(node, head, tail)``, one join.
    """
    yield f"digraph {opts.graph_name} {{\n  rankdir=BT;\n  node [shape=box];\n"
    fill = ', style=filled, fillcolor="lightgrey"' if opts.mark_abelian else ""
    tails = ('"];\n', f'"{fill}];\n')  # a plain node, an abelian one
    for i, (node, abelian) in enumerate(nodes):
        yield render(node, f'  n{i} [label="', tails[abelian])
    for smaller, larger in edges:
        yield f"  n{smaller} -> n{larger};\n"
    yield "}\n"
