"""Inclusion lattice of the monomial ideals, with counts and DOT export."""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterable, Iterator, NamedTuple

from .errors import InvalidInputError
from .ideals import (
    MonomialIdeal,
    _abelian_flags,
    _enumerate_masks,
    _ideal_from_mask,
    _is_ideal_mask,
    _layered,
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
        mask = rs.mask_of(ideal.roots)
        if not _is_ideal_mask(mask, rs):
            raise InvalidInputError(f"not a monomial ideal: {ideal_ascii(ideal)}")
        masks.add(mask)
    if len(masks) != nonzero_ideal_count(rs.family, rs.rank) + 1:
        raise InvalidInputError(f"not every ideal of {rs.family}{rs.rank}: {len(masks) - 1} nonzero given")
    layers = list(_enumerate_masks(rs))
    return IdealLattice(
        nodes=tuple(_ideal_from_mask(m, rs) for layer in layers for m in layer),
        cover_edges=tuple(_cover_edges(rs)),
        abelian=tuple(chain.from_iterable(map(_abelian_flags(rs), layers))),
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


class DimensionCounts(NamedTuple):
    """Histogram of ideal dimensions plus the totals used in reports.

    ``by_dimension`` covers nonzero ideals only; ``abelian_total`` includes
    the zero ideal (which is abelian by convention).
    """

    by_dimension: dict[int, int]
    nonzero_total: int
    with_zero_total: int
    abelian_total: int


def counts_by_dimension(ideals: Iterable[MonomialIdeal], rs: RootSystem) -> DimensionCounts:
    """Count nonzero ideals per dimension, totals with/without zero, and abelian.

    With each member, ``ideals`` must hold the nonzero ideals inside it, as
    all ideals and all abelian ones do: no ideal past the first dimension
    without an abelian member is tested.
    """
    counts = _Counts(rs)
    for layer in _layered({rs.mask_of(j.roots) for j in ideals} - {0}):
        counts.flags(layer)
    return counts.result()


class _Counts:
    """``DimensionCounts`` tallied from complete ideal layers, fed in rising dimension."""

    def __init__(self, rs: RootSystem) -> None:
        self.histogram: dict[int, int] = {}
        self.abelian = 0
        self._flags = _abelian_flags(rs)

    def flags(self, layer: Collection[int]) -> list[bool]:
        """Abelian flag of each mask of a layer, counting the layer unless it is the zero ideal."""
        flags = self._flags(layer)
        if dimension := next(iter(layer)).bit_count():
            self.histogram[dimension] = len(layer)
            self.abelian += sum(flags)
        return flags

    def result(self) -> DimensionCounts:
        nonzero = sum(self.histogram.values())
        return DimensionCounts(
            by_dimension=dict(sorted(self.histogram.items())),
            nonzero_total=nonzero,
            with_zero_total=nonzero + 1,
            abelian_total=1 + self.abelian,
        )


class DotOptions(NamedTuple):
    """Rendering options for DOT export; defaults give the canonical ASCII form."""

    graph_name: str = "ideal_lattice"
    unicode_alpha: bool = False
    mark_abelian: bool = True


def export_dot(lattice: IdealLattice, options: DotOptions | None = None) -> str:
    """DOT digraph of the lattice, bottom to top, byte-stable per input."""
    opts = options or DotOptions()
    labels = (ideal_ascii(node, opts.unicode_alpha) for node in lattice.nodes)
    return "".join(_dot_chunks(zip(labels, lattice.abelian), lattice.cover_edges, opts))


def _dot_chunks(
    nodes: Iterable[tuple[str, bool]], edges: Iterable[tuple[int, int]], opts: DotOptions
) -> Iterator[str]:
    """DOT text of a lattice, one chunk per (rendered label, abelian) node and per cover.

    Nodes are numbered in the order they arrive.
    """
    yield f"digraph {opts.graph_name} {{\n  rankdir=BT;\n  node [shape=box];\n"
    fill = ', style=filled, fillcolor="lightgrey"' if opts.mark_abelian else ""
    for i, (label, abelian) in enumerate(nodes):
        yield f'  n{i} [label="{label}"{fill if abelian else ""}];\n'
    for smaller, larger in edges:
        yield f"  n{smaller} -> n{larger};\n"
    yield "}\n"
