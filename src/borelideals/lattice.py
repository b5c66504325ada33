"""Inclusion lattice of the monomial ideals, with counts and DOT export."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .errors import InvalidInputError
from .ideals import (
    MonomialIdeal,
    _ideal_from_mask,
    _is_abelian_mask,
    _is_ideal_mask,
    _sorted_masks,
    ideal_ascii,
)
from .roots import RootSystem, mask_indices


@dataclass(frozen=True)
class IdealLattice:
    """Ideals ordered by inclusion; edges are covers (dimension gap one).

    ``nodes`` includes the zero ideal as the unique bottom and is sorted by
    (dimension, canonical order); ``cover_edges`` holds (smaller-index,
    larger-index) pairs; ``abelian`` flags each node.
    """

    nodes: tuple[MonomialIdeal, ...]
    cover_edges: tuple[tuple[int, int], ...]
    abelian: tuple[bool, ...]


def build_lattice(ideals: Iterable[MonomialIdeal], rs: RootSystem) -> IdealLattice:
    """Assemble the lattice from the complete set of nonzero monomial ideals."""
    masks = set()
    for ideal in ideals:
        mask = rs.mask_of(ideal.roots)
        if not _is_ideal_mask(mask, rs):
            raise InvalidInputError(f"not a monomial ideal: {ideal_ascii(ideal)}")
        masks.add(mask)
    nodes = [0] + _sorted_masks(masks - {0}, rs)
    return IdealLattice(
        nodes=tuple(_ideal_from_mask(m, rs) for m in nodes),
        cover_edges=_cover_edges(nodes, rs),
        abelian=tuple(_is_abelian_mask(m, rs) for m in nodes),
    )


def _cover_edges(nodes: Sequence[int], rs: RootSystem) -> tuple[tuple[int, int], ...]:
    """Sorted (smaller-index, larger-index) covers among the node masks.

    Covers are found by deleting one minimal root at a time: an ideal minus a
    root r stays an ideal exactly when no member sits one simple step below r,
    and every nested pair with dimension gap one arises this way.
    """
    down = [0] * len(rs.positive_roots)
    for g, up in enumerate(rs._up_masks):
        for h in mask_indices(up):
            down[h] |= 1 << g
    index_of_mask = {mask: i for i, mask in enumerate(nodes)}
    edges = []
    for i, mask in enumerate(nodes):
        for g in mask_indices(mask):
            if down[g] & mask == 0:
                smaller = index_of_mask.get(mask ^ 1 << g)
                if smaller is not None:
                    edges.append((smaller, i))
    edges.sort()
    return tuple(edges)


@dataclass(frozen=True)
class DimensionCounts:
    """Histogram of ideal dimensions plus the totals used in reports.

    ``by_dimension`` covers nonzero ideals only; ``abelian_total`` includes
    the zero ideal (which is abelian by convention).
    """

    by_dimension: dict[int, int]
    nonzero_total: int
    with_zero_total: int
    abelian_total: int


def counts_by_dimension(ideals: Iterable[MonomialIdeal], rs: RootSystem) -> DimensionCounts:
    """Count nonzero ideals per dimension, totals with/without zero, and abelian."""
    masks = {rs.mask_of(j.roots) for j in ideals} - {0}
    return _dimension_counts(masks, sum(_is_abelian_mask(m, rs) for m in masks))


def _dimension_counts(masks: Collection[int], abelian_nonzero: int) -> DimensionCounts:
    """Counts of distinct nonzero ideal masks, of which ``abelian_nonzero`` are abelian."""
    histo = Counter(m.bit_count() for m in masks)
    return DimensionCounts(
        by_dimension=dict(sorted(histo.items())),
        nonzero_total=len(masks),
        with_zero_total=len(masks) + 1,
        abelian_total=1 + abelian_nonzero,
    )


@dataclass(frozen=True)
class DotOptions:
    """Rendering options for DOT export; defaults give the canonical ASCII form."""

    graph_name: str = "ideal_lattice"
    unicode_alpha: bool = False
    mark_abelian: bool = True


def export_dot(lattice: IdealLattice, options: DotOptions | None = None) -> str:
    """DOT digraph of the lattice, bottom to top, byte-stable per input."""
    opts = options or DotOptions()
    labels = [ideal_ascii(node, opts.unicode_alpha) for node in lattice.nodes]
    return _dot(labels, lattice.abelian, lattice.cover_edges, opts)


def _dot(
    labels: Sequence[str],
    abelian: Sequence[bool],
    cover_edges: Iterable[tuple[int, int]],
    opts: DotOptions,
) -> str:
    """DOT text of a lattice given as rendered node labels, flags and covers."""
    lines = [f"digraph {opts.graph_name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for i, label in enumerate(labels):
        attrs = f'label="{label}"'
        if opts.mark_abelian and abelian[i]:
            attrs += ', style=filled, fillcolor="lightgrey"'
        lines.append(f"  n{i} [{attrs}];")
    for smaller, larger in cover_edges:
        lines.append(f"  n{smaller} -> n{larger};")
    lines.append("}")
    return "\n".join(lines) + "\n"
