"""Enumeration and classification of the ideals of a Borel subalgebra.

A monomial ideal is a set of positive roots closed under addition of simple
roots (whenever the sum is again a root); it encodes the span of the
corresponding root vectors, which is an ideal of the Borel subalgebra
contained in the nilradical.  Enumeration proceeds one dimension at a time
from the zero ideal, making each ideal once from its canonical parent, the
ideal without its lowest root; a brute-force subset filter doubles as an
independent oracle on small systems.  Pruned to abelian children, the same
search makes the 2^rank abelian ideals alone (Peterson); an abelian flag is
membership in them, and their number is a listing's abelian total.

General ideals are the monomial ones enriched by a Cartan part: for a fixed
root set, the admissible Cartan vectors are exactly those annihilated by
every root outside the set, an exact integer kernel that depends only on the
simple roots the set misses, kept once per system (``RootSystem._kernels``).

Inside the package an ideal is a bitmask over the canonical root order (bit g
stands for ``positive_roots[g]``) from enumeration through rendering and
classification; ``MonomialIdeal`` tuples are built only where a public
function returns them.
"""

from __future__ import annotations

from itertools import chain, groupby, islice
from typing import Iterable, Iterator, NamedTuple

from .errors import CapacityError, InvalidInputError
from .roots import (
    Root,
    RootSystem,
    coxeter_exponents,
    mask_indices,
    root_ascii,
    root_sort_key,
)


class MonomialIdeal(NamedTuple):
    """Canonically sorted set of positive roots; the empty tuple is the zero ideal."""

    roots: tuple[Root, ...]

    @property
    def dimension(self) -> int:
        return len(self.roots)


ZERO_IDEAL = MonomialIdeal(())


def ideal_sort_key(ideal: MonomialIdeal) -> tuple:
    """Order ideals by dimension, then by their canonical root sequences."""
    return (len(ideal.roots), tuple(root_sort_key(r) for r in ideal.roots))


def ideal_ascii(ideal: MonomialIdeal, unicode_alpha: bool = False) -> str:
    """Render "[X[a1], X[a1+a2]]"; the zero ideal renders as "0"."""
    if not ideal.roots:
        return "0"
    return "[" + ", ".join(f"X[{root_ascii(r, unicode_alpha)}]" for r in ideal.roots) + "]"


def _is_abelian_mask(mask: int, rs: RootSystem) -> bool:
    """Whether no two roots of the mask (repeats allowed) sum to a root."""
    sums = rs._sum_masks
    return all(sums[g] & mask == 0 for g in mask_indices(mask))


class DimensionCounts(NamedTuple):
    """Histogram of ideal dimensions plus the totals used in reports.

    ``by_dimension`` covers nonzero ideals only; ``abelian_total`` includes
    the zero ideal (which is abelian by convention).  Built by ``_dimension_counts``.
    """

    by_dimension: dict[int, int]
    nonzero_total: int
    with_zero_total: int
    abelian_total: int


def _dimension_counts(histogram: dict[int, int], abelian: int) -> DimensionCounts:
    """Counts of ``histogram[d]`` nonzero ideals of each dimension d and ``abelian`` abelian ones, zero included."""
    nonzero = sum(histogram.values())
    return DimensionCounts(dict(sorted(histogram.items())), nonzero, nonzero + 1, abelian)


class _Counts:
    """Abelian flags and ``DimensionCounts`` of a listing, fed a layer of equal dimension at a time.

    A mask is flagged abelian by membership in the 2^rank masks of the
    pruned search, zero included (Peterson), so ``abelian_total`` is the size
    of that set.  That is exact because every caller of ``result`` walks every
    ideal: the ``ideals`` JSON (with ``--oracle`` too), the ``abelian`` JSON
    and the ``classify`` JSON.
    """

    def __init__(self, rs: RootSystem) -> None:
        self.abelian_masks = frozenset(m for layer in _enumerate_masks(rs, abelian=True) for m in layer)
        self.histogram: dict[int, int] = {}

    def walk(self, layers: Iterable[list[int]]) -> Iterator[tuple[int, bool]]:
        """Each mask of the layers with its abelian flag, the size of each nonzero layer recorded."""
        for layer in layers:
            if dimension := layer[0].bit_count():
                self.histogram[dimension] = len(layer)
            yield from zip(layer, map(self.abelian_masks.__contains__, layer))

    def result(self) -> DimensionCounts:
        return _dimension_counts(self.histogram, len(self.abelian_masks))


def _ideal_from_mask(mask: int, rs: RootSystem) -> MonomialIdeal:
    return MonomialIdeal(rs.roots_of(mask))


def _is_ideal_mask(mask: int, rs: RootSystem) -> bool:
    up = rs._up_masks
    return all(up[g] & ~mask == 0 for g in mask_indices(mask))


def _ideal_mask(ideal: MonomialIdeal, rs: RootSystem) -> int:
    """Bitmask of the ideal's roots; raises ``InvalidInputError`` unless they form an ideal."""
    mask = rs.mask_of(ideal.roots)
    if not _is_ideal_mask(mask, rs):
        raise InvalidInputError(f"not a monomial ideal: {ideal_ascii(ideal)}")
    return mask


def is_monomial_ideal(roots: Iterable[Root], rs: RootSystem) -> bool:
    """Closure test: r + alpha_j in R+ implies r + alpha_j in the set."""
    return _is_ideal_mask(rs.mask_of(roots), rs)


def one_dimensional_ideals(rs: RootSystem) -> frozenset[MonomialIdeal]:
    """All singleton ideals: roots r with r + alpha_j never a root.

    For an irreducible system this is exactly the highest root.
    """
    return frozenset({MonomialIdeal((rs.highest_root,))})


def extension_candidates(ideal: MonomialIdeal, rs: RootSystem) -> frozenset[Root]:
    """Roots r outside the ideal with every r + alpha_j either not a root or inside.

    Adjoining any one candidate yields a monomial ideal of one higher dimension.
    """
    mask = _ideal_mask(ideal, rs)
    up = rs._up_masks
    return frozenset(
        r
        for g, r in enumerate(rs.positive_roots)
        if not mask >> g & 1 and up[g] & ~mask == 0
    )


def nonzero_ideal_count(family: str, rank: int) -> int:
    """Number of nonzero monomial ideals, predicted without enumerating them.

    With the zero ideal they number prod (h + e_i + 1) / (e_i + 1) over the
    exponents e_i, h the Coxeter number (Cellini-Papi; Shi).
    """
    exponents = coxeter_exponents(family, rank)
    h = max(exponents) + 1
    numerator = denominator = 1
    for e in exponents:
        numerator *= h + e + 1
        denominator *= e + 1
    return numerator // denominator - 1


def enumerate_nilradical_ideals(rs: RootSystem) -> frozenset[MonomialIdeal]:
    """All nonzero monomial ideals, by one-root extensions from the zero ideal.

    Each ideal is made once, from its canonical parent (see ``_enumerate_masks``).
    The zero ideal is not included.
    """
    nonzero = islice(_enumerate_masks(rs), 1, None)
    return frozenset(_ideal_from_mask(m, rs) for layer in nonzero for m in layer)


def _enumerate_masks(rs: RootSystem, abelian: bool = False) -> Iterator[list[int]]:
    """Ideal masks one dimension at a time from zero up, each layer in ``ideal_sort_key`` order (see ``_search``)."""
    return (masks for masks, _ in _search(rs, abelian))


def _search(rs: RootSystem, abelian: bool = False) -> Iterator[tuple[list[int], list[int]]]:
    """Each layer of ideal masks from zero up, as two parallel lists: the masks and their addables.

    A mask's addable holds the roots that may join it (those outside it with
    every simple step up inside it): adding g keeps the others and can only
    admit roots one simple step below g.

    Each nonzero ideal J is made once, from its canonical parent: J without
    its lowest bit, a root of least height in J and so a minimal one.  So a
    mask grows only by roots below its lowest bit, and J = I + g has the index
    tuple (g, *I): the children, one list per g in ascending order, each list
    in its parents' order, come out sorted with no mask made twice.

    The search walks each ``addable`` by its lowest set bit; a step table maps
    g to (bit of h, ``_up_masks[h]``) for each h with bit g in ``_up_masks[h]``.

    With ``abelian`` it keeps abelian ideals alone: a parent is a subset of
    its child, so an abelian I + g has an abelian parent I, and is abelian
    exactly when ``_sum_masks[g]`` misses I + g.
    """
    up, sums = rs._up_masks, rs._sum_masks
    below: list[list[tuple[int, int]]] = [[] for _ in up]
    for h, above in enumerate(up):
        for g in mask_indices(above):
            below[g].append((1 << h, above))
    masks, addables = [0], [1 << len(up) - 1]  # the zero ideal admits the highest root alone, the unique tallest: the last
    while masks:
        yield masks, addables
        grown, admits = [[] for _ in up], [[] for _ in up]  # per g: the children that add g, their addables
        for mask, addable in zip(masks, addables):
            rest = addable & ((mask & -mask) - 1)  # all of addable for the zero mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                bigger = mask | bit
                g = bit.bit_length() - 1
                if abelian and sums[g] & bigger:
                    continue
                admitted = addable ^ bit
                for h, above in below[g]:
                    if above & bigger == above:
                        admitted |= h
                grown[g].append(bigger)
                admits[g].append(admitted)
        masks, addables = list(chain.from_iterable(grown)), list(chain.from_iterable(admits))


# Largest system the subset oracle accepts: 2^20 subsets.
_ORACLE_CAP = 20


def brute_force_ideals(rs: RootSystem, max_positive_roots: int = _ORACLE_CAP) -> frozenset[MonomialIdeal]:
    """Filter all nonempty subsets of R+ by the closure test (oracle use only)."""
    nonzero = _brute_force_masks(rs, max_positive_roots)[1:]
    return frozenset(_ideal_from_mask(m, rs) for layer in nonzero for m in layer)


def _brute_force_masks(rs: RootSystem, max_positive_roots: int = _ORACLE_CAP) -> list[list[int]]:
    """Masks of all subsets of R+ that pass the closure test, in the layers ``_enumerate_masks`` yields."""
    n = len(rs.positive_roots)
    if n > max_positive_roots:
        raise CapacityError(
            f"{rs.family}{rs.rank} has {n} positive roots; brute force is capped at "
            f"{max_positive_roots} (2^{n} subsets)"
        )
    closed = (m for m in range(1 << n) if _is_ideal_mask(m, rs))
    masks = sorted(closed, key=lambda m: (m.bit_count(), mask_indices(m)))
    return [list(layer) for _, layer in groupby(masks, int.bit_count)]


def is_abelian(ideal: MonomialIdeal, rs: RootSystem) -> bool:
    """Whether no two member roots (repeats allowed) sum to a root."""
    return _is_abelian_mask(rs.mask_of(ideal.roots), rs)


def abelian_ideals(rs: RootSystem) -> tuple[MonomialIdeal, ...]:
    """All abelian monomial ideals including the zero ideal, canonically sorted."""
    return tuple(_ideal_from_mask(m, rs) for layer in _enumerate_masks(rs, abelian=True) for m in layer)


class CartanKernelBasis(NamedTuple):
    """Integer basis of the Cartan vectors annihilated by all roots outside an ideal.

    Each vector (c_1, ..., c_rank) stands for c_1 H[a1] + ... + c_rank H[a_rank];
    vectors are rows of a reduced row-echelon matrix cleared to coprime
    integers with positive leading entries.
    """

    vectors: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def cartan_kernel(ideal: MonomialIdeal, rs: RootSystem) -> CartanKernelBasis:
    """Exact kernel of the pairing rows of all positive roots outside the ideal.

    It is computed from the Cartan rows of the simple roots the ideal misses
    (see ``_classification``).  An empty complement (the ideal is the whole
    nilradical) yields the full Cartan, i.e. the identity basis.  A root set
    that is not an ideal raises ``InvalidInputError``.
    """
    simple = (1 << rs.rank) - 1
    return _classification(~_ideal_mask(ideal, rs) & simple, rs)[0]


NOTE_GENERAL_IDEALS = (
    "every ideal with the given root part is span(S) + span(X[r] for listed r), "
    "with S any subspace of the listed Cartan kernel; entries with a nonzero "
    "kernel and a proper root part are flagged as mixed"
)


class ClassificationEntry(NamedTuple):
    ideal: MonomialIdeal
    kernel: CartanKernelBasis
    mixed: bool

    @property
    def kernel_dimension(self) -> int:
        return self.kernel.dimension


class IdealClassification(NamedTuple):
    """Every monomial ideal (zero included) paired with its Cartan kernel."""

    entries: tuple[ClassificationEntry, ...]
    note: str = NOTE_GENERAL_IDEALS


def _classification(missing: int, rs: RootSystem) -> tuple[CartanKernelBasis, bool]:
    """Cartan kernel and ``mixed`` flag of the ideals that miss the simple roots in ``missing``.

    The complement of an ideal is a down-set of the root poset, so it holds
    every simple root in the support of its members: its pairing rows span
    the same space as the Cartan rows of the simple roots missing from the
    ideal (Cellini-Papi).  So there are at most 2^rank kernels.  Every root
    lies above a simple root, so only the whole nilradical misses none.  Each
    kernel is made on its first read of ``rs._kernels``, one row cut of another.
    """
    kernel = CartanKernelBasis(rs._kernels[missing])
    return kernel, kernel.dimension > 0 and missing != 0


def full_ideal_classification(rs: RootSystem) -> IdealClassification:
    """Pair every monomial ideal with its Cartan kernel, smallest ideals first."""
    simple = (1 << rs.rank) - 1
    return IdealClassification(
        entries=tuple(
            ClassificationEntry(_ideal_from_mask(mask, rs), *_classification(~mask & simple, rs))
            for layer in _enumerate_masks(rs)
            for mask in layer
        )
    )
