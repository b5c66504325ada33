"""Root systems of the simple Lie algebras, built from their Cartan matrices.

A root is an integer coefficient vector over the simple roots.  Starting from
the simple roots (the unit vectors), the full set of positive roots is
generated by repeatedly applying simple reflections to roots that pair
negatively with a simple root.  Everything here is exact integer arithmetic on
immutable tuples; a constructed ``RootSystem`` is safe to share freely across
threads or workers.

Simple-root indices are 0-based throughout the API; renderings ("a1", "a2",
...) are 1-based to match the usual labelling of Dynkin diagram nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from typing import Iterable

from .errors import InvalidInputError, StructuralError

Root = tuple[int, ...]
CartanMatrix = tuple[tuple[int, ...], ...]

FAMILIES = "ABCDEFG"

# No positive root of a finite type has a coefficient above 6 (E8's highest
# root), so a sum of two roots fits 4-bit key fields without carrying.
MAX_COEFFICIENT = 6
_KEY_BITS = (2 * MAX_COEFFICIENT).bit_length()

# (family, minimum rank, maximum rank or None, extra note for diagnostics)
_RANK_RULES = {
    "A": (1, None, ""),
    "B": (2, None, ""),
    "C": (2, None, ""),
    "D": (3, None, " (D2 is reducible)"),
    "E": (6, 8, ""),
    "F": (4, 4, ""),
    "G": (2, 2, ""),
}


def validate_family_rank(family: str, rank: int) -> None:
    """Reject (family, rank) pairs that do not name a simple Lie algebra."""
    if family not in _RANK_RULES:
        raise InvalidInputError(
            f"unknown family {family!r}: expected one of {', '.join(FAMILIES)}"
        )
    lo, hi, note = _RANK_RULES[family]
    if rank < lo:
        raise InvalidInputError(f"family {family} requires rank >= {lo}, got {rank}{note}")
    if hi is not None and rank > hi:
        raise InvalidInputError(f"family {family} requires rank <= {hi}, got {rank}")


# Exponents of the exceptional Weyl groups; the classical ones follow a pattern.
_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


def coxeter_exponents(family: str, rank: int) -> tuple[int, ...]:
    """Exponents e_1..e_rank of the Weyl group; the Coxeter number is the largest plus one.

    Known in closed form, so sizes can be predicted before any root is built.
    """
    validate_family_rank(family, rank)
    if family == "A":
        return tuple(range(1, rank + 1))
    if family in "BC":
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        return tuple(sorted([*range(1, 2 * rank - 2, 2), rank - 1]))
    return _EXCEPTIONAL_EXPONENTS[family, rank]


def positive_root_count(family: str, rank: int) -> int:
    """|R+| = rank * h / 2, with h the Coxeter number."""
    return rank * (max(coxeter_exponents(family, rank)) + 1) // 2


def _chain_edges(rank: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(rank - 1)]


def cartan_matrix(family: str, rank: int) -> CartanMatrix:
    """Cartan matrix with entry[i][j] = <alpha_i, alpha_j^v> = 2(a_i,a_j)/(a_j,a_j).

    The node numbering per family is fixed (Bourbaki) so that, e.g., B2 has
    alpha_1 long (highest root a1+2a2), G2 has alpha_1 short (highest root
    3a1+2a2) and F4 has highest root 2a1+3a2+4a3+2a4.
    """
    validate_family_rank(family, rank)
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i: int, j: int, ij: int = -1, ji: int = -1) -> None:
        m[i][j] = ij
        m[j][i] = ji

    if family in ("A", "B", "C", "D"):
        for i, j in _chain_edges(rank if family != "D" else rank - 1):
            link(i, j)
        if family == "B":
            m[rank - 2][rank - 1] = -2  # alpha_rank is the short root
        elif family == "C":
            m[rank - 1][rank - 2] = -2  # alpha_rank is the long root
        elif family == "D":
            link(rank - 3, rank - 1)
    elif family == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: rank - 2]:
            link(i, j)
        link(1, 3)
    elif family == "F":
        link(0, 1)
        link(1, 2, ij=-2)  # alpha_3, alpha_4 short
        link(2, 3)
    else:  # G
        link(0, 1, ji=-3)  # alpha_1 short
    return tuple(tuple(row) for row in m)


def _check_dimensions(root: Root, j: int, cartan: CartanMatrix) -> None:
    rank = len(cartan)
    if len(root) != rank:
        raise InvalidInputError(
            f"root has length {len(root)}, Cartan matrix has rank {rank}"
        )
    if not 0 <= j < rank:
        raise InvalidInputError(f"simple-root index {j} out of range 0..{rank - 1}")


def coroot_pairing(root: Root, j: int, cartan: CartanMatrix) -> int:
    """Pairing <root, alpha_j^v>, extended linearly from the Cartan matrix."""
    _check_dimensions(root, j, cartan)
    return sum(c * cartan[i][j] for i, c in enumerate(root))


def reflect_simple(root: Root, j: int, cartan: CartanMatrix) -> Root:
    """Simple reflection root - <root, alpha_j^v> * alpha_j.

    The result may have negative entries (e.g. reflecting alpha_j itself);
    callers that want positive roots filter on the pairing sign.
    """
    k = coroot_pairing(root, j, cartan)
    return tuple(c - k if i == j else c for i, c in enumerate(root))


def root_height(root: Root) -> int:
    """Sum of the coefficients over the simple roots."""
    return sum(root)


def root_sort_key(root: Root) -> tuple:
    """Canonical order: by height, then coefficient vectors in descending lex."""
    return (sum(root), tuple(-c for c in root))


def generate_positive_roots(cartan: CartanMatrix) -> tuple[Root, ...]:
    """All positive roots of the system with the given Cartan matrix.

    Starts from the simple roots and repeatedly reflects every newly found
    root r by each simple root it pairs negatively with; such a reflection
    adds a positive multiple of a simple root, so the procedure climbs in
    height and terminates.  The result is deduplicated and canonically
    sorted.  A matrix not of finite type has infinitely many real roots, so
    it is rejected once a coefficient exceeds ``MAX_COEFFICIENT``.
    """
    rank = len(cartan)
    for i, row in enumerate(cartan):
        if len(row) != rank or row[i] != 2:
            raise InvalidInputError("malformed Cartan matrix: bad shape or diagonal")
        for j, a in enumerate(row):
            if i != j and (a > 0 or a < -3 or (a == 0) != (cartan[j][i] == 0)):
                raise InvalidInputError("malformed Cartan matrix: bad off-diagonal entry")

    simple = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    found: set[Root] = set(simple)
    frontier: list[Root] = list(simple)
    while frontier:
        fresh: list[Root] = []
        for r in frontier:
            for j in range(rank):
                if coroot_pairing(r, j, cartan) < 0:
                    s = reflect_simple(r, j, cartan)
                    if s[j] > MAX_COEFFICIENT:
                        raise InvalidInputError("Cartan matrix is not of finite type")
                    if s not in found:
                        found.add(s)
                        fresh.append(s)
        frontier = fresh
    return tuple(sorted(found, key=root_sort_key))


@dataclass(frozen=True)
class RootSystem:
    """An irreducible root system together with lookup tables for fast queries.

    ``positive_roots`` is in canonical order; ``simple_roots`` are the unit
    vectors in index order.  The private fields are derived lookup structures:
    ``_position`` maps a root to its index in canonical order, ``_up_masks[g]``
    is the bitmask (over canonical indices) of roots of the form
    ``positive_roots[g] + alpha_j``, and ``_sum_masks[g]`` the bitmask of
    roots h with ``positive_roots[g] + positive_roots[h]`` again a root.
    ``_down_masks[g]`` is the converse of ``_up_masks``, built on first use.
    ``_keys[g]`` packs ``positive_roots[g]`` into ``_KEY_BITS``-bit fields, so
    adding keys adds roots; ``sum_index`` looks sums up in ``_key_index``.  A
    key made from an outside tuple could alias a root: input uses ``_position``.

    A set of positive roots is a bitmask with bit g standing for
    ``positive_roots[g]``; the simple roots come first, so bit i is
    alpha_{i+1} for i < rank.
    """

    family: str
    rank: int
    cartan: CartanMatrix
    simple_roots: tuple[Root, ...]
    positive_roots: tuple[Root, ...]
    highest_root: Root
    _position: dict[Root, int] = field(compare=False, repr=False)
    _up_masks: tuple[int, ...] = field(compare=False, repr=False)
    _sum_masks: tuple[int, ...] = field(compare=False, repr=False)
    _keys: tuple[int, ...] = field(compare=False, repr=False)
    _key_index: dict[int, int] = field(compare=False, repr=False)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.positive_roots)) - 1

    def index_of(self, root: Root) -> int:
        """Canonical index of a positive root; raises for non-roots."""
        try:
            return self._position[root]
        except KeyError:
            raise InvalidInputError(f"not a positive root of {self.family}{self.rank}: {root}") from None

    def sum_index(self, g: int, h: int) -> int | None:
        """Canonical index of ``positive_roots[g] + positive_roots[h]``, or None."""
        return self._key_index.get(self._keys[g] + self._keys[h])

    def mask_of(self, roots: Iterable[Root]) -> int:
        """Bitmask of a set of positive roots; raises for non-roots."""
        mask = 0
        for r in roots:
            mask |= 1 << self.index_of(r)
        return mask

    def labels(self, unicode_alpha: bool = False) -> tuple[str, ...]:
        """``root_ascii`` of every positive root, by canonical index."""
        return self._labels[unicode_alpha]

    @cached_property
    def _down_masks(self) -> tuple[int, ...]:
        # Bit h of entry g: positive_roots[h] + alpha_j == positive_roots[g] for some j.
        down = [0] * len(self.positive_roots)
        for h, up in enumerate(self._up_masks):
            for g in mask_indices(up):
                down[g] |= 1 << h
        return tuple(down)

    @cached_property
    def _labels(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        # Rendered on first use, so that commands that print no root set
        # never pay for it.
        return tuple(
            tuple(root_ascii(r, u) for r in self.positive_roots) for u in (False, True)
        )


# Binary digits to the false/true selector bytes ``compress`` reads.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def mask_indices(mask: int) -> list[int]:
    """Canonical indices of the roots in a bitmask, ascending."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def root_system(family: str, rank: int) -> RootSystem:
    """Build the root system for a simple type, validating its structure."""
    cm = cartan_matrix(family, rank)
    positive = generate_positive_roots(cm)
    position = {r: g for g, r in enumerate(positive)}
    keys = tuple(sum(c << _KEY_BITS * i for i, c in enumerate(r)) for r in positive)
    key_index = {k: g for g, k in enumerate(keys)}
    up_masks = tuple(
        sum(1 << key_index[k + a] for a in keys[:rank] if k + a in key_index) for k in keys
    )
    sum_masks = tuple(
        sum(1 << h for h, other in enumerate(keys) if k + other in key_index) for k in keys
    )

    # Every root of greatest height is unextendable, so a single unextendable
    # root is the unique highest root.
    unextendable = [r for r, up in zip(positive, up_masks) if up == 0]
    if len(unextendable) != 1:
        raise StructuralError(
            f"{family}{rank}: highest root is not unique; generated system is not irreducible"
        )

    return RootSystem(
        family=family,
        rank=rank,
        cartan=cm,
        simple_roots=positive[:rank],
        positive_roots=positive,
        highest_root=unextendable[0],
        _position=position,
        _up_masks=up_masks,
        _sum_masks=sum_masks,
        _keys=keys,
        _key_index=key_index,
    )


def is_root(candidate: Root, rs: RootSystem) -> bool:
    """Whether ``candidate`` is a positive root of ``rs`` (O(1) lookup)."""
    if len(candidate) != rs.rank:
        raise InvalidInputError(
            f"root has length {len(candidate)}, system has rank {rs.rank}"
        )
    return candidate in rs._position


def root_ascii(root: Root, unicode_alpha: bool = False) -> str:
    """Render a coefficient vector as "a1+2a2" (coefficient 1 and zero terms elided)."""
    sym = "α" if unicode_alpha else "a"
    parts = []
    for i, c in enumerate(root):
        if c == 0:
            continue
        parts.append(f"{sym}{i + 1}" if c == 1 else f"{c}{sym}{i + 1}")
    return "+".join(parts) if parts else "0"


def root_vector_str(root: Root) -> str:
    """Render a coefficient vector in raw form, e.g. "[1,2]"."""
    return "[" + ",".join(str(c) for c in root) + "]"


def dynkin_description(rs: RootSystem, unicode_alpha: bool = False) -> str:
    """One-line description of the Dynkin diagram, e.g. "B2: a1=2>a2".

    Single edges render as "-"; double and triple edges as "=2>"/"=3>" with
    the arrow pointing at the short root.
    """
    sym = "α" if unicode_alpha else "a"
    edges = []
    for i in range(rs.rank):
        for j in range(i + 1, rs.rank):
            a_ij, a_ji = rs.cartan[i][j], rs.cartan[j][i]
            if a_ij == 0:
                continue
            m = max(-a_ij, -a_ji)
            if m == 1:
                link = "-"
            elif -a_ij == m:
                link = f"={m}>"  # alpha_j short
            else:
                link = f"<{m}="  # alpha_i short
            edges.append(f"{sym}{i + 1}{link}{sym}{j + 1}")
    label = f"{rs.family}{rs.rank}"
    if not edges:
        return f"{label}: {sym}1"
    return f"{label}: " + ", ".join(edges)
