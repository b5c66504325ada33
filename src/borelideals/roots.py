"""Root systems of the simple Lie algebras, built from their Cartan matrices.

A root is an integer coefficient vector over the simple roots.  Starting from
the simple roots (the unit vectors), the positive roots are generated one
height at a time: a root r extends to r + alpha_j exactly when its alpha_j-string
reaches above it.  Everything here is exact integer arithmetic; a constructed
``RootSystem`` is safe to share freely across threads or workers (the table
entries it fills on first use are the same whichever thread fills them).

Simple-root indices are 0-based throughout the API; renderings ("a1", "a2",
...) are 1-based to match the usual labelling of Dynkin diagram nodes.

The Borel subalgebra has the basis H[a_j] (the simple coroots, one per
simple-root index) and X[r] (one root vector per positive root), the notation
in which every output lists ideals, subalgebras and kernels.  Brackets of
root vectors are tracked only up to support: [X_r, X_s] is a nonzero
multiple of X_{r+s} exactly when r+s is a root (``monomial_bracket``,
``RootSystem.sum_index``), and every predicate downstream (ideal, abelian,
normalizer, centralizer of monomial spans) depends only on that fact, so
structure-constant signs are deliberately not modelled.
"""

from __future__ import annotations

from itertools import compress, count
from operator import add, gt
from typing import Callable, Iterable, Sequence

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
    if type(rank) is not int:  # a bool is an int, but names no rank
        raise InvalidInputError(f"rank must be an int, got {rank!r}")
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
    """|R+| = rank * h / 2, with h the Coxeter number in closed form (no exponents built)."""
    validate_family_rank(family, rank)
    exceptional = _EXCEPTIONAL_EXPONENTS.get((family, rank))
    h = exceptional[-1] + 1 if exceptional else {"A": rank + 1, "D": 2 * rank - 2}.get(family, 2 * rank)
    return rank * h // 2


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
        for i in range(rank - 2 if family == "D" else rank - 1):  # the chain a1 - a2 - ...
            link(i, i + 1)
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
    if any(type(c) is not int for c in root):
        raise InvalidInputError(f"root {root!r} has an entry that is not an int")
    if type(j) is not int or not 0 <= j < rank:  # a bool is an int, but names no index
        raise InvalidInputError(f"simple-root index {j!r} is not an int in 0..{rank - 1}")


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
    """All positive roots of the system with the given Cartan matrix, canonically sorted.

    A matrix not of finite type has infinitely many real roots, so it is
    rejected once a coefficient exceeds ``MAX_COEFFICIENT``.
    """
    return _climb(cartan)[0]


def _climb(cartan: CartanMatrix) -> tuple[tuple[Root, ...], dict[int, int], list[int]]:
    """Positive roots in canonical order, their key index and ``_up_masks``.

    For a root r other than alpha_j, r + alpha_j is a root exactly when p >
    <r, alpha_j^v>, where p is the length of the alpha_j-string below r, r -
    alpha_j, ..., r - p alpha_j (Humphreys, section 9.4).  So r - alpha_j is a
    root exactly when r was made from it, with a string one shorter: each root
    carries its p for each j, the roots it was made from and its pairings with
    the simple coroots (those of r + alpha_j add row j of the Cartan matrix).
    """
    rank = len(cartan)
    for i, row in enumerate(cartan):
        if len(row) != rank or any(type(a) is not int for a in row) or row[i] != 2:
            raise InvalidInputError("malformed Cartan matrix: bad shape, entry type or diagonal")
        for j, a in enumerate(row):
            if i != j and (a > 0 or a < -3 or (a == 0) != (cartan[j][i] == 0)):
                raise InvalidInputError("malformed Cartan matrix: bad off-diagonal entry")

    units = [1 << _KEY_BITS * j for j in range(rank)]
    roots: list[Root] = []
    index: dict[int, int] = {}  # key -> canonical index, in canonical order; the climb only writes it
    up: list[int] = []
    # (root, key, pairings, p per j, indices of the roots r - alpha_j) of one height;
    # a simple root pairs by its Cartan row, and no root lies below it
    level = [(tuple(int(i == j) for i in range(rank)), units[j], cartan[j], [0] * rank, []) for j in range(rank)]
    while level:
        level.sort(reverse=True)  # descending coefficient vectors: canonical order within a height
        fresh: dict[int, tuple[Root, int, tuple[int, ...], list[int], list[int]]] = {}
        for r, key, pairings, strings, below in level:
            g = index[key] = len(roots)
            roots.append(r)
            up.append(0)
            for h in below:
                up[h] |= 1 << g
            for j, unit in compress(enumerate(units), map(gt, strings, pairings)):  # p > <r, alpha_j^v>
                if key + unit not in fresh:
                    if r[j] + 1 > MAX_COEFFICIENT:
                        raise InvalidInputError("Cartan matrix is not of finite type")
                    above = r[:j] + (r[j] + 1,) + r[j + 1 :]
                    fresh[key + unit] = above, key + unit, tuple(map(add, pairings, cartan[j])), [0] * rank, []
                fresh[key + unit][3][j] = strings[j] + 1
                fresh[key + unit][4].append(g)
        level = list(fresh.values())
    return tuple(roots), index, up


class _Lazy(dict):
    """A table whose entry for a key is ``make(key)``, made on its first read."""

    def __init__(self, make: Callable[[int], object]) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key: int) -> object:
        value = self[key] = self._make(key)
        return value


_PUBLIC_FIELDS = ("family", "rank", "cartan", "simple_roots", "positive_roots", "highest_root")


class RootSystem:
    """An irreducible root system together with lookup tables for fast queries.

    ``RootSystem(family, rank)`` builds the system of a simple type and
    validates its structure.  ``positive_roots`` is in canonical order;
    ``simple_roots`` are the unit vectors in index order.  The private fields
    are derived lookup structures: ``_position`` maps a root to its index in
    canonical order, ``_up_masks[g]`` is the bitmask (over canonical indices)
    of roots of the form ``positive_roots[g] + alpha_j``, and ``_sum_masks[g]``
    the bitmask of roots h with ``positive_roots[g] + positive_roots[h]`` again
    a root, and ``_kernels[missing]`` the ``linalg.kernel_basis`` of the Cartan
    rows of the simple roots in the mask ``missing``.  Both are ``_Lazy``
    tables, each entry built on its first read, so a query pays only for the
    rows of the roots it holds and a classification for the kernels it meets.
    ``_keys[g]`` packs ``positive_roots[g]`` into ``_KEY_BITS``-bit fields, so
    adding keys adds roots; ``sum_index`` looks sums up in ``_key_index``.  A
    key made from an outside tuple could alias a root: input uses ``_position``.

    A set of positive roots is a bitmask with bit g standing for
    ``positive_roots[g]``; the simple roots come first, so bit i is
    alpha_{i+1} for i < rank.

    A system is read-only: assigning or deleting an attribute raises
    ``AttributeError``.  Two systems compare, hash and print by their public
    fields alone.
    """

    family: str
    rank: int
    cartan: CartanMatrix
    simple_roots: tuple[Root, ...]
    positive_roots: tuple[Root, ...]
    highest_root: Root
    _position: dict[Root, int]
    _up_masks: tuple[int, ...]
    _sum_masks: _Lazy
    _kernels: _Lazy
    _keys: tuple[int, ...]
    _key_index: dict[int, int]

    def __init__(self, family: str, rank: int) -> None:
        cm = cartan_matrix(family, rank)
        positive, key_index, up_masks = _climb(cm)
        keys = tuple(key_index)  # the index holds the keys in canonical order

        # Every root of greatest height is unextendable, so a single unextendable
        # root is the unique highest root.
        unextendable = [r for r, up in zip(positive, up_masks) if up == 0]
        if len(unextendable) != 1:
            raise StructuralError(
                f"{family}{rank}: highest root is not unique; generated system is not irreducible"
            )

        def sum_row(g: int) -> int:
            k = keys[g]
            return sum(1 << h for h, other in enumerate(keys) if k + other in key_index)

        def kernel(missing: int) -> tuple[tuple[int, ...], ...]:
            from .linalg import kernel_basis

            return kernel_basis([cm[i] for i in mask_indices(missing)], rank)

        self.__dict__.update(
            family=family,
            rank=rank,
            cartan=cm,
            simple_roots=positive[:rank],
            positive_roots=positive,
            highest_root=unextendable[0],
            _position={r: g for g, r in enumerate(positive)},
            _up_masks=tuple(up_masks),
            _sum_masks=_Lazy(sum_row),
            _kernels=_Lazy(kernel),
            _keys=keys,
            _key_index=key_index,
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _public(self) -> tuple:
        return tuple(getattr(self, name) for name in _PUBLIC_FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._public() == other._public()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._public())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _PUBLIC_FIELDS)
        return f"{type(self).__qualname__}({fields})"

    @property
    def full_mask(self) -> int:
        return (1 << len(self.positive_roots)) - 1

    def index_of(self, root: Root) -> int:
        """Canonical index of a positive root; raises for non-roots, lists among them."""
        try:
            return self._position[root]
        except (KeyError, TypeError):  # a list is unhashable
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

    def roots_of(self, mask: int) -> tuple[Root, ...]:
        """The roots of a bitmask in canonical order: the inverse of ``mask_of``."""
        if type(mask) is not int or not 0 <= mask <= self.full_mask:  # a bool is no mask
            raise InvalidInputError(f"not a mask of {self.family}{self.rank}'s positive roots: {mask}")
        return tuple(map(self.positive_roots.__getitem__, mask_indices(mask)))

    def labels(self, unicode_alpha: bool = False) -> tuple[str, ...]:
        """``root_ascii`` of every positive root, by canonical index, rendered on each call."""
        return tuple(root_ascii(r, unicode_alpha) for r in self.positive_roots)


def monomial_bracket(left: Root, right: Root, rs: RootSystem) -> Root | None:
    """Support of [X_left, X_right]: left+right when that is a root, else None."""
    s = rs.sum_index(rs.index_of(left), rs.index_of(right))
    return None if s is None else rs.positive_roots[s]


# Binary digits to the false/true selector bytes ``compress`` reads.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def mask_indices(mask: int) -> list[int]:
    """Canonical indices of the roots in a bitmask, ascending."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def mask_joiner(items: Sequence[str], sep: str, opening: str, closing: str, empty: str) -> Callable[..., str]:
    """``join(mask, head="", *tail)``: ``head``, the mask's items listed, then the ``tail`` pieces, in one ``"".join``.

    ``items[g]`` stands for bit g.  The list is ``opening``, the set bits' items in ascending order
    with ``sep`` between them and ``closing``, or ``empty`` for the zero mask.  The lowest bit's item
    has ``opening`` fused on; the others come from rows of ``sep`` + item, one row per byte of the
    mask, which fill lazily, so joining few masks builds few strings.
    """
    size = (len(items) + 7) // 8
    first = [opening + item for item in items]

    def row(few: Sequence[str]) -> _Lazy:  # byte value b to the joined items of its set bits
        return _Lazy(lambda b: "".join([sep + item for i, item in enumerate(few) if b >> i & 1]))

    rows = [row(items[k : k + 8]) for k in range(0, len(items), 8)]
    get = dict.__getitem__  # calls __missing__, as dict.get would not

    def join(mask: int, head: str = "", *tail: str) -> str:
        if not mask:
            return "".join((head, empty, *tail))
        low = mask & -mask
        rest = map(get, rows, (mask ^ low).to_bytes(size, "little"))
        return "".join((head, first[low.bit_length() - 1], *rest, closing, *tail))

    return join


def _mask_renderer(rs: RootSystem, unicode_alpha: bool = False) -> Callable[..., str]:
    """``render(mask, head="", *tail)``: head, the roots as "[X[a1], X[a1+a2]]" ("0" when empty), tail."""
    return mask_joiner([f"X[{label}]" for label in rs.labels(unicode_alpha)], ", ", "[", "]", "0")


def root_system(family: str, rank: int) -> RootSystem:
    """Build the root system for a simple type, validating its structure."""
    return RootSystem(family, rank)


def is_root(candidate: Root, rs: RootSystem) -> bool:
    """Whether ``candidate`` is a positive root of ``rs`` (O(1) lookup); a list or an int raises."""
    try:
        if len(candidate) == rs.rank:
            return candidate in rs._position
    except TypeError:  # no length, or unhashable
        raise InvalidInputError(f"a root is a tuple of integers, got {candidate!r}") from None
    raise InvalidInputError(f"root has length {len(candidate)}, system has rank {rs.rank}")


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
