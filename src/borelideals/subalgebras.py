"""Sign-free analysis of monomial subalgebras of the nilradical.

A monomial subalgebra is spanned by root vectors for a set of positive roots
closed under root addition.  Normalizers and centralizers are computed inside
the nilradical only, and only for monomial spans: whether [X_r, X_s] lands in
a monomial span depends only on whether r+s is a root, never on structure
constant signs.  Subalgebras spanned by generic linear combinations (with
free coefficients) are outside this module's scope.

Every query is one pass over the members' sum rows: ``_walk`` gives the
closure test and the normalizer the roots leaving the set, the ideal test
whether a simple root is among them, and the abelian test the rows' union;
the centralizer of a validated subalgebra reads only that union.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InvalidInputError
from .roots import Root, RootSystem, mask_indices, root_ascii


class MonomialSubalgebra(NamedTuple):
    """Canonically sorted set of positive roots spanning a bracket-closed space."""

    roots: tuple[Root, ...]

    @property
    def dimension(self) -> int:
        return len(self.roots)


def _walk(mask: int, rs: RootSystem) -> tuple[int, int]:
    """The roots g with g + s a root outside the set, and with g + s a root, for some member s.

    Root addition is symmetric, so each member's sum row is read once.  The
    set is closed when no member leaves it, an ideal when no simple root
    does, abelian when no member is in the union.
    """
    leaving = touched = 0
    for h in mask_indices(mask):
        row = rs._sum_masks[h]
        touched |= row
        leaving |= sum(1 << g for g in mask_indices(row) if not mask >> rs.sum_index(g, h) & 1)
    return leaving, touched


def _closed(mask: int, rs: RootSystem) -> tuple[int, int]:
    """``_walk(mask)``, once the mask is checked closed under root addition."""
    leaving, touched = _walk(mask, rs)
    if leaving & mask:
        labels = [root_ascii(r) for r in rs.roots_of(mask)]
        raise InvalidInputError(f"not closed under root addition: {labels}")
    return leaving, touched


def is_monomial_subalgebra(roots: Iterable[Root], rs: RootSystem) -> bool:
    """Closure test: r + s in R+ implies r + s in the set, for members r, s."""
    mask = rs.mask_of(roots)
    return _walk(mask, rs)[0] & mask == 0


def monomial_subalgebra(roots: Iterable[Root], rs: RootSystem) -> MonomialSubalgebra:
    """Validate closure; the roots come out in canonical order."""
    mask = rs.mask_of(roots)
    _closed(mask, rs)
    return MonomialSubalgebra(rs.roots_of(mask))


def monomial_normalizer(sub: MonomialSubalgebra, rs: RootSystem) -> MonomialSubalgebra:
    """Roots r with r + s either not a root or inside the span, for all members s.

    This is the normalizer of the span inside the nilradical; it always
    contains the input and is itself a monomial subalgebra.
    """
    return MonomialSubalgebra(rs.roots_of(rs.full_mask & ~_walk(rs.mask_of(sub.roots), rs)[0]))


def monomial_centralizer(sub: MonomialSubalgebra, rs: RootSystem) -> frozenset[Root]:
    """Roots r with r + s never a root, for all members s.

    These root vectors commute with every element of the span regardless of
    structure-constant signs.  Returned as a plain root set: the sign-free
    test cannot certify that the centralizer is bracket-closed, so callers
    wanting a subalgebra should run ``is_monomial_subalgebra`` on it.
    """
    touched = 0
    for h in mask_indices(rs.mask_of(sub.roots)):
        touched |= rs._sum_masks[h]
    return frozenset(rs.roots_of(rs.full_mask & ~touched))
