"""Sign-free analysis of monomial subalgebras of the nilradical.

A monomial subalgebra is spanned by root vectors for a set of positive roots
closed under root addition.  Normalizers and centralizers are computed inside
the nilradical only, and only for monomial spans: whether [X_r, X_s] lands in
a monomial span depends only on whether r+s is a root, never on structure
constant signs.  Subalgebras spanned by generic linear combinations (with
free coefficients) are outside this module's scope.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InvalidInputError
from .roots import Root, RootSystem, mask_indices, root_ascii, root_sort_key


class MonomialSubalgebra(NamedTuple):
    """Canonically sorted set of positive roots spanning a bracket-closed space."""

    roots: tuple[Root, ...]

    @property
    def dimension(self) -> int:
        return len(self.roots)


def _leaving(mask: int, rs: RootSystem) -> int:
    """Bitmask of the roots r with r + s a root outside the set, for some member s.

    Root addition is symmetric, so only the sum rows of the members are read.
    """
    out = 0
    for h in mask_indices(mask):
        row = mask_indices(rs._sum_masks[h])
        out |= sum(1 << g for g in row if not mask >> rs.sum_index(g, h) & 1)
    return out


def is_monomial_subalgebra(roots: Iterable[Root], rs: RootSystem) -> bool:
    """Closure test: r + s in R+ implies r + s in the set, for members r, s."""
    mask = rs.mask_of(roots)
    return _leaving(mask, rs) & mask == 0


def monomial_subalgebra(roots: Iterable[Root], rs: RootSystem) -> MonomialSubalgebra:
    """Validate closure and canonicalize the root order."""
    unique = set(roots)
    if not is_monomial_subalgebra(unique, rs):
        raise InvalidInputError(
            f"not closed under root addition: {[root_ascii(r) for r in sorted(unique, key=root_sort_key)]}"
        )
    return MonomialSubalgebra(tuple(sorted(unique, key=root_sort_key)))


def monomial_normalizer(sub: MonomialSubalgebra, rs: RootSystem) -> MonomialSubalgebra:
    """Roots r with r + s either not a root or inside the span, for all members s.

    This is the normalizer of the span inside the nilradical; it always
    contains the input and is itself a monomial subalgebra.
    """
    keep = rs.full_mask & ~_leaving(rs.mask_of(sub.roots), rs)
    return MonomialSubalgebra(tuple(rs.positive_roots[g] for g in mask_indices(keep)))


def monomial_centralizer(sub: MonomialSubalgebra, rs: RootSystem) -> frozenset[Root]:
    """Roots r with r + s never a root, for all members s.

    These root vectors commute with every element of the span regardless of
    structure-constant signs.  Returned as a plain root set: the sign-free
    test cannot certify that the centralizer is bracket-closed, so callers
    wanting a subalgebra should run ``is_monomial_subalgebra`` on it.
    """
    touched = 0
    for h in mask_indices(rs.mask_of(sub.roots)):
        touched |= rs._sum_masks[h]  # symmetric: bit g of row h is bit h of row g
    return frozenset(rs.positive_roots[g] for g in mask_indices(rs.full_mask & ~touched))
