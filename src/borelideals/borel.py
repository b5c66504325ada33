"""Formal basis of a Borel subalgebra and the sign-free monomial bracket.

The Borel subalgebra is modelled as Cartan generators H[a_j] (the simple
coroots) followed by one root vector X[r] per positive root.  Brackets of
root vectors are tracked only up to support: [X_r, X_s] is a nonzero multiple
of X_{r+s} exactly when r+s is a root, and every predicate downstream (ideal,
abelian, normalizer, centralizer of monomial spans) depends only on that
fact, so structure-constant signs are deliberately not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .roots import Root, RootSystem, root_ascii


@dataclass(frozen=True)
class CartanGenerator:
    """H[a_index]: the coroot of the simple root with this 0-based index."""

    index: int


@dataclass(frozen=True)
class RootVector:
    """X[root]: the root vector attached to a positive root."""

    root: Root


BasisElement = CartanGenerator | RootVector


@dataclass(frozen=True)
class BorelBasis:
    """Cartan generators followed by root vectors in canonical root order."""

    cartan_part: tuple[CartanGenerator, ...]
    nilradical_part: tuple[RootVector, ...]

    @property
    def elements(self) -> tuple[BasisElement, ...]:
        return self.cartan_part + self.nilradical_part

    def __len__(self) -> int:
        return len(self.cartan_part) + len(self.nilradical_part)


def nilradical_basis(rs: RootSystem) -> tuple[RootVector, ...]:
    """Basis of the derived algebra: one root vector per positive root."""
    return tuple(RootVector(r) for r in rs.positive_roots)


def borel_basis(rs: RootSystem) -> BorelBasis:
    """Full Borel basis: H[a1]..H[a_rank] then the nilradical root vectors."""
    return BorelBasis(
        cartan_part=tuple(CartanGenerator(j) for j in range(rs.rank)),
        nilradical_part=nilradical_basis(rs),
    )


def monomial_bracket(left: Root, right: Root, rs: RootSystem) -> Root | None:
    """Support of [X_left, X_right]: left+right when that is a root, else None."""
    s = rs.sum_index(rs.index_of(left), rs.index_of(right))
    return None if s is None else rs.positive_roots[s]


def basis_element_ascii(element: BasisElement, unicode_alpha: bool = False) -> str:
    """Render "H[a1]" / "X[a1+2a2]"."""
    sym = "α" if unicode_alpha else "a"
    if isinstance(element, CartanGenerator):
        return f"H[{sym}{element.index + 1}]"
    if isinstance(element, RootVector):
        return f"X[{root_ascii(element.root, unicode_alpha)}]"
    raise InvalidInputError(f"not a basis element: {element!r}")
