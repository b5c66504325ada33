"""Exact kernels of small integer matrices, found in integers alone by ``kernel_basis``.

No rational arithmetic is used: each kernel vector is kept primitive by a gcd.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import InvalidInputError

IntVector = tuple[int, ...]


def _primitive(vec: Sequence[int]) -> IntVector:
    """Divide a nonzero integer vector by its gcd, signed to a positive leading entry."""
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


def kernel_basis(rows: Sequence[Sequence[int]], width: int) -> tuple[IntVector, ...]:
    """Basis of {c : M c = 0} for the integer matrix with the given rows.

    The vectors are the rows of the reduced row-echelon basis, cleared to
    coprime integers with positive leading entries; no rows give the identity basis.

    Each row cuts the basis, from the identity on: the last vector ``out``
    with a nonzero pairing a is dropped, and each other vector v with a
    nonzero pairing b becomes a·v − b·out, made primitive.  It is the last
    so that the basis stays reduced: out's pivot follows those of the vectors
    it enters, so their pivots stay; out is zero at their pivot columns; and
    the vectors after it pair to zero and stay as they are.
    """
    for row in rows:
        if len(row) != width or any(type(c) is not int for c in row):  # a bool is no entry
            raise InvalidInputError(f"row {row!r} of a width-{width} matrix is not {width} ints")
    basis = [tuple(int(i == j) for j in range(width)) for i in range(width)]
    for row in rows:
        pairings = [sum(x * c for x, c in zip(v, row)) for v in basis]
        if any(pairings):  # else the row is implied by those before it
            k = max(i for i, b in enumerate(pairings) if b)
            out, a = basis.pop(k), pairings.pop(k)
            basis = [_primitive([a * x - b * y for x, y in zip(v, out)]) if b else v
                     for v, b in zip(basis, pairings)]
    return tuple(basis)
