"""Exact linear algebra over the rationals for small integer matrices."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InvalidInputError

IntVector = tuple[int, ...]


def rref(rows: Sequence[Sequence[Fraction]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form; returns the nonzero rows and pivot columns."""
    m = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _primitive(vec: Sequence[Fraction]) -> IntVector:
    """Scale a rational vector to coprime integers with positive leading entry."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def kernel_basis(rows: Sequence[Sequence[int]], width: int) -> tuple[IntVector, ...]:
    """Basis of {c : M c = 0} for the integer matrix with the given rows.

    The result is normalized: basis vectors are the rows of a reduced
    row-echelon matrix, cleared to coprime integers with positive leading
    entries.  An empty row list yields the identity basis (the full space).

    One reduction of the rows with their columns reversed gives it: the null
    vector of a free column f is then 1 at f, 0 at the other free columns and
    nonzero only after f, so with f ascending these are the reduced rows.
    """
    for row in rows:
        if len(row) != width:
            raise InvalidInputError(f"row of length {len(row)} in width-{width} matrix")
    reduced, pivots = rref([row[::-1] for row in rows], width)
    vectors: list[IntVector] = []
    for f in reversed(range(width)):  # reversed columns: the free ones ascending
        if f not in pivots:
            v: list[int | Fraction] = [0] * width
            v[f] = 1
            for row, c in zip(reduced, pivots):
                v[c] = -row[f]
            vectors.append(_primitive(v[::-1]))
    return tuple(vectors)
