"""Independent references: what the tests and ``tests/caps.py`` check the program against.

Every value here comes from the epsilon basis of the classical root systems
(Bourbaki, Plates I-IV) or from a closed form in the literature, never from
the program.  The module imports nothing from ``borelideals``, ``pytest`` or
``hypothesis``, so the caps checker runs without them.

- ``epsilon_roots``, ``epsilon_cartan`` and ``canonical_key``: the positive
  roots, the Cartan matrix and the canonical root order of A-D;
- ``up_closure``: the smallest ideal holding some roots of an explicit list;
- ``exponents``: the exponents of every irreducible type;
- ``malcev_dimension``, ``w_narayana``, ``q_catalan`` and
  ``positive_catalan``: the closed forms of the ideals (see
  ``tests/test_closed_forms.py`` for their sources);
- ``rref`` and ``assert_reduced_kernel``: the rational reference for the
  integer kernels of ``classify``.
"""

from fractions import Fraction
from math import comb, gcd


def canonical_key(root):
    """The canonical root order: by height, then coefficient vectors in descending lex."""
    return (sum(root), tuple(-c for c in root))


def _epsilon(dim, *terms):
    """The vector sum of c e_i over the (i, c) in ``terms``, in dimension ``dim``."""
    v = [0] * dim
    for i, c in terms:
        v[i] += c
    return v


def _from_epsilon(family, rank, v):
    """Simple-root coefficients of a vector v in the epsilon basis.

    alpha_i = e_i - e_(i+1) for i < rank (A: for every i <= rank); the last
    simple root is e_rank (B), 2 e_rank (C) or e_(rank-1) + e_rank (D).
    """
    prefix = [sum(v[: i + 1]) for i in range(len(v))]
    if family == "A":
        return tuple(prefix[:rank])
    if family == "B":
        return tuple(prefix)
    if family == "C":
        return (*prefix[:-1], prefix[-1] // 2)
    # D: c_(n-1) + c_n = v_(n-1) + prefix_(n-2) and c_n - c_(n-1) = v_n
    s = prefix[rank - 3]
    return (*prefix[: rank - 2], (v[-2] - v[-1] + s) // 2, (v[-2] + v[-1] + s) // 2)


def epsilon_roots(family, rank):
    """Positive roots of A-D, canonically sorted: e_i - e_j and e_i + e_j (i < j), e_i (B), 2e_i (C).

    A has e_i - e_j only, in dimension rank + 1.
    """
    dim = rank + 1 if family == "A" else rank
    vectors = [_epsilon(dim, (i, 1), (j, -1)) for i in range(dim) for j in range(i + 1, dim)]
    if family != "A":
        vectors += [_epsilon(dim, (i, 1), (j, 1)) for i in range(dim) for j in range(i + 1, dim)]
    if family in "BC":
        vectors += [_epsilon(dim, (i, 1 if family == "B" else 2)) for i in range(dim)]
    return tuple(sorted((_from_epsilon(family, rank, v) for v in vectors), key=canonical_key))


def epsilon_cartan(family, rank):
    """The Cartan matrix of A-D, entry (i, j) = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)."""
    dim = rank + 1 if family == "A" else rank
    simple = [_epsilon(dim, (i, 1), (i + 1, -1)) for i in range(dim - 1)]
    if family != "A":
        simple.append({"B": _epsilon(dim, (rank - 1, 1)), "C": _epsilon(dim, (rank - 1, 2)),
                       "D": _epsilon(dim, (rank - 2, 1), (rank - 1, 1))}[family])

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    return tuple(tuple(2 * dot(a, b) // dot(b, b) for b in simple) for a in simple)


def up_closure(generators, positives):
    """Smallest superset of ``generators`` closed under adding a simple root when the sum is in ``positives``."""
    members, closed, todo = set(positives), set(generators), list(generators)
    while todo:
        r = todo.pop()
        for i in range(len(r)):
            s = (*r[:i], r[i] + 1, *r[i + 1 :])
            if s in members and s not in closed:
                closed.add(s)
                todo.append(s)
    return frozenset(closed)


EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


def exponents(family, rank):
    """Exponents e_1..e_rank of the Weyl group, ascending; the Coxeter number is the largest plus one."""
    if family == "A":
        return tuple(range(1, rank + 1))
    if family in "BC":
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        return tuple(sorted((*range(1, 2 * rank - 2, 2), rank - 1)))
    return EXCEPTIONAL_EXPONENTS[family, rank]


def malcev_dimension(family, rank):
    """Dimension of the largest abelian ideal (B for rank >= 4, D for rank >= 4)."""
    n = rank
    classical = {
        "A": (n + 1) ** 2 // 4,
        "B": n * (n - 1) // 2 + 1,
        "C": n * (n + 1) // 2,
        "D": n * (n - 1) // 2,
    }
    exceptional = {("E", 6): 16, ("E", 7): 27, ("E", 8): 36, ("F", 4): 9, ("G", 2): 3}
    return classical[family] if family in classical else exceptional[family, rank]


EXCEPTIONAL_NARAYANA = {
    ("E", 6): (1, 36, 204, 351, 204, 36, 1),
    ("E", 7): (1, 63, 546, 1470, 1470, 546, 63, 1),
    ("E", 8): (1, 120, 1540, 6120, 9518, 6120, 1540, 120, 1),
    ("F", 4): (1, 24, 55, 24, 1),
    ("G", 2): (1, 6, 1),
}


def w_narayana(family, n, k):
    """Ideals with k minimal roots (zero ideal included)."""
    if (family, n) in EXCEPTIONAL_NARAYANA:
        return EXCEPTIONAL_NARAYANA[family, n][k]
    if family == "A":
        value = Fraction(comb(n + 1, k) * comb(n + 1, k + 1), n + 1)
    elif family in "BC":
        value = Fraction(comb(n, k) ** 2)
    else:  # D
        below = comb(n - 1, k - 1) if k else 0
        value = comb(n, k) ** 2 - Fraction(n, n - 1) * comb(n - 1, k) * below
    assert value.denominator == 1
    return int(value)


def q_catalan(m):
    """Coefficients of the Carlitz-Riordan C_m(q): C_0 = 1, C_{m+1} = sum_k q^((k+1)(m-k)) C_k C_{m-k}."""
    polys = [[1]]
    for top in range(m):
        poly = [0] * (1 + top * (top + 1) // 2)  # C_{top+1} has degree (top+1) top / 2
        for k in range(top + 1):
            shift = (k + 1) * (top - k)
            for i, a in enumerate(polys[k]):
                for j, b in enumerate(polys[top - k]):
                    poly[shift + i + j] += a * b
        polys.append(poly)
    return polys[m]


def _determinant(matrix):
    """Integer determinant by Bareiss elimination, each division exact.

    No pivot is sought: the leading principal minors of a Cartan matrix of
    finite type are positive.
    """
    m = [list(row) for row in matrix]
    prev = 1
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def _component_type(cartan):
    """Family and rank of an irreducible Cartan matrix, from its rank, lacing and determinant.

    Simply laced: A_n has determinant n + 1, D_n 4, E6, E7 and E8 3, 2 and 1.
    Otherwise B_n and C_n have 2, F4 and G2 1; B and C share their exponents.
    """
    rank, det = len(cartan), _determinant(cartan)
    if all(a >= -1 for row in cartan for a in row):
        family = "A" if det == rank + 1 else "D" if det == 4 else "E"
        assert family != "E" or det == {6: 3, 7: 2, 8: 1}[rank]
    else:
        family = "B" if det == 2 else {4: "F", 2: "G"}[rank]
        assert det == 2 or det == 1
    return family, rank


def positive_catalan(cartan, missing):
    """Cat+ of the parabolic subsystem on the simple roots in ``missing``: 1 when it is empty.

    Per connected component of the subdiagram, prod (h + e_i - 1) / (e_i + 1).
    """
    left = {i for i in range(len(cartan)) if missing >> i & 1}
    value = Fraction(1)
    while left:  # one connected component of the subdiagram per pass
        part, todo = [], [left.pop()]
        while todo:
            i = todo.pop()
            part.append(i)
            linked = {j for j in left if cartan[i][j]}
            left -= linked
            todo.extend(linked)
        es = exponents(*_component_type([[cartan[i][j] for j in part] for i in part]))
        h = max(es) + 1
        for e in es:
            value *= Fraction(h + e - 1, e + 1)
    assert value.denominator == 1
    return int(value)


def rref(rows, width):
    """Reduced row-echelon form over the rationals; returns the nonzero rows and pivot columns.

    The rational reference for ``kernel_basis``, which works in integers alone.
    """
    m = [list(map(Fraction, row)) for row in rows]
    pivots = []
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


def assert_reduced_kernel(rows, width, basis):
    """Check that ``basis`` is the normalized kernel of ``rows``.

    Vectors in the kernel, as many as its dimension (by ``rref``), with
    ascending pivots, each pivot column zero in the other vectors, coprime
    entries and a positive lead: only one basis has all of these.
    """
    assert len(basis) == width - len(rref(rows, width)[0])
    pivots = [next(i for i, x in enumerate(vec) if x) for vec in basis]
    assert pivots == sorted(set(pivots))
    for vec, p in zip(basis, pivots):
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
        assert gcd(*vec) == 1 and vec[p] > 0
        assert all(other[p] == 0 for other in basis if other is not vec)
