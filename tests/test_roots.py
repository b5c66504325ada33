import random
import time

import pytest

from borelideals import (
    InvalidInputError,
    StructuralError,
    cartan_matrix,
    coroot_pairing,
    dynkin_description,
    generate_positive_roots,
    is_monomial_ideal,
    is_root,
    monomial_bracket,
    monomial_subalgebra,
    reflect_simple,
    root_ascii,
    root_height,
    root_sort_key,
    root_vector_str,
)
from borelideals import cli, roots
from borelideals.roots import MAX_COEFFICIENT, positive_root_count
from conftest import system

# Classical number of positive roots per type.
EXPECTED_COUNTS = {
    **{("A", n): n * (n + 1) // 2 for n in range(1, 9)},
    **{("B", n): n * n for n in range(2, 9)},
    **{("C", n): n * n for n in range(2, 9)},
    **{("D", n): n * (n - 1) for n in range(3, 9)},
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
}

# Systems whose root tables are checked against tuple addition.
TABLE_SYSTEMS = (
    [("A", n) for n in (*range(1, 13), 20)]
    + [(f, n) for f in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def closure_is_fixed_point(rs) -> bool:
    """Independent pass: reflecting every root once more must add nothing.

    <r, alpha_j^v> is the sum of c_i * cartan[i][j], so the pairings are
    summed over the nonzero entries of the rows in r's support alone; each
    negative one is checked against ``coroot_pairing`` and reflected.
    """
    found = set(rs.positive_roots)
    entries = [[(j, a) for j, a in enumerate(row) if a] for row in rs.cartan]
    for r in rs.positive_roots:
        pairings: dict[int, int] = {}
        for i, c in enumerate(r):
            for j, a in entries[i] if c else ():
                pairings[j] = pairings.get(j, 0) + c * a
        for j, p in pairings.items():
            if p < 0:
                assert coroot_pairing(r, j, rs.cartan) == p
                if reflect_simple(r, j, rs.cartan) not in found:
                    return False
    return True


def index_of_sum(rs, r, s):
    return rs._position.get(tuple(a + b for a, b in zip(r, s)))


def up_mask_by_tuple_addition(rs, r):
    ups = (index_of_sum(rs, r, a) for a in rs.simple_roots)
    return sum(1 << u for u in ups if u is not None)


# The largest rank of each classical family under the command line's cap of
# 4096 positive roots, and ranks between those and the table systems.
LARGE_SYSTEMS = [("A", 90), ("B", 64), ("C", 64), ("D", 64)]
MIDDLE_SYSTEMS = [("B", 30), ("C", 30), ("D", 45)]


def _from_epsilon(family, rank, v):
    """Simple-root coefficients of a vector v in the epsilon basis (Bourbaki, Plates I-IV).

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


def _epsilon_roots(family, rank):
    """Positive roots from the epsilon basis: e_i - e_j and e_i + e_j (i < j), e_i (B), 2e_i (C).

    A has e_i - e_j only, in dimension rank + 1.
    """
    dim = rank + 1 if family == "A" else rank

    def e(*terms):
        v = [0] * dim
        for i, c in terms:
            v[i] += c
        return v

    vectors = [e((i, 1), (j, -1)) for i in range(dim) for j in range(i + 1, dim)]
    if family != "A":
        vectors += [e((i, 1), (j, 1)) for i in range(dim) for j in range(i + 1, dim)]
    if family in "BC":
        vectors += [e((i, 1 if family == "B" else 2)) for i in range(dim)]
    return [_from_epsilon(family, rank, v) for v in vectors]


def test_cartan_matrix_rank2_values():
    assert cartan_matrix("A", 2) == ((2, -1), (-1, 2))
    assert cartan_matrix("B", 2) == ((2, -2), (-1, 2))
    assert cartan_matrix("G", 2) == ((2, -1), (-3, 2))


def test_cartan_matrix_f4():
    assert cartan_matrix("F", 4) == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


@pytest.mark.parametrize("family,rank", sorted(EXPECTED_COUNTS))
def test_cartan_matrix_well_formed(family, rank):
    cm = cartan_matrix(family, rank)
    for i in range(rank):
        assert cm[i][i] == 2
        for j in range(rank):
            if i != j:
                assert cm[i][j] in (0, -1, -2, -3)
                assert (cm[i][j] == 0) == (cm[j][i] == 0)


@pytest.mark.parametrize(
    "family,rank,message_part",
    [
        ("Z", 9, "unknown family"),
        ("A", 0, "rank >= 1"),
        ("B", 1, "rank >= 2"),
        ("C", 1, "rank >= 2"),
        ("D", 2, "rank >= 3"),
        ("E", 5, "rank >= 6"),
        ("E", 9, "rank <= 8"),
        ("F", 3, "rank >= 4"),
        ("F", 5, "rank <= 4"),
        ("G", 3, "rank <= 2"),
    ],
)
def test_invalid_family_rank_rejected(family, rank, message_part):
    with pytest.raises(InvalidInputError, match=message_part):
        cartan_matrix(family, rank)


def test_coroot_pairing_values():
    a2 = cartan_matrix("A", 2)
    b2 = cartan_matrix("B", 2)
    assert coroot_pairing((1, 0), 0, a2) == 2
    assert coroot_pairing((1, 0), 0, b2) == 2
    assert coroot_pairing((1, 0), 1, b2) == -2
    assert coroot_pairing((1, 1), 1, a2) == 1


def test_coroot_pairing_rejects_bad_dimensions():
    a2 = cartan_matrix("A", 2)
    with pytest.raises(InvalidInputError):
        coroot_pairing((1, 0, 0), 0, a2)
    with pytest.raises(InvalidInputError):
        coroot_pairing((1, 0), 2, a2)
    with pytest.raises(InvalidInputError):
        coroot_pairing((1, 0), -1, a2)
    with pytest.raises(InvalidInputError):
        coroot_pairing((1, 0), 1.0, a2)
    for root in ((1.5, 0), ("x", 0)):
        with pytest.raises(InvalidInputError, match="not an int"):
            coroot_pairing(root, 0, a2)
        with pytest.raises(InvalidInputError, match="not an int"):
            reflect_simple(root, 0, a2)


def test_reflect_simple_values():
    assert reflect_simple((1, 0), 1, cartan_matrix("B", 2)) == (1, 2)
    assert reflect_simple((1, 0), 0, cartan_matrix("A", 2)) == (-1, 0)
    assert reflect_simple((0, 1), 0, cartan_matrix("G", 2)) == (3, 1)


def test_positive_roots_rank2_lists():
    assert generate_positive_roots(cartan_matrix("A", 2)) == ((1, 0), (0, 1), (1, 1))
    assert generate_positive_roots(cartan_matrix("B", 2)) == (
        (1, 0),
        (0, 1),
        (1, 1),
        (1, 2),
    )
    assert generate_positive_roots(cartan_matrix("G", 2)) == (
        (1, 0),
        (0, 1),
        (1, 1),
        (2, 1),
        (3, 1),
        (3, 2),
    )


@pytest.mark.parametrize(
    "cartan",
    [
        ((2, -2), (-2, 2)),
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
        ((2, -1, 0), (-1, 2, -3), (0, -1, 2)),
        ((2, -2, 0), (-1, 2, -1), (0, -2, 2)),
        ((2, -3), (-3, 2)),
    ],
    ids=["affine-A1", "affine-A2", "affine-G2", "affine-C2", "hyperbolic-rank2"],
)
def test_generate_rejects_cartan_matrix_not_of_finite_type(cartan):
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="not of finite type"):
        generate_positive_roots(cartan)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "cartan",
    [((2, -1),), ((2, -1), (-1, 3)), ((2, 1), (1, 2)), ((2, -4), (-1, 2)), ((2, -1), (0, 2)),
     ((2, -1.5), (-1, 2)), ((2, "-1"), (-1, 2))],
    ids=["not-square", "diagonal", "positive", "below-minus-3", "one-sided-zero", "float-entry", "str-entry"],
)
def test_generate_rejects_malformed_cartan_matrix(cartan):
    with pytest.raises(InvalidInputError, match="malformed Cartan matrix"):
        generate_positive_roots(cartan)


def test_reducible_matrix_has_no_unique_highest_root(monkeypatch):
    # A1 x A1: both simple roots are unextendable
    monkeypatch.setattr(roots, "cartan_matrix", lambda family, rank: ((2, 0), (0, 2)))
    with pytest.raises(StructuralError, match="highest root is not unique"):
        roots.root_system("A", 2)


@pytest.mark.parametrize(
    "family,ranks",
    [("A", range(1, 40)), ("B", range(2, 40)), ("C", range(2, 40)), ("D", range(3, 40)),
     ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))],
)
def test_positive_root_count_closed_form_matches_the_exponents(family, ranks):
    # h = n + 1, 2n, 2n, 2n - 2 for A, B, C, D is the largest exponent plus one
    for rank in ranks:
        h = max(roots.coxeter_exponents(family, rank)) + 1
        assert positive_root_count(family, rank) == rank * h // 2


@pytest.mark.parametrize("family,rank", LARGE_SYSTEMS + MIDDLE_SYSTEMS)
def test_large_rank_counts_and_closure(family, rank):
    """Counts and closure, and ``_up_masks`` against tuple addition (the sum rows are O(n^2))."""
    rs = roots.root_system(family, rank)
    count = {"A": rank * (rank + 1) // 2, "B": rank**2, "C": rank**2, "D": rank * (rank - 1)}
    assert len(rs.positive_roots) == count[family] == positive_root_count(family, rank)
    assert closure_is_fixed_point(rs)
    assert list(rs._up_masks) == [up_mask_by_tuple_addition(rs, r) for r in rs.positive_roots]


@pytest.mark.parametrize(
    "family,rank",
    [*LARGE_SYSTEMS, *MIDDLE_SYSTEMS, ("A", 1), ("A", 7), ("B", 2), ("B", 5), ("C", 2), ("C", 6), ("D", 3)],
)
def test_roots_match_epsilon_basis_lists(family, rank):
    expected = tuple(sorted(_epsilon_roots(family, rank), key=root_sort_key))
    assert generate_positive_roots(cartan_matrix(family, rank)) == expected


@pytest.mark.parametrize(
    "argv,rows",
    [
        (["roots", "A", "40"], 0),
        (["roots", "D", "24", "--format", "json"], 0),
        (["check", "B", "20", "--set", "a1, a2, a1+a2"], 3),
        (["check", "A", "40", "--set", "a1+a2, a2"], 2),
        (["normalizer", "A", "40", "--set", "a1, a2, a1+a2"], 3),
        (["centralizer", "D", "24", "--set", "a1"], 1),
    ],
)
def test_queries_build_only_the_sum_rows_of_the_set(argv, rows, monkeypatch, capsys):
    built = []

    def spy(family, rank):
        built.append(roots.root_system(family, rank))
        return built[-1]

    monkeypatch.setattr(cli, "root_system", spy)
    assert cli.run(argv) == 0
    assert capsys.readouterr().out
    (rs,) = built
    assert len(rs._sum_masks) == rows  # built rows only; the others stay unbuilt


@pytest.mark.parametrize("family,rank", TABLE_SYSTEMS)
def test_root_tables_match_tuple_addition(family, rank):
    rs = system(family, rank)

    for g, r in enumerate(rs.positive_roots):
        assert rs._up_masks[g] == up_mask_by_tuple_addition(rs, r)
        sums = [index_of_sum(rs, r, s) for s in rs.positive_roots]
        assert rs._sum_masks[g] == sum(1 << h for h, t in enumerate(sums) if t is not None)
        assert [rs.sum_index(g, h) for h in range(len(sums))] == sums


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2), ("E", 8), ("A", 40)])
def test_roots_of_inverts_mask_of(family, rank):
    """Every subset of the rank-2 systems, seeded random ones of E8 and A40."""
    rs = system(family, rank)
    n = len(rs.positive_roots)
    rng = random.Random(n)
    masks = range(1 << n) if n <= 6 else [0, rs.full_mask, *(rng.getrandbits(n) for _ in range(100))]
    for mask in masks:
        members = {r for g, r in enumerate(rs.positive_roots) if mask >> g & 1}
        assert rs.mask_of(members) == mask
        assert rs.roots_of(mask) == tuple(sorted(members, key=root_sort_key))
    for outside in (-1, rs.full_mask + 1, 1.5, True):
        with pytest.raises(InvalidInputError, match="not a mask of"):
            rs.roots_of(outside)


def test_largest_root_coefficient_is_reached_on_e8():
    largest = {
        (family, rank): max(max(r) for r in system(family, rank).positive_roots)
        for family, rank in TABLE_SYSTEMS
    }
    assert max(largest.values()) == largest[("E", 8)] == MAX_COEFFICIENT


@pytest.mark.parametrize("family,rank", sorted(EXPECTED_COUNTS))
def test_positive_root_counts_and_closure(family, rank):
    rs = system(family, rank)
    assert len(rs.positive_roots) == EXPECTED_COUNTS[(family, rank)]
    assert closure_is_fixed_point(rs)


@pytest.mark.parametrize("family,rank", sorted(EXPECTED_COUNTS))
def test_closure_soundness(family, rank):
    rs = system(family, rank)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)
    for r in rs.positive_roots:
        assert all(c >= 0 for c in r) and any(c > 0 for c in r)
    for simple in rs.simple_roots:
        assert simple in rs.positive_roots


@pytest.mark.parametrize(
    "family,rank,expected",
    [
        ("A", 2, (1, 1)),
        ("B", 2, (1, 2)),
        ("G", 2, (3, 2)),
        ("F", 4, (2, 3, 4, 2)),
        ("E", 6, (1, 2, 2, 3, 2, 1)),
        ("E", 7, (2, 2, 3, 4, 3, 2, 1)),
        ("E", 8, (2, 3, 4, 6, 5, 4, 3, 2)),
    ],
)
def test_highest_root_values(family, rank, expected):
    assert system(family, rank).highest_root == expected


@pytest.mark.parametrize("family,rank", sorted(EXPECTED_COUNTS))
def test_highest_root_characterization(family, rank):
    rs = system(family, rank)
    members = set(rs.positive_roots)
    unextendable = [
        r
        for r in rs.positive_roots
        if all(
            tuple(a + b for a, b in zip(r, s)) not in members for s in rs.simple_roots
        )
    ]
    assert unextendable == [rs.highest_root]
    top = max(root_height(r) for r in rs.positive_roots)
    assert root_height(rs.highest_root) == top
    assert sum(1 for r in rs.positive_roots if root_height(r) == top) == 1


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_reflection_involution(family, rank):
    rs = system(family, rank)
    for r in rs.positive_roots:
        for j in range(rs.rank):
            assert reflect_simple(reflect_simple(r, j, rs.cartan), j, rs.cartan) == r


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("G", 2)])
def test_pairing_linearity(family, rank):
    rs = system(family, rank)
    roots = rs.positive_roots
    for r in roots:
        for s in roots:
            total = tuple(a + b for a, b in zip(r, s))
            for j in range(rs.rank):
                assert coroot_pairing(total, j, rs.cartan) == coroot_pairing(
                    r, j, rs.cartan
                ) + coroot_pairing(s, j, rs.cartan)


@pytest.mark.parametrize("family,rank", [("B", 2), ("G", 2), ("F", 4)])
def test_cartan_action_values_are_bounded(family, rank):
    # evaluation of a root on a simple coroot stays within the range set by
    # the Cartan matrix column extended over root heights
    rs = system(family, rank)
    bound = max(root_height(r) for r in rs.positive_roots) * 3
    for r in rs.positive_roots:
        for j in range(rs.rank):
            assert abs(coroot_pairing(r, j, rs.cartan)) <= bound


def test_monomial_bracket_values():
    a2 = system("A", 2)
    assert monomial_bracket((1, 0), (0, 1), a2) == (1, 1)
    assert monomial_bracket((1, 0), (1, 1), a2) is None
    for r in a2.positive_roots:
        assert monomial_bracket(r, r, a2) is None


def test_monomial_bracket_rejects_non_roots():
    a2 = system("A", 2)
    with pytest.raises(InvalidInputError):
        monomial_bracket((2, 1), (0, 1), a2)
    with pytest.raises(InvalidInputError):
        monomial_bracket((1, 0), (0, 0), a2)
    with pytest.raises(InvalidInputError):
        monomial_bracket((16, 0), (1, 0), a2)  # packs to the root key of a2


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("G", 2)])
def test_monomial_bracket_symmetric_support_and_grading(family, rank):
    rs = system(family, rank)
    for r in rs.positive_roots:
        for s in rs.positive_roots:
            one = monomial_bracket(r, s, rs)
            other = monomial_bracket(s, r, rs)
            assert one == other
            if one is not None:
                assert root_height(one) == root_height(r) + root_height(s)


def test_is_root_membership():
    a2 = system("A", 2)
    assert is_root((1, 1), a2)
    assert not is_root((2, 1), a2)
    assert not is_root((0, 0), a2)
    with pytest.raises(InvalidInputError):
        is_root((1, 0, 0), a2)


def test_a_root_given_as_a_list_raises_invalid_input():
    # roots are tuples; a list is unhashable, which must not surface as a TypeError
    a2 = system("A", 2)
    with pytest.raises(InvalidInputError):
        a2.index_of([1, 0])
    with pytest.raises(InvalidInputError):
        is_root([1, 1], a2)
    with pytest.raises(InvalidInputError):
        is_root(5, a2)
    with pytest.raises(InvalidInputError):
        is_monomial_ideal([[1, 1]], a2)
    with pytest.raises(InvalidInputError):
        monomial_subalgebra([[1, 0]], a2)


def test_root_height_values():
    assert root_height((1, 0)) == 1
    assert root_height((1, 2)) == 3
    assert root_height((2, 3, 4, 2)) == 11


def test_canonical_order_is_height_then_descending_lex():
    # ties in height break toward larger leading coefficients
    assert sorted([(0, 1), (1, 0)], key=root_sort_key) == [(1, 0), (0, 1)]
    assert sorted([(1, 2), (1, 1), (0, 1)], key=root_sort_key) == [
        (0, 1),
        (1, 1),
        (1, 2),
    ]


def test_root_renderings_are_stable():
    assert root_ascii((1, 2)) == "a1+2a2"
    assert root_ascii((1, 0)) == "a1"
    assert root_ascii((2, 3, 4, 2)) == "2a1+3a2+4a3+2a4"
    assert root_ascii((0, 0)) == "0"
    assert root_ascii((1, 2), unicode_alpha=True) == "α1+2α2"
    assert root_vector_str((1, 2)) == "[1,2]"
    assert root_vector_str((2, 3, 4, 2)) == "[2,3,4,2]"


def test_dynkin_descriptions():
    assert dynkin_description(system("A", 2)) == "A2: a1-a2"
    assert dynkin_description(system("A", 1)) == "A1: a1"
    assert dynkin_description(system("B", 2)) == "B2: a1=2>a2"
    assert dynkin_description(system("C", 2)) == "C2: a1<2=a2"
    assert dynkin_description(system("G", 2)) == "G2: a1<3=a2"
    assert dynkin_description(system("D", 4)) == "D4: a1-a2, a2-a3, a2-a4"
    assert dynkin_description(system("F", 4)) == "F4: a1-a2, a2=2>a3, a3-a4"


def test_labels_build_only_the_set_asked_for(monkeypatch):
    rendered = []

    def counted(root, unicode_alpha=False):
        rendered.append(unicode_alpha)
        return root_ascii(root, unicode_alpha)

    monkeypatch.setattr(roots, "root_ascii", counted)
    rs = roots.root_system("A", 40)  # fresh: no label set built yet
    ascii_labels = rs.labels(False)
    assert rendered == [False] * 820  # the Unicode set stays unbuilt
    assert rs.labels(True) == tuple(root_ascii(r, True) for r in rs.positive_roots)
    assert rendered == [False] * 820 + [True] * 820
    assert ascii_labels == tuple(root_ascii(r) for r in rs.positive_roots)
