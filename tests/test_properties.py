"""Property tests on random root sets of several types.

Each example draws a system and a nonempty random set of its positive roots;
the subalgebra properties run on the closure of that set under root
addition, computed here by tuple addition independently of the library.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from borelideals import (
    MonomialIdeal,
    is_abelian,
    is_monomial_ideal,
    is_monomial_subalgebra,
    monomial_centralizer,
    monomial_normalizer,
    monomial_subalgebra,
    root_ascii,
    root_sort_key,
)
from borelideals.cli import parse_root_set, run
from conftest import system

SYSTEMS = [("A", 8), ("B", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]

# Deterministic examples and no example database, so that runs repeat
# exactly; conftest keeps Hypothesis's other files out of the tree.
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def root_sets(draw):
    """A system and a nonempty set of its positive roots."""
    rs = system(*draw(st.sampled_from(SYSTEMS)))
    roots = draw(st.sets(st.sampled_from(rs.positive_roots), min_size=1, max_size=5))
    return rs, frozenset(roots)


def add(r, s):
    return tuple(a + b for a, b in zip(r, s))


def sum_closure(roots, rs):
    """Smallest superset of ``roots`` closed under sums that are roots."""
    members = set(rs.positive_roots)
    closed = set(roots)
    while True:
        sums = {add(r, s) for r in closed for s in closed}
        fresh = (sums & members) - closed
        if not fresh:
            return frozenset(closed)
        closed |= fresh


@PROPERTY_SETTINGS
@given(root_sets())
def test_normalizer_contains_input_is_closed_and_matches_definition(case):
    rs, roots = case
    sub = monomial_subalgebra(sum_closure(roots, rs), rs)
    normalizer = monomial_normalizer(sub, rs)
    assert set(sub.roots) <= set(normalizer.roots)
    assert is_monomial_subalgebra(normalizer.roots, rs)
    assert sum_closure(normalizer.roots, rs) == set(normalizer.roots)
    members, span = set(rs.positive_roots), set(sub.roots)
    assert set(normalizer.roots) == {
        r for r in members if all(add(r, s) not in members - span for s in span)
    }


@PROPERTY_SETTINGS
@given(root_sets())
def test_centralizer_lies_inside_normalizer(case):
    rs, roots = case
    sub = monomial_subalgebra(sum_closure(roots, rs), rs)
    assert monomial_centralizer(sub, rs) <= set(monomial_normalizer(sub, rs).roots)


def up_closure(roots, rs):
    """Smallest superset of ``roots`` closed under adding simple roots, when the sum is a root."""
    members = set(rs.positive_roots)
    closed, todo = set(roots), list(roots)
    while todo:
        r = todo.pop()
        for s in {add(r, a) for a in rs.simple_roots} & members - closed:
            closed.add(s)
            todo.append(s)
    return frozenset(closed)


@PROPERTY_SETTINGS
@given(root_sets(), st.sampled_from([None, sum_closure, up_closure]))
def test_check_json_agrees_with_library_predicates(case, closure):
    rs, roots = case
    if closure:
        roots = closure(roots, rs)
    assert is_monomial_ideal(roots, rs) == (up_closure(roots, rs) == roots)
    literal = ", ".join(root_ascii(r) for r in roots)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["check", rs.family, str(rs.rank), "--set", literal, "--format", "json"])
    assert code == 0
    ideal = MonomialIdeal(tuple(sorted(roots, key=root_sort_key)))
    assert json.loads(out.getvalue())["checks"] == {
        "is_monomial_ideal": is_monomial_ideal(roots, rs),
        "is_monomial_subalgebra": is_monomial_subalgebra(roots, rs),
        "is_abelian_set": is_abelian(ideal, rs),
    }


@PROPERTY_SETTINGS
@given(root_sets())
def test_parse_root_set_inverts_ascii_labels(case):
    rs, roots = case
    labels = rs.labels()
    literal = ", ".join(labels[rs.index_of(r)] for r in roots)
    assert parse_root_set(literal, rs) == roots
