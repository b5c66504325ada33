"""Byte-wise rendering of root sets: text lines, JSON entries and DOT nodes, on ideals and on any mask.

``_mask_renderer`` and ``_entry_renderer`` make each chunk with one join
(``mask_joiner``): the caller's head, the lowest set bit's item with the
opening bracket fused on, per-byte strings of the other bits, then the
closing bracket and the caller's tail pieces.  So the cases that matter are
the zero mask, masks whose set bits sit at slice boundaries (bits 7 and 8)
or whose first byte is empty, systems whose root count is or is not a whole
number of bytes, and masks that are not ideals at all (``normalizer``,
``centralizer`` and ``check`` render those).

A JSON entry leads with its own comma, new line and pad, so ``_json_list``
passes every entry but the first through as it is; a DOT node line is one
render call around the node's label, so ``_dot_chunks`` yields it as it is.
"""

import inspect
import json
import random

import pytest

from borelideals import ideal_ascii
from borelideals.cli import _entry_renderer, _json_list
from borelideals.ideals import _Counts, _enumerate_masks, _ideal_from_mask
from borelideals.lattice import DotOptions, _dot_chunks
from borelideals.roots import _mask_renderer, mask_joiner
from conftest import system


def a40_masks():
    """Zero, full, single bits at the byte edges and seeded random masks of A40 (820 roots)."""
    rs = system("A", 40)
    n = len(rs.positive_roots)
    assert n == 820
    rng = random.Random(20)
    singles = [1 << g for g in (0, 7, 8, n - 1)]
    randoms = [rng.getrandbits(n) for _ in range(20)] + [
        sum(1 << g for g in rng.sample(range(n), k)) for k in (2, 9, 100)
    ]
    return rs, [0, rs.full_mask, *singles, *randoms]


def ideal_masks(family, rank):
    rs = system(family, rank)
    return rs, [m for layer in _enumerate_masks(rs) for m in layer]


CASES = [
    pytest.param(lambda: ideal_masks("G", 2), id="G2-ideals"),  # 6 roots
    pytest.param(lambda: ideal_masks("A", 5), id="A5-ideals"),  # 15 roots
    pytest.param(lambda: ideal_masks("B", 4), id="B4-ideals"),  # 16 roots, whole bytes
    pytest.param(a40_masks, id="A40-masks"),
]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("unicode_alpha", [False, True])
def test_mask_renderer_matches_ideal_ascii(case, unicode_alpha):
    rs, masks = case()
    render = _mask_renderer(rs, unicode_alpha)
    for m in masks:
        text = ideal_ascii(_ideal_from_mask(m, rs), unicode_alpha)
        assert render(m) == text and render(m, "head ", " tail\n") == f"head {text} tail\n"


@pytest.mark.parametrize("case", CASES)
def test_entry_renderer_reads_back(case):
    rs, masks = case()
    entry = _entry_renderer(rs, 4)
    for i, m in enumerate(masks):
        abelian = i % 2 == 0
        want = {
            "roots": [list(r) for r in _ideal_from_mask(m, rs).roots],
            "dimension": m.bit_count(),
            "abelian": abelian,
        }
        # a list item: its own comma, new line and pad, then the entry
        assert json.loads(entry(m, abelian).removeprefix(",")) == want
        assert entry(m, abelian) == ",\n    " + json.dumps(want, indent=2).replace("\n", "\n    ")


def test_mask_joiner_fills_its_rows_lazily():
    # a command that renders one mask of a large system must not build the
    # 256 strings of every byte slice
    items = [f"<{g}>" for g in range(820)]
    join = mask_joiner(items, ",", "(", ")", "-")
    rows = inspect.getclosurevars(join).nonlocals["rows"]
    assert len(rows) == 103 and not any(rows)
    assert join(1 << 8 | 1 << 819 | 1) == "(<0>,<8>,<819>)"
    assert sum(map(len, rows)) == len(rows)  # one byte value read per slice
    assert join(0) == "-" and join((1 << 820) - 1) == f"({','.join(items)})"


@pytest.mark.parametrize(
    "sep,opening,closing,empty",
    [(", ", "[", "]", "0"), (",", "[", "\n    ]", "[]")],  # text, and JSON as an entry nests it
    ids=["text", "json"],
)
def test_mask_joiner_puts_the_head_and_tail_around_one_list(sep, opening, closing, empty):
    items = [f"<{g}>" for g in range(20)]  # 20 items: the last byte is partly used
    join = mask_joiner(items, sep, opening, closing, empty)
    assert join(0, "head ", " tail") == f"head {empty} tail"
    for g in (0, 7, 8, 19):  # the byte edges and the last item: the bracket fused on, no separator
        assert join(1 << g, "head ", " tail") == f"head {opening}<{g}>{closing} tail"
    first_byte_empty = 1 << 8 | 1 << 9 | 1 << 19
    assert join(first_byte_empty, "head ", " tail") == f"head {opening}<8>{sep}<9>{sep}<19>{closing} tail"
    assert join(first_byte_empty) == f"{opening}<8>{sep}<9>{sep}<19>{closing}"
    # a tail in pieces: each put after the list in turn
    assert join(0, "head ", " ta", "", "il") == f"head {empty} tail"
    assert join(first_byte_empty, "head ", " ta", "", "il") == f"head {opening}<8>{sep}<9>{sep}<19>{closing} tail"


def test_json_list_passes_every_item_but_the_first_through():
    items = [f",\n    {i}" for i in range(5)]  # each a fresh string, led by its own comma
    chunks = list(_json_list(iter(items), 2))
    assert chunks[0] == "[" + items[0][1:]
    assert len(chunks) == 6 and all(chunk is item for chunk, item in zip(chunks[1:-1], items[1:]))
    assert chunks[-1] == "\n  ]" and json.loads("".join(chunks)) == list(range(5))


@pytest.mark.parametrize("mark_abelian", [True, False])
def test_dot_chunks_yield_each_node_line_from_one_render_call(mark_abelian):
    rs = system("G", 2)
    nodes = list(_Counts(rs).walk(_enumerate_masks(rs)))
    calls, lines = [], []

    def render(node, *pieces):
        calls.append((node, *pieces))
        lines.append(f"<{node}>")  # a fresh string per call
        return lines[-1]

    chunks = list(_dot_chunks(nodes, [(0, 1)], DotOptions(mark_abelian=mark_abelian), render))
    fill = ', style=filled, fillcolor="lightgrey"' if mark_abelian else ""
    assert calls == [(m, f'  n{i} [label="', f'"{fill}];\n' if a else '"];\n') for i, (m, a) in enumerate(nodes)]
    assert len(chunks) == len(nodes) + 3 and all(chunk is line for chunk, line in zip(chunks[1:], lines))
    assert chunks[-2:] == ["  n0 -> n1;\n", "}\n"]
