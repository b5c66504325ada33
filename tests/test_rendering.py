"""Byte-wise rendering of root sets: text and JSON entries, on ideals and on any mask.

``_mask_renderer`` and ``_entry_renderer`` join per-byte strings of the mask,
so the cases that matter are masks whose set bits sit at slice boundaries
(bits 7 and 8), systems whose root count is or is not a whole number of
bytes, and masks that are not ideals at all (``normalizer``, ``centralizer``
and ``check`` render those).
"""

import inspect
import json
import random

import pytest

from borelideals import ideal_ascii
from borelideals.cli import _entry_renderer
from borelideals.ideals import _enumerate_masks, _ideal_from_mask
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
        assert render(m) == ideal_ascii(_ideal_from_mask(m, rs), unicode_alpha)


@pytest.mark.parametrize("case", CASES)
def test_entry_renderer_reads_back(case):
    rs, masks = case()
    entry = _entry_renderer(rs, 4)
    for i, m in enumerate(masks):
        abelian = i % 2 == 0
        decoded = json.loads(entry(m, abelian))
        assert decoded == {
            "roots": [list(r) for r in _ideal_from_mask(m, rs).roots],
            "dimension": m.bit_count(),
            "abelian": abelian,
        }


def test_mask_joiner_fills_its_rows_lazily():
    # a command that renders one mask of a large system must not build the
    # 256 strings of every byte slice
    pieces = [f"<{g}>" for g in range(820)]
    join = mask_joiner(pieces)
    rows = inspect.getclosurevars(join).nonlocals["rows"]
    assert len(rows) == 103 and not any(rows)
    assert join(1 << 8 | 1 << 819 | 1) == "<0><8><819>"
    assert sum(map(len, rows)) == len(rows)  # one byte value read per slice
    assert join(0) == "" and join((1 << 820) - 1) == "".join(pieces)
