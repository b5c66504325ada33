"""Command-line front end: build a root system, analyse it, emit text/JSON/DOT.

Output is deterministic byte-for-byte for a fixed command line.  Text output
never contains ANSI colour codes, so NO_COLOR needs no special handling.
Exit statuses: 0 success, 2 invalid input or an unwritable ``--out``, 3
capacity exceeded.  Ideals stay bitmasks (see ``roots.RootSystem``) from
enumeration to output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import Collection, Iterable, Mapping

from .errors import CapacityError, InvalidInputError
from .ideals import (
    NOTE_GENERAL_IDEALS,
    _brute_force_masks,
    _classified_masks,
    _enumerate_masks,
    _is_abelian_mask,
    _mask_ascii,
    _sorted_masks,
    is_monomial_ideal,
)
from .lattice import DotOptions, _cover_edges, _dimension_counts, _dot
from .roots import (
    Root,
    RootSystem,
    dynkin_description,
    is_root,
    mask_indices,
    root_ascii,
    root_system,
)
from .subalgebras import (
    is_monomial_subalgebra,
    monomial_centralizer,
    monomial_normalizer,
    monomial_subalgebra,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CAPACITY = 3

_TERM_RE = re.compile(r"(\d*)a(\d+)")


def _split_top_level(literal: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in literal:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise InvalidInputError(f"unbalanced ']' in root set: {literal}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise InvalidInputError(f"unbalanced '[' in root set: {literal}")
    parts.append("".join(current))
    return parts


def _parse_term(term: str, rs: RootSystem) -> Root:
    if not term:
        raise InvalidInputError("empty term in root set")
    if term.startswith("["):
        if not term.endswith("]"):
            raise InvalidInputError(f"malformed vector term: {term}")
        entries = term[1:-1].split(",")
        try:
            vec = tuple(int(e) for e in entries)
        except ValueError:
            raise InvalidInputError(f"malformed vector term: {term}") from None
        if len(vec) != rs.rank:
            raise InvalidInputError(
                f"vector term {term} has length {len(vec)}, expected {rs.rank}"
            )
    else:
        coeffs = [0] * rs.rank
        for part in term.split("+"):
            m = _TERM_RE.fullmatch(part)
            if m is None:
                raise InvalidInputError(f"malformed term: {term}")
            index = int(m.group(2))
            if not 1 <= index <= rs.rank:
                raise InvalidInputError(
                    f"simple-root index out of range in term: {term}"
                )
            coeffs[index - 1] += int(m.group(1)) if m.group(1) else 1
        vec = tuple(coeffs)
    if not is_root(vec, rs):
        raise InvalidInputError(
            f"not a positive root of {rs.family}{rs.rank}: {term}"
        )
    return vec


def parse_root_set(literal: str, rs: RootSystem) -> frozenset[Root]:
    """Parse "a2, a1+2a2" or "[0,1], [1,2]" into a set of positive roots.

    Whitespace is ignored; every term must name a positive root of ``rs``.
    """
    compact = "".join(literal.split())
    if not compact:
        raise InvalidInputError("empty root set")
    return frozenset(_parse_term(term, rs) for term in _split_top_level(compact))


def _vectors(roots: Iterable[Root]) -> list[list[int]]:
    return [list(r) for r in roots]


def _mask_vectors(mask: int, rs: RootSystem) -> list[list[int]]:
    return _vectors(rs.positive_roots[g] for g in mask_indices(mask))


def _counts_payload(masks: Collection[int], abelian: Mapping[int, bool]) -> dict:
    """Counts of distinct nonzero ideal masks, given the abelian flag of each."""
    counts = _dimension_counts(masks, sum(abelian[m] for m in masks))
    return {
        "by_dimension": {str(d): c for d, c in counts.by_dimension.items()},
        "nonzero_total": counts.nonzero_total,
        "with_zero_total": counts.with_zero_total,
        "abelian_total": counts.abelian_total,
    }


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cartan_combo_ascii(vec: Iterable[int], unicode_alpha: bool = False) -> str:
    sym = "α" if unicode_alpha else "a"
    out = ""
    for i, c in enumerate(vec):
        if c == 0:
            continue
        term = f"H[{sym}{i + 1}]" if abs(c) == 1 else f"{abs(c)}H[{sym}{i + 1}]"
        if not out:
            out = ("-" if c < 0 else "") + term
        else:
            out += ("-" if c < 0 else "+") + term
    return out or "0"


def _cmd_roots(args, rs: RootSystem) -> str:
    if args.format == "json":
        return _json_text(
            {
                "family": rs.family,
                "rank": rs.rank,
                "dynkin_diagram": dynkin_description(rs),
                "cartan_matrix": [list(row) for row in rs.cartan],
                "simple_roots": _vectors(rs.simple_roots),
                "positive_roots": _vectors(rs.positive_roots),
                "highest_root": list(rs.highest_root),
                "counts": {"positive_roots": len(rs.positive_roots)},
            }
        )
    u = args.unicode
    lines = [
        dynkin_description(rs, u),
        f"positive roots ({len(rs.positive_roots)}): {', '.join(rs.labels(u))}",
        f"highest root: {root_ascii(rs.highest_root, u)}",
    ]
    return "\n".join(lines) + "\n"


def _ideal_entry(mask: int, abelian: bool, rs: RootSystem) -> dict:
    return {
        "roots": _mask_vectors(mask, rs),
        "dimension": mask.bit_count(),
        "abelian": abelian,
    }


def _cmd_ideals(args, rs: RootSystem) -> str:
    found = _brute_force_masks(rs) if args.oracle else _enumerate_masks(rs)
    ordered = _sorted_masks(found, rs)
    listed = ([0] if args.include_zero else []) + ordered
    if args.format == "json":
        abelian = {m: _is_abelian_mask(m, rs) for m in listed}
        return _json_text(
            {
                "family": rs.family,
                "rank": rs.rank,
                "positive_roots": _vectors(rs.positive_roots),
                "ideals": [_ideal_entry(m, abelian[m], rs) for m in listed],
                "counts": _counts_payload(ordered, abelian),
            }
        )
    return "\n".join(_mask_ascii(m, rs, args.unicode) for m in listed) + "\n"


def _cmd_abelian(args, rs: RootSystem) -> str:
    found = _enumerate_masks(rs)
    abelian = {m: _is_abelian_mask(m, rs) for m in found}
    listed = [0] + _sorted_masks((m for m in found if abelian[m]), rs)
    if args.format == "json":
        return _json_text(
            {
                "family": rs.family,
                "rank": rs.rank,
                "positive_roots": _vectors(rs.positive_roots),
                "ideals": [_ideal_entry(m, True, rs) for m in listed],
                "counts": _counts_payload(found, abelian),
            }
        )
    return "\n".join(_mask_ascii(m, rs, args.unicode) for m in listed) + "\n"


def _cmd_classify(args, rs: RootSystem) -> str:
    classified = _classified_masks(rs)
    if args.format == "json":
        abelian = {m: _is_abelian_mask(m, rs) for m, _, _ in classified}
        entries = []
        for mask, kernel, mixed in classified:
            entry = _ideal_entry(mask, abelian[mask], rs)
            entry["kernel_dimension"] = kernel.dimension
            entry["kernel_basis"] = [list(v) for v in kernel.vectors]
            entry["mixed"] = mixed
            entries.append(entry)
        return _json_text(
            {
                "family": rs.family,
                "rank": rs.rank,
                "positive_roots": _vectors(rs.positive_roots),
                "note": NOTE_GENERAL_IDEALS,
                "ideals": entries,
                "counts": _counts_payload([m for m, _, _ in classified if m], abelian),
            }
        )
    u = args.unicode
    lines = [f"note: {NOTE_GENERAL_IDEALS}"]
    for mask, kernel, mixed in classified:
        basis = "; ".join(_cartan_combo_ascii(v, u) for v in kernel.vectors) or "-"
        line = f"{_mask_ascii(mask, rs, u)} | kernel dim {kernel.dimension} | kernel basis: {basis}"
        if mixed:
            line += " | mixed"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _cmd_lattice(args, rs: RootSystem) -> str:
    nodes = [0] + _sorted_masks(_enumerate_masks(rs), rs)
    edges = _cover_edges(nodes, rs)
    abelian = [_is_abelian_mask(m, rs) for m in nodes]
    u = args.unicode
    if args.format == "dot":
        return _dot([_mask_ascii(m, rs, u) for m in nodes], abelian, edges, DotOptions())
    if args.format == "json":
        return _json_text(
            {
                "family": rs.family,
                "rank": rs.rank,
                "lattice": {
                    "nodes": [_ideal_entry(m, a, rs) for m, a in zip(nodes, abelian)],
                    "edges": [list(edge) for edge in edges],
                },
            }
        )
    lines = [f"nodes ({len(nodes)}):"]
    lines += [f"{i}: {_mask_ascii(m, rs, u)}" for i, m in enumerate(nodes)]
    lines.append(f"edges ({len(edges)}):")
    lines += [f"{a} -> {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def _cmd_normalizer(args, rs: RootSystem) -> str:
    sub = monomial_subalgebra(parse_root_set(args.set, rs), rs)
    result = monomial_normalizer(sub, rs)
    if args.format == "json":
        return _json_text(
            {
                "family": rs.family,
                "rank": rs.rank,
                "set": _vectors(sub.roots),
                "normalizer": _vectors(result.roots),
            }
        )
    return _mask_ascii(rs.mask_of(result.roots), rs, args.unicode) + "\n"


def _cmd_centralizer(args, rs: RootSystem) -> str:
    sub = monomial_subalgebra(parse_root_set(args.set, rs), rs)
    result = rs.mask_of(monomial_centralizer(sub, rs))
    if args.format == "json":
        return _json_text(
            {
                "family": rs.family,
                "rank": rs.rank,
                "set": _vectors(sub.roots),
                "centralizer": _mask_vectors(result, rs),
            }
        )
    return _mask_ascii(result, rs, args.unicode) + "\n"


def _cmd_check(args, rs: RootSystem) -> str:
    roots = parse_root_set(args.set, rs)
    mask = rs.mask_of(roots)
    checks = {
        "is_monomial_ideal": is_monomial_ideal(roots, rs),
        "is_monomial_subalgebra": is_monomial_subalgebra(roots, rs),
        "is_abelian_set": _is_abelian_mask(mask, rs),
    }
    if args.format == "json":
        return _json_text(
            {
                "family": rs.family,
                "rank": rs.rank,
                "set": _mask_vectors(mask, rs),
                "checks": checks,
            }
        )
    lines = [f"set: {_mask_ascii(mask, rs, args.unicode)}"]
    lines.append(f"monomial ideal: {'yes' if checks['is_monomial_ideal'] else 'no'}")
    lines.append(
        f"monomial subalgebra: {'yes' if checks['is_monomial_subalgebra'] else 'no'}"
    )
    lines.append(f"abelian set: {'yes' if checks['is_abelian_set'] else 'no'}")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "roots": _cmd_roots,
    "ideals": _cmd_ideals,
    "abelian": _cmd_abelian,
    "classify": _cmd_classify,
    "lattice": _cmd_lattice,
    "normalizer": _cmd_normalizer,
    "centralizer": _cmd_centralizer,
    "check": _cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelideals",
        description=(
            "Root systems of simple Lie algebras and the ideals of their Borel "
            "subalgebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, formats=("text", "json"), needs_set=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("family", help="family letter, one of A B C D E F G")
        sp.add_argument("rank", type=int, help="rank of the root system")
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", metavar="PATH", help="write output to a file")
        sp.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="cap on worker count (output is identical for any value)",
        )
        sp.add_argument(
            "--unicode", action="store_true", help="render alpha instead of 'a' in text"
        )
        if needs_set:
            sp.add_argument(
                "--set",
                required=True,
                metavar="ROOTS",
                help="root set literal, e.g. \"a2, a1+2a2\" or \"[0,1]\"",
            )
        return sp

    add("roots", "positive roots, highest root, Dynkin diagram description")
    sp = add("ideals", "nonzero monomial ideals of the nilradical")
    sp.add_argument(
        "--include-zero", action="store_true", help="list the zero ideal as well"
    )
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="enumerate by brute-force subset filtering (capped; exit 3 beyond)",
    )
    add("abelian", "abelian monomial ideals, zero ideal included")
    add("classify", "monomial ideals with their admissible Cartan kernels")
    add("lattice", "inclusion lattice of the ideals", formats=("text", "json", "dot"))
    add("normalizer", "normalizer of a monomial subalgebra in the nilradical", needs_set=True)
    add("centralizer", "root vectors commuting with a monomial subalgebra", needs_set=True)
    add("check", "test a root set for ideal/subalgebra/abelian properties", needs_set=True)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INVALID_INPUT
    try:
        if args.jobs < 1:
            raise InvalidInputError(f"--jobs must be >= 1, got {args.jobs}")
        rs = root_system(args.family, args.rank)
        text = _HANDLERS[args.command](args, rs)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    if not args.out:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        _write_atomic(args.out, text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return EXIT_OK


def _write_atomic(path: str, text: str) -> None:
    """Write to a temporary file beside ``path``, then rename it onto ``path``.

    A run that fails, or is interrupted, leaves an existing target unchanged
    and no truncated file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
