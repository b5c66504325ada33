"""Command-line front end: build a root system, analyse it, emit text/JSON/DOT.

Output is deterministic byte-for-byte for a fixed command line.  Text output
never contains ANSI colour codes, so NO_COLOR needs no special handling.
Exit statuses: 0 success, 2 invalid input or an unwritable ``--out``, 3
capacity exceeded.  Ideals stay bitmasks (see ``roots.RootSystem``) from
enumeration to output.

Each subcommand's parser carries its handler (``build_parser``), a generator
of text chunks, written as they come.  A handler makes every check before its
first chunk, so an error never follows output.  Ideal listings arrive one
dimension layer at a time, but each chunk is one line, one JSON entry, one DOT
node or one cover.  A chunk that lists roots is one join, its separator, head
and tail included, of strings made once per command and byte value of the mask
(``roots.mask_joiner``): a JSON entry leads with its own comma, and a DOT node
line is joined around its label.  ``_write_chunks`` alone batches them into writes.
Stdout is UTF-8, as ``--out`` is.
Every JSON document starts from ``_json_document``, its ``family`` and ``rank`` head.

Only ``errors`` and ``roots`` load with this module.  Each handler imports the
rest of what it runs on its first line, so ``roots`` loads nothing more and
only ``lattice`` loads ``lattice``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, starmap
from typing import TYPE_CHECKING

from .errors import CapacityError, InvalidInputError
from .roots import (
    Root,
    RootSystem,
    _Lazy,
    _mask_renderer,
    dynkin_description,
    is_root,
    mask_joiner,
    positive_root_count,
    root_ascii,
    root_system,
)

if TYPE_CHECKING:
    from .ideals import _Counts

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CAPACITY = 3

# Largest requests taken on, predicted in closed form before any work starts;
# a larger one exits 3.
MAX_IDEALS = 1 << 20  # A12 (742899 nonzero ideals) passes, A13 (2674439) does not
MAX_POSITIVE_ROOTS = 4096  # A90 (4095 positive roots) passes, A91 does not
_LISTINGS = frozenset({"ideals", "abelian", "classify", "lattice"})

# A literal is terms joined by commas, whitespace aside.  A term runs to the
# next comma outside brackets; it is a vector of integers, "[1,-2]", or a sum
# of summands "2a3" (coefficient 1 elided), all in ASCII digits.
_TERMS = re.compile(r"\[[^\[\]]*\][^,]*|[^,]+")
_TERM = re.compile(r"\[(-?[0-9]+(?:,-?[0-9]+)*)\]|(?:[0-9]*a[0-9]+\+)*[0-9]*a[0-9]+")
_SUMMAND = re.compile(r"([0-9]*)a([0-9]+)")


def _parse_term(term: str, rs: RootSystem) -> Root:
    m = _TERM.fullmatch(term)
    if m is None:
        raise InvalidInputError(f"malformed term: {term}")
    vector = m[1]
    try:
        if vector is not None:
            vec = tuple(map(int, vector.split(",")))
        else:
            summands = [(int(c or 1), int(i)) for c, i in _SUMMAND.findall(term)]
    except ValueError:  # more digits than int() converts; no coefficient or index has them
        raise InvalidInputError(f"malformed term: {term}") from None
    if vector is not None:
        if len(vec) != rs.rank:
            raise InvalidInputError(
                f"vector term {term} has length {len(vec)}, expected {rs.rank}"
            )
    else:
        coeffs = [0] * rs.rank
        for c, i in summands:
            if not 1 <= i <= rs.rank:
                raise InvalidInputError(f"simple-root index out of range in term: {term}")
            coeffs[i - 1] += c
        vec = tuple(coeffs)
    if not is_root(vec, rs):
        raise InvalidInputError(
            f"not a positive root of {rs.family}{rs.rank}: {term}"
        )
    return vec


def parse_root_set(literal: str, rs: RootSystem) -> frozenset[Root]:
    """Parse "a2, a1+2a2" or "[0,1], [1,2]" into a set of positive roots.

    Whitespace is ignored; every term must name a positive root of ``rs``.
    The work is linear in the length of the literal.
    """
    compact = "".join(literal.split())
    if not compact:
        raise InvalidInputError("empty root set")
    terms = _TERMS.findall(compact)
    if ",".join(terms) != compact:  # every term ends at a comma, so only an empty one is skipped
        raise InvalidInputError("empty term in root set")
    return frozenset(_parse_term(term, rs) for term in terms)


def _vectors(roots: Iterable[Root]) -> list[list[int]]:
    return [list(r) for r in roots]


def _json_document(rs: RootSystem, **members) -> str:
    """JSON text of a document: its ``family`` and ``rank``, then ``members`` in order."""
    return json.dumps({"family": rs.family, "rank": rs.rank, **members}, indent=2) + "\n"


def _json_block(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads nested ``depth`` spaces deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + " " * depth)


def _json_list(items: Iterable[str], depth: int) -> Iterator[str]:
    """A list nested ``depth`` deep of items rendered ``depth + 2`` deep, each led by ","; no listing is empty."""
    items = iter(items)
    yield "[" + next(items)[1:]
    yield from items
    yield "\n" + " " * depth + "]"


def _entry_renderer(rs: RootSystem, depth: int) -> Callable[..., str]:
    """An ``_json_list`` item: ",", a new line and an ideal's entry nested ``depth`` deep, in one join.

    The entry holds the ideal's roots, its dimension, its abelian flag and
    then ``rest``: further members, each led by a comma and a new line.
    """
    pad = "\n" + " " * depth
    blocks = [f"{pad}    {_json_block(list(r), depth + 4)}" for r in rs.positive_roots]
    join = mask_joiner(blocks, ",", "[", f"{pad}  ]", "[]")
    head = f',{pad}{{{pad}  "roots": '
    dimensions = [f',{pad}  "dimension": {d}' for d in range(len(blocks) + 1)]
    flags = {a: f',{pad}  "abelian": {json.dumps(a)}' for a in (False, True)}
    close = pad + "}"

    def entry(mask: int, abelian: bool, rest: str = "") -> str:
        return join(mask, head, dimensions[mask.bit_count()], flags[abelian], rest, close)

    return entry


def _listing_document(rs: RootSystem, entries: Iterable[str], counts: _Counts, **members: str) -> Iterator[str]:
    """JSON of an ideal listing: the head and ``members``, the streamed ``ideals``, their ``counts``."""
    head = _json_document(rs, positive_roots=_vectors(rs.positive_roots), **members)
    yield head.removesuffix("\n}\n") + ',\n  "ideals": '
    yield from _json_list(entries, 2)
    # the entries have streamed past, so the counts are complete
    yield f',\n  "counts": {_json_block(counts.result()._asdict(), 2)}\n}}\n'


def _text_lines(layers: Iterable[Iterable[int]], render: Callable[..., str]) -> Iterator[str]:
    return (render(m, "", "\n") for layer in layers for m in layer)


def _cartan_combo_ascii(vec: Iterable[int], unicode_alpha: bool = False) -> str:
    sym = "α" if unicode_alpha else "a"
    out = "".join(
        f"{'-' if c < 0 else '+'}{abs(c) if abs(c) != 1 else ''}H[{sym}{i + 1}]" for i, c in enumerate(vec) if c
    )
    return out.removeprefix("+") or "0"


def _cmd_roots(args, rs: RootSystem) -> Iterator[str]:
    if args.format == "json":
        yield _json_document(
            rs,
            dynkin_diagram=dynkin_description(rs),
            cartan_matrix=_vectors(rs.cartan),
            simple_roots=_vectors(rs.simple_roots),
            positive_roots=_vectors(rs.positive_roots),
            highest_root=list(rs.highest_root),
            counts={"positive_roots": len(rs.positive_roots)},
        )
        return
    u = args.unicode
    yield f"{dynkin_description(rs, u)}\n"
    yield f"positive roots ({len(rs.positive_roots)}): {', '.join(rs.labels(u))}\n"
    yield f"highest root: {root_ascii(rs.highest_root, u)}\n"


def _cmd_ideals(args, rs: RootSystem) -> Iterator[str]:
    from .ideals import _brute_force_masks, _Counts, _enumerate_masks

    layers = iter(_brute_force_masks(rs)) if args.oracle else _enumerate_masks(rs)
    if not args.include_zero:
        next(layers)  # the zero ideal
    if args.format == "json":
        counts = _Counts(rs)
        yield from _listing_document(rs, starmap(_entry_renderer(rs, 4), counts.walk(layers)), counts)
    else:
        yield from _text_lines(layers, _mask_renderer(rs, args.unicode))


def _cmd_abelian(args, rs: RootSystem) -> Iterator[str]:
    from .ideals import _Counts, _enumerate_masks

    if args.format == "json":
        # walks every layer: the counts cover all ideals
        counts = _Counts(rs)
        entry = _entry_renderer(rs, 4)
        entries = (entry(m, True) for m, a in counts.walk(_enumerate_masks(rs)) if a)
        yield from _listing_document(rs, entries, counts)
    else:
        yield from _text_lines(_enumerate_masks(rs, abelian=True), _mask_renderer(rs, args.unicode))


def _cmd_classify(args, rs: RootSystem) -> Iterator[str]:
    from .ideals import NOTE_GENERAL_IDEALS, _classification, _Counts, _enumerate_masks

    simple = (1 << rs.rank) - 1  # an ideal's suffix depends on the simple roots it misses
    layers = _enumerate_masks(rs)
    u = args.unicode

    @_Lazy
    def suffix(missing: int) -> str:
        kernel, mixed = _classification(missing, rs)
        del rs._kernels[missing]  # the text holds the kernel from here on
        if args.format == "json":
            basis = _json_block([list(v) for v in kernel.vectors], 6)
            return (
                f',\n      "kernel_dimension": {kernel.dimension}'
                f',\n      "kernel_basis": {basis},\n      "mixed": {json.dumps(mixed)}'
            )
        basis = "; ".join(_cartan_combo_ascii(v, u) for v in kernel.vectors) or "-"
        mark = " | mixed" if mixed else ""
        return f" | kernel dim {kernel.dimension} | kernel basis: {basis}{mark}\n"

    if args.format == "json":
        counts = _Counts(rs)
        entry = _entry_renderer(rs, 4)
        entries = (entry(m, a, suffix[~m & simple]) for m, a in counts.walk(layers))
        yield from _listing_document(rs, entries, counts, note=NOTE_GENERAL_IDEALS)
        return
    render = _mask_renderer(rs, u)
    yield f"note: {NOTE_GENERAL_IDEALS}\n"
    for m in chain.from_iterable(layers):
        yield render(m, "", suffix[~m & simple])


def _cmd_lattice(args, rs: RootSystem) -> Iterator[str]:
    from .ideals import _Counts, _enumerate_masks, nonzero_ideal_count
    from .lattice import DotOptions, _cover_edges, _dot_chunks

    layers = _enumerate_masks(rs)  # the nodes; the covers, its steps, come from a second search
    render = _mask_renderer(rs, args.unicode)
    if args.format == "dot":
        yield from _dot_chunks(_Counts(rs).walk(layers), _cover_edges(rs), DotOptions(), render)
    elif args.format == "json":
        pad = "\n" + " " * 6
        edges = (f",{pad}[{pad}  {a},{pad}  {b}{pad}]" for a, b in _cover_edges(rs))
        yield _json_document(rs).removesuffix("\n}\n") + ',\n  "lattice": {\n    "nodes": '
        yield from _json_list(starmap(_entry_renderer(rs, 6), _Counts(rs).walk(layers)), 4)
        yield ',\n    "edges": '
        yield from _json_list(edges, 4)
        yield "\n  }\n}\n"
    else:
        count = nonzero_ideal_count(rs.family, rs.rank) + 1
        yield f"nodes ({count}):\n"
        for i, m in enumerate(chain.from_iterable(layers)):
            yield render(m, f"{i}: ", "\n")
        # An ideal covers one ideal per minimal root.  Antichains of the root
        # poset counted by size are symmetric under k <-> rank - k
        # (Athanasiadis), so the covers number rank * nodes / 2.
        yield f"edges ({rs.rank * count // 2}):\n"
        for a, b in _cover_edges(rs):
            yield f"{a} -> {b}\n"


def _cmd_set_query(args, rs: RootSystem) -> Iterator[str]:
    """``normalizer`` or ``centralizer``: the roots outside the ``leaving`` or ``touched`` mask of ``_closed``."""
    from .subalgebras import _closed

    mask = rs.mask_of(parse_root_set(args.set, rs))
    result = rs.full_mask & ~_closed(mask, rs)[args.command == "centralizer"]
    if args.format == "json":
        yield _json_document(rs, set=_vectors(rs.roots_of(mask)), **{args.command: _vectors(rs.roots_of(result))})
    else:
        yield _mask_renderer(rs, args.unicode)(result, "", "\n")


def _cmd_check(args, rs: RootSystem) -> Iterator[str]:
    from .subalgebras import _walk

    mask = rs.mask_of(parse_root_set(args.set, rs))
    leaving, touched = _walk(mask, rs)
    checks = {
        "is_monomial_ideal": leaving & ((1 << rs.rank) - 1) == 0,  # no simple root leaves the set
        "is_monomial_subalgebra": leaving & mask == 0,
        "is_abelian_set": touched & mask == 0,
    }
    if args.format == "json":
        yield _json_document(rs, set=_vectors(rs.roots_of(mask)), checks=checks)
        return
    yield _mask_renderer(rs, args.unicode)(mask, "set: ", "\n")
    yield f"monomial ideal: {'yes' if checks['is_monomial_ideal'] else 'no'}\n"
    yield f"monomial subalgebra: {'yes' if checks['is_monomial_subalgebra'] else 'no'}\n"
    yield f"abelian set: {'yes' if checks['is_abelian_set'] else 'no'}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borelideals",
        description=(
            "Root systems of simple Lie algebras and the ideals of their Borel "
            "subalgebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, formats=("text", "json"), needs_set=False):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("family", help="family letter, one of A B C D E F G")
        sp.add_argument("rank", type=int, help="rank of the root system")
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", metavar="PATH", help="write output to a file")
        sp.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="accepted and ignored; the computation is single-threaded",
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

    add("roots", _cmd_roots, "positive roots, highest root, Dynkin diagram description")
    sp = add("ideals", _cmd_ideals, "nonzero monomial ideals of the nilradical")
    sp.add_argument(
        "--include-zero", action="store_true", help="list the zero ideal as well"
    )
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="enumerate by brute-force subset filtering (capped; exit 3 beyond)",
    )
    add("abelian", _cmd_abelian, "abelian monomial ideals, zero ideal included")
    add("classify", _cmd_classify, "monomial ideals with their admissible Cartan kernels")
    add("lattice", _cmd_lattice, "inclusion lattice of the ideals", formats=("text", "json", "dot"))
    add("normalizer", _cmd_set_query, "normalizer of a monomial subalgebra in the nilradical", needs_set=True)
    add("centralizer", _cmd_set_query, "root vectors commuting with a monomial subalgebra", needs_set=True)
    add("check", _cmd_check, "test a root set for ideal/subalgebra/abelian properties", needs_set=True)
    return parser


def _check_capacity(command: str, family: str, rank: int) -> None:
    """Refuse a request whose predicted size exceeds the caps, before any work."""
    roots = positive_root_count(family, rank)  # validates family and rank
    if roots > MAX_POSITIVE_ROOTS:
        raise CapacityError(
            f"{family}{rank} has {roots} positive roots; the cap is {MAX_POSITIVE_ROOTS}"
        )
    if command in _LISTINGS:
        from .ideals import nonzero_ideal_count

        ideals = nonzero_ideal_count(family, rank)
        if ideals > MAX_IDEALS:
            raise CapacityError(
                f"{family}{rank} has {ideals} nonzero ideals; {command} is capped at {MAX_IDEALS}"
            )


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
        _check_capacity(args.command, args.family, args.rank)
        rs = root_system(args.family, args.rank)
        chunks = args.handler(args, rs)
        if args.out is None:
            out = sys.stdout
            try:
                _write_chunks(out, chunks)
                out.flush()
            except OSError as exc:
                # Point stdout at devnull, so that the flush at exit does not
                # fail again.  A reader that stopped early (``| head``) is no error.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, out.fileno())
                os.close(devnull)
                if not isinstance(exc, BrokenPipeError):
                    print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
                    return EXIT_INVALID_INPUT
            return EXIT_OK
        try:
            _write_atomic(args.out, chunks)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    return EXIT_OK


# Chunks leave in pieces of at least this many characters, so a small output
# reaches its reader in one write and a large one in few (64 KiB is the
# default capacity of a pipe).
_WRITE_SIZE = 1 << 16


def _write_chunks(out, chunks: Iterable[str]) -> None:
    """Write the chunks to ``out`` in whole multiples of ``_WRITE_SIZE``, then the rest.

    This is the only batching of output: the handlers yield one line, JSON
    entry, DOT node or cover per chunk, so the text held at once is one piece.
    The chunk that crosses a multiple of ``_WRITE_SIZE`` is split there, so on
    ASCII output each write fills a 64 KiB pipe and a reader takes it in one read.
    """
    pending: list[str] = []
    held = 0
    for chunk in chunks:
        pending.append(chunk)
        held += len(chunk)
        if held >= _WRITE_SIZE:
            held %= _WRITE_SIZE
            cut = len(chunk) - held
            pending[-1] = chunk[:cut]
            out.write("".join(pending))
            pending[:] = [chunk[cut:]]
    out.write("".join(pending))


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to a temporary file beside ``path``, then rename it onto ``path``.

    A run that fails, or is interrupted, leaves an existing target unchanged
    and no truncated file behind.  A symlink is followed, so the temporary
    file and the rename go to its target and the link stays.  An existing
    target that is not a regular file (a FIFO, a device) is written in place,
    as a rename would replace it.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            _write_chunks(handle, chunks)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            _write_chunks(handle, chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def main() -> None:
    sys.stdout.reconfigure(encoding="utf-8")  # the bytes of --unicode must not follow the locale
    sys.exit(run())


if __name__ == "__main__":
    main()
