"""Every command pinned at the caps, checked by its sha256 and a closed form in one pass.

    PYTHONPATH=src python tests/caps.py

pytest does not collect this file.  It runs the rows of ``tests/pins.py``
marked ``CAP``, checks them against ``tests/reference.py`` and needs neither
pytest nor hypothesis.  ``run`` spawns a row's command once and reads its
stdout in 1 MiB blocks, hashed as the row's check reads them; no line of a
listing is held.  The pipe is widened from 64 KiB to 1 MiB, so the child
writes ahead of the reads instead of waiting on each one.  A row fails on a
nonzero exit, a wrong sha256, a failed check, a peak RSS over 64 MiB or a run
past its time limit; the exit status is 1 if any did.
"""

import contextlib
import fcntl
import hashlib
import json
import math
import re
import subprocess
import sys
import time
import traceback
from collections import Counter

from pins import CAP, PINS
from reference import (
    assert_reduced_kernel,
    epsilon_cartan,
    epsilon_roots,
    malcev_dimension,
    positive_catalan,
    q_catalan,
    w_narayana,
)

# Runs the command line as ``python -m borelideals.cli`` does, then prints its own peak RSS on
# stderr (VmHWM restarts at the exec, so it holds none of this process's memory).
CHILD = """
import atexit, re, runpy, sys
atexit.register(lambda: sys.stderr.write(re.search("VmHWM.*", open("/proc/self/status").read())[0]))
runpy.run_module("borelideals.cli", run_name="__main__", alter_sys=True)
"""

SETS = {
    # The 231 roots of A90 of height >= 70 form an abelian ideal; written as raw
    # vectors it is about 42 KB, and one argument may hold 128 KiB on Linux.
    "HIGH": ", ".join("[" + ",".join("1" if i <= k < i + h else "0" for k in range(90)) + "]"
                      for h in range(70, 91) for i in range(91 - h)),
    "CLOSED": "a1, a2, a1+a2",  # closed but no ideal: its normalizer and centralizer differ
}
assert len(SETS["HIGH"]) < 1 << 17


# Each check reads the stream in pieces cut just before a separator (a newline,
# or the comma between root labels), so that no match straddles two pieces and
# the 7-8 GB JSON listings are read by one regex per piece.
def pieces(blocks, sep=b"\n"):
    """The stream in pieces, each cut just before a ``sep``; a block's bytes are copied once, into a piece."""
    tail = b""
    for block in blocks:
        cut = block.rfind(sep)
        if cut < 0:
            tail += block
        else:
            yield b"".join((tail, memoryview(block)[:cut]))
            tail = block[cut:]
    yield tail


DIMENSION = re.compile(rb'"dimension": (\d+)')


def dimensions(argv, blocks):
    """Entries per dimension: the JSON ``dimension`` keys, or the roots on each line of text."""
    found = Counter()
    for piece in pieces(blocks):
        if argv[-1] == "json":
            found.update(map(int, DIMENSION.findall(piece)))
        else:
            found.update(line.count(b"X[") for line in piece.split(b"\n") if line)
    return found


def ideals_ok(argv, blocks):
    """Type A: the nonzero ideals per dimension are the coefficients of the q-Catalan C_{rank+1}(q)."""
    return dimensions(argv, blocks) == {d: c for d, c in enumerate(q_catalan(int(argv[2]) + 1)) if d}


def abelian_ok(argv, blocks):
    """2^rank abelian ideals, the zero ideal included, the largest of the Malcev dimension."""
    found = dimensions(argv, blocks)
    return sum(found.values()) == 1 << int(argv[2]) and max(found) == malcev_dimension(argv[1], int(argv[2]))


def narayana_covers(family, rank, below):
    """Nodes per lower-cover count (``below``, one per node) are the W-Narayana numbers; rank·nodes/2 covers."""
    want = {k: w_narayana(family, rank, k) for k in range(rank + 1)}
    return Counter(below) == want and 2 * sum(below) == rank * len(below)


COVER = re.compile(rb"-> n?(\d+)")  # the upper end of a cover, text or DOT


def lattice_ok(argv, blocks):
    """Text or DOT: the covers by ``narayana_covers``; DOT fills 2^rank nodes."""
    family, rank, dot = argv[1], int(argv[2]), argv[-1] == "dot"
    node = b' [label="' if dot else b": "  # once per node line, and nowhere else
    below, filled = bytearray(), 0  # lower covers per node
    for piece in pieces(blocks):
        below += bytes(piece.count(node))
        filled += piece.count(b"style=filled")
        for j in COVER.findall(piece):
            below[int(j)] += 1
    return narayana_covers(family, rank, below) and filled == (1 << rank if dot else 0)


EDGE = re.compile(rb"\[\s*\d+,\s*(\d+)\s*\]")  # a JSON pair, and its second (upper) end


def lattice_json_ok(argv, blocks):
    """JSON: 2^rank nodes flagged abelian, and the ``edges`` pairs by ``narayana_covers``.

    The pieces are cut before each "[", which opens every pair, so no pair
    straddles two.  Pairs are read after the "edges" key alone: at rank 2
    each root is a pair too.
    """
    family, rank = argv[1], int(argv[2])
    below, flagged, nodes = bytearray(), 0, True
    for piece in pieces(blocks, b"["):
        at = 0  # where the piece's edges begin
        if nodes:
            at = piece.find(b'"edges"', piece.rfind(b'"abelian"') + 1)  # no node follows the "edges" key
            nodes = at < 0
            at = len(piece) if nodes else at
            below += bytes(piece.count(b'"abelian": ', 0, at))
            flagged += piece.count(b'"abelian": true', 0, at)
        for j in EDGE.findall(piece, at):
            below[int(j)] += 1
    return narayana_covers(family, rank, below) and flagged == 1 << rank


LABEL = re.compile(rb"(?<=[:,] )(?:[\d+a]|\xce\xb1)+(?![^,\n])")  # a root label, ASCII or --unicode
LABEL_TERM = re.compile(rb"(\d*)(?:a|\xce\xb1)(\d+)")


def roots_ok(argv, blocks):
    """The positive roots and the highest root, read back from their labels, are the epsilon-basis roots."""
    family, rank = argv[1], int(argv[2])
    want = epsilon_roots(family, rank)
    head = b"positive roots (%d): " % len(want)
    got, headed = [], False
    for piece in pieces(blocks, b","):
        headed |= head in piece
        for label in LABEL.findall(piece):
            root = [0] * rank
            for c, i in LABEL_TERM.findall(label):
                root[int(i) - 1] += int(c or 1)
            got.append(tuple(root))
    return headed and got == [*want, want[-1]]


SET_TERM = re.compile(r"\[[^\]]*\]|[^,\s]+")  # a term of a --set literal: a raw vector or a label


def set_query_ok(argv, blocks):
    """Type A ``normalizer``, ``centralizer`` or ``check`` text: the bytes recomputed from intervals.

    A root a_(i+1) + ... + a_j is the interval [i, j) of simple roots, and two
    roots sum to a root only as [a, c) + [c, d) = [a, d).  So each root meets
    its partners in the set through the members that start where it ends or
    end where it starts: O(rank) of them.  The output is one line, or four for
    ``check``, under 1 MB at A90, and is compared whole.
    """
    command, rank = argv[0], int(argv[2])
    spans = [(r.index(1), r.index(1) + sum(r)) for r in epsilon_roots("A", rank)]  # canonical order
    chosen = set()
    for term in SET_TERM.findall(argv[argv.index("--set") + 1]):
        root = [0] * rank
        if term.startswith("["):
            root = [int(c) for c in term[1:-1].split(",")]
        for c, i in re.findall(r"(\d*)a(\d+)", term):
            root[int(i) - 1] += int(c or 1)
        chosen.add((root.index(1), root.index(1) + sum(root)))
    starting, ending = {}, {}  # the members by where they start, and by where they end
    for a, b in chosen:
        starting.setdefault(a, []).append(b)
        ending.setdefault(b, []).append(a)

    def sums(a, b):  # the roots [a, b) + s for the members s that sum with it to a root
        return [(a, d) for d in starting.get(b, ())] + [(c, b) for c in ending.get(a, ())]

    def text(kept):
        labels = ", ".join("X[" + "+".join(f"a{k + 1}" for k in range(a, b)) + "]" for a, b in kept)
        return f"[{labels}]" if kept else "0"

    if command == "check":
        yes = {True: "yes", False: "no"}
        grown = [(a - 1, b) for a, b in chosen if a] + [(a, b + 1) for a, b in chosen if b < rank]  # + a simple root
        ideal = all(t in chosen for t in grown)
        closed = all(t in chosen for s in chosen for t in sums(*s))
        abelian = not any(sums(*s) for s in chosen)
        want = (f"set: {text([s for s in spans if s in chosen])}\nmonomial ideal: {yes[ideal]}\n"
                f"monomial subalgebra: {yes[closed]}\nabelian set: {yes[abelian]}\n")
    elif command == "normalizer":
        want = text([s for s in spans if all(t in chosen for t in sums(*s))]) + "\n"
    else:
        want = text([s for s in spans if not sums(*s)]) + "\n"
    return b"".join(blocks) == want.encode()


HELD = re.compile(rb"\[(X\[a\d+\](?:, X\[a\d+\])*)[,\]]")  # a classify line's leading simple roots
SUFFIX = re.compile(r"kernel dim (\d+) \| kernel basis: (-|(?:[+-]?\d*H\[a\d+\]|; )+)( \| mixed)?")
TERM = re.compile(r"([+-]?)(\d*)H\[a(\d+)\]")
UNIT = rb"\[(?:\s*0,)*\s*1(?:,\s*0)*\s*\]"  # a JSON vector of zeros and one 1: a simple root
LEADING = re.compile(rb'"roots": \[((?:\s*%s,?)*)' % UNIT)  # a classify JSON entry's leading simple roots
KERNEL = re.compile(rb'"kernel_dimension": (\d+),\s*"kernel_basis": ([^"]*),\s*"mixed": (true|false)')


def json_entries(piece):
    """The (leading simple roots, *kernel members) of each classify JSON entry in ``piece``.

    The rest of an entry's roots are passed over by ``find``, not by a regex.
    An entry whose kernel members do not parse is left out, and the next
    ``"roots"`` is sought after them, so an entry that lacks them takes the
    next one's and that one is left out.
    """
    at = piece.find(b'"roots"')
    while at >= 0:
        leading = LEADING.match(piece, at)
        found = piece.find(b'"kernel_dimension"', leading.end())
        kernel = KERNEL.match(piece, found) if found >= 0 else None
        if kernel:
            yield (leading[1], *kernel.groups())
        at = piece.find(b'"roots"', kernel.end() if kernel else leading.end())


def text_kernel(suffix, rank):
    """The (dimension, basis, mixed) a ``classify`` text suffix states, or None if it is malformed."""
    m = SUFFIX.fullmatch(suffix.decode())
    if not m:
        return None
    basis = []
    for combo in [] if m[2] == "-" else m[2].split("; "):
        vec = [0] * rank
        for sign, c, i in TERM.findall(combo):
            vec[int(i) - 1] += int(sign + (c or "1"))
        basis.append(vec)
    return int(m[1]), basis, m[3] is not None


def json_kernel(dimension, basis, mixed):
    """The (dimension, basis, mixed) a ``classify`` JSON entry's kernel members state."""
    return int(dimension), json.loads(basis), mixed == b"true"


def kernel_dim(cartan, missing, stated):
    """The dimension ``stated`` gives, or None unless it states the kernel of the rows in ``missing``.

    ``stated`` is the (dimension, basis, mixed) a suffix states, or None for a malformed suffix.
    """
    rank = len(cartan)
    if stated is None:
        return None
    dimension, basis, mixed = stated
    if not dimension == len(basis) == rank - len(missing) or any(len(vec) != rank for vec in basis):
        return None
    if mixed != (bool(basis) and bool(missing)):  # "mixed" marks exactly these
        return None
    try:
        assert_reduced_kernel([cartan[i] for i in sorted(missing)], rank, basis)
    except (AssertionError, StopIteration):  # StopIteration: a zero vector has no pivot
        return None
    return len(basis)


def kernels_ok(argv, blocks):
    """A ``classify`` listing: its note, one kernel per missing set M, Cat+(M) ideals per kernel dimension.

    M is the simple roots an entry does not lead with: the labels that open a text line, or the
    unit vectors that open a JSON entry's roots.  JSON is read in pieces cut before each "{", so
    that no entry straddles two.  Only the distinct (M, suffix) pairs are kept.  Each kernel is
    checked once, against the Cartan rows in M: type A alone cannot tell rows from columns.
    """
    rank, text = int(argv[2]), argv[-1] != "json"
    cartan = epsilon_cartan(argv[1], rank)
    want = Counter()
    for missing in range(1 << rank):
        want[rank - missing.bit_count()] += positive_catalan(cartan, missing)
    spelled, first = Counter(), None  # (leading simple roots, *suffix) as the stream spells them
    for piece in pieces(blocks, b"\n" if text else b"{"):
        first = first or piece
        if text:
            for line in piece.split(b"\n"):
                roots, _, suffix = line.partition(b" | ")
                if suffix:
                    held = HELD.match(roots)
                    spelled[held[1] if held else b"", suffix] += 1
        else:
            spelled.update(json_entries(piece))
    pairs = Counter()  # (M, suffix)
    for (simple, *suffix), n in spelled.items():
        if text:
            leading = {int(i) - 1 for i in re.findall(rb"\d+", simple)}
        else:  # the zeros before a unit vector's 1 give its index
            leading = {vec.count(b"0", 0, vec.index(b"1")) for vec in re.findall(UNIT, simple)}
        pairs[frozenset(range(rank)) - leading, tuple(suffix)] += n
    got = Counter()
    for (missing, suffix), n in pairs.items():
        got[kernel_dim(cartan, missing, text_kernel(*suffix, rank) if text else json_kernel(*suffix))] += n
    sets = {missing for missing, _ in pairs}  # one suffix per missing set
    note = first.startswith(b"note: ") if text else b'\n  "note": "' in first
    return note and got == want and len(pairs) == len(sets) == 1 << rank


CHECKS = {  # cap row: the independent check of its output
    "roots A 90": roots_ok,
    "roots A 90 --unicode": roots_ok,
    "roots B 64": roots_ok,
    "roots C 64": roots_ok,
    "roots D 64": roots_ok,
    "check A 90 --set HIGH": set_query_ok,
    "normalizer A 90 --set HIGH": set_query_ok,
    "centralizer A 90 --set HIGH": set_query_ok,
    "check A 90 --set CLOSED": set_query_ok,
    "normalizer A 90 --set CLOSED": set_query_ok,
    "centralizer A 90 --set CLOSED": set_query_ok,
    "abelian A 12": abelian_ok,
    "abelian A 12 --format json": abelian_ok,
    "abelian B 11": abelian_ok,
    "abelian C 11": abelian_ok,
    "abelian D 11": abelian_ok,
    "ideals A 12": ideals_ok,
    "ideals A 12 --format json": ideals_ok,
    "lattice A 11 --format dot": lattice_ok,
    "lattice C 11 --format dot": lattice_ok,
    "lattice A 12 --format dot": lattice_ok,
    "lattice A 12": lattice_ok,
    "lattice A 12 --format json": lattice_json_ok,
    "classify A 12 --format json": kernels_ok,
    "classify A 12": kernels_ok,
    "classify B 11": kernels_ok,
    "classify C 11": kernels_ok,
    "classify D 11": kernels_ok,
}
LIMITS = {"roots A 90": 20}  # cap row: its time limit in seconds, where it has one


def run(command, sha256, check=None, limit=math.inf):
    """Run one row, print its line and return whether it held."""
    argv = [SETS.get(word, word) for word in command.split()]
    start = time.monotonic()
    # leaving the block closes both pipes and waits for the child
    with subprocess.Popen(
        [sys.executable, "-c", CHILD, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        with contextlib.suppress(OSError):  # a system may cap pipes below 1 MiB
            fcntl.fcntl(child.stdout, fcntl.F_SETPIPE_SZ, 1 << 20)
        digest = hashlib.sha256()
        stream = (digest.update(block) or block for block in iter(lambda: child.stdout.read(1 << 20), b""))
        try:
            checked = check is None or check(argv, stream)
        except Exception:  # a stream malformed past what the check parses
            traceback.print_exc()
            checked = False
        for _ in stream:  # what the check left unread
            pass
        err = child.stderr.read()
    code, seconds = child.returncode, time.monotonic() - start
    peak = re.search(rb"VmHWM:\s*(\d+)", err)  # none if the child was killed
    peak = int(peak[1]) / 1024 if peak else math.nan
    faults = [fault for fault, bad in (
        (f"exit {code}", code), ("sha256", digest.hexdigest() != sha256), ("check", not checked),
        ("over 64 MiB", peak > 64), (f"over {limit} s", seconds > limit)) if bad]
    verdict = ", ".join(faults) or "ok"
    print(f"{command}: {seconds:.1f} s, {peak:.1f} MiB, sha256 {digest.hexdigest()}, {verdict}", flush=True)
    if code:
        print(err.decode(errors="replace"), end="", flush=True)
    return not faults


if __name__ == "__main__":
    caps = [command for command, pin in PINS.items() if CAP in pin]
    sys.exit(not all([run(command, PINS[command][1], CHECKS.get(command), LIMITS.get(command, math.inf))
                      for command in caps]))
