"""Every command CI pins at the caps, checked by its sha256 and a closed form in one pass.

    PYTHONPATH=src python tests/caps.py

pytest does not collect this file.  ``run`` spawns a row's command once and
reads its stdout in 1 MiB blocks, hashed as the row's check reads them; no line
is held.  The pipe is widened from 64 KiB to 1 MiB, so the child writes ahead
of the reads instead of waiting on each one.  A row fails on a nonzero exit, a
wrong sha256, a failed check, a peak RSS over 64 MiB or a run past its time
limit; the exit status is 1 if any did.
"""

import contextlib
import fcntl
import hashlib
import math
import re
import subprocess
import sys
import time
import traceback
from collections import Counter

from borelideals.roots import cartan_matrix, root_sort_key
from test_closed_forms import malcev_dimension, positive_catalan, q_catalan, w_narayana
from test_linalg import assert_reduced_kernel
from test_roots import _epsilon_roots

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


COVER = re.compile(rb"-> n?(\d+)")  # the upper end of a cover, text or DOT


def lattice_ok(argv, blocks):
    """Nodes per lower-cover count are the W-Narayana numbers; rank·nodes/2 covers; DOT fills 2^rank nodes."""
    family, rank, dot = argv[1], int(argv[2]), argv[-1] == "dot"
    node = b' [label="' if dot else b": "  # once per node line, and nowhere else
    below, filled = bytearray(), 0  # lower covers per node
    for piece in pieces(blocks):
        below += bytes(piece.count(node))
        filled += piece.count(b"style=filled")
        for j in COVER.findall(piece):
            below[int(j)] += 1
    want = {k: w_narayana(family, rank, k) for k in range(rank + 1)}
    return Counter(below) == want and 2 * sum(below) == rank * len(below) and filled == (1 << rank if dot else 0)


LABEL = re.compile(rb"(?<=[:,] )(?:[\d+a]|\xce\xb1)+(?![^,\n])")  # a root label, ASCII or --unicode
LABEL_TERM = re.compile(rb"(\d*)(?:a|\xce\xb1)(\d+)")


def roots_ok(argv, blocks):
    """The positive roots and the highest root, read back from their labels, are the epsilon-basis roots."""
    family, rank = argv[1], int(argv[2])
    want = sorted(_epsilon_roots(family, rank), key=root_sort_key)
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


HELD = re.compile(rb"\[(X\[a\d+\](?:, X\[a\d+\])*)[,\]]")  # a classify line's leading simple roots
SUFFIX = re.compile(r"kernel dim (\d+) \| kernel basis: (-|(?:[+-]?\d*H\[a\d+\]|; )+)( \| mixed)?")
TERM = re.compile(r"([+-]?)(\d*)H\[a(\d+)\]")


def kernel_dim(cartan, missing, suffix):
    """The dimension a ``classify`` suffix states, or None unless it states the kernel of the rows in ``missing``."""
    rank = len(cartan)
    m = SUFFIX.fullmatch(suffix)
    if not m:
        return None
    basis = []
    for combo in [] if m[2] == "-" else m[2].split("; "):
        vec = [0] * rank
        for sign, c, i in TERM.findall(combo):
            vec[int(i) - 1] += int(sign + (c or "1"))
        basis.append(vec)
    mixed = bool(basis) and bool(missing)  # "| mixed" marks exactly these
    if not int(m[1]) == len(basis) == rank - len(missing) or (m[3] is not None) != mixed:
        return None
    try:
        assert_reduced_kernel([cartan[i] for i in sorted(missing)], rank, basis)
    except (AssertionError, StopIteration):  # StopIteration: a zero vector has no pivot
        return None
    return len(basis)


def kernels_ok(argv, blocks):
    """A ``classify`` text listing: its note, one kernel per missing set M, Cat+(M) ideals per kernel dimension.

    Only the distinct (M, suffix) pairs are kept.  Each kernel is checked once, against the Cartan
    rows in M: type A alone cannot tell rows from columns.
    """
    rank = int(argv[2])
    cartan = cartan_matrix(argv[1], rank)
    want = Counter()
    for missing in range(1 << rank):
        want[rank - missing.bit_count()] += positive_catalan(cartan, missing)
    pairs, first = Counter(), None
    for piece in pieces(blocks):
        first = first or piece
        for line in piece.split(b"\n"):
            roots, _, suffix = line.partition(b" | ")
            if suffix:
                held = HELD.match(roots)
                pairs[held[1] if held else b"", suffix] += 1
    got = Counter()
    for (simple, suffix), n in pairs.items():
        missing = set(range(rank)) - {int(i) - 1 for i in re.findall(rb"\d+", simple)}
        got[kernel_dim(cartan, missing, suffix.decode())] += n
    sets = {simple for simple, _ in pairs}  # one suffix per missing set
    return first.startswith(b"note: ") and got == want and len(pairs) == len(sets) == 1 << rank


ROWS = (  # command, sha256 of its stdout, closed-form check, time limit in seconds
    ("check A 90 --set HIGH", "ed66b860bddb63c0c1de6d4c752dc7edc51deb6ea5bfd09ddd98654275beb558"),
    ("normalizer A 90 --set HIGH", "67ed377a4798e4e7034556428b7d7bf9a75bfde90d7aa969b60af532e700a465"),
    ("centralizer A 90 --set HIGH", "592060011bf265933734765a30ef8928ec7ac6cc0a31cb079de5b1a562dd89e6"),
    ("check A 90 --set CLOSED", "123c263dc959d1719f72ee4fad3df636d8fe8e6a85b1cbdc3cb8b24aab3929ed"),
    ("normalizer A 90 --set CLOSED", "44d998782c268a85e747fcb5e7942e1ceca64c2c00d5fea165175d518b7ac021"),
    ("centralizer A 90 --set CLOSED", "95d8edac33e96e344d0e5e7392fd7046be8505878f2b1756e9c69d448008c827"),
    ("roots A 90", "d105a9a1deb0498b8465d5763f36dbb686b71f0d98d700cf30b0ea09d0c0ef59", roots_ok, 20),
    ("roots A 90 --unicode", "bd3aba4d1169651ea2e745a016831595fc69ee5a446d8e9931ff76e2f4f7c379", roots_ok),
    ("roots B 64", "41f96bb1c4c564fdca4acf6c13900b91369a008867ef2070d527ba7a7d88f2d2", roots_ok),
    ("roots C 64", "108f35c917c25b645f692d7d97db44464ba853aea6bc8542408c0e99bc956bc3", roots_ok),
    ("roots D 64", "fcbe99d6d6bd9ae0ce712255c6d82872eeb6cab8cd02323fd76f57de384a6187", roots_ok),
    ("abelian A 12", "ec8eb774bd3f0cebff1db9b024919aae8e11b16716c3ca0a67964348cdb09c65", abelian_ok),
    ("abelian A 12 --format json", "be31f33e3a42f407c62eb40516c14e30dc069dca72f4320e4fb96ba0ca2abb19", abelian_ok),
    ("abelian B 11", "b987666e553f316043d5aa4bbf9ddb96eb7c581a8dc1de458b5044e7695a9a6c", abelian_ok),
    ("abelian C 11", "fb88a5db91470b464845b5b26e846519d27d553bc192c436426fdda87bb4812c", abelian_ok),
    ("abelian D 11", "f5f137948fbe2ada0ca147563f874258e1d36a52d749022d6f4504b16557a0c7", abelian_ok),
    ("ideals A 12", "592836fa9ca06d0e2b04b7c9b537d80c0adb68b1656fb435799c73cbc1aae607", ideals_ok),
    ("ideals A 12 --format json", "cf2c2e32a82e44cb15e66d86dbaac3520cbf3fbc65c161a0ecc9929b1d507a13", ideals_ok),
    ("lattice A 11 --format dot", "c6b72483bb9778fc0e62436f63e4df9fef18caddf5c859a2ce0a7abedf9940b7", lattice_ok),
    ("lattice C 11 --format dot", "6a4555173b6f69d1907c4ae443a284ce13c92b8dc59360e0e8857db1253ee42e", lattice_ok),
    ("lattice A 12 --format dot", "eae797e21335b5a22aa3ad07320c855f9817c6a05e11a63f23a1b999bf039189", lattice_ok),
    ("lattice A 12", "63974e1e8fd2e04af409317f88ee9809efc781114951a6fdd0f4c24ef5b48af8", lattice_ok),
    ("lattice A 12 --format json", "23f449880cdd56f7ead18fb634a4b87bbd1d6902f88b9fcc1d1df901b8fae8ab"),
    ("classify A 12 --format json", "011e627fc5c3696f93ad8b3a3aa9324f786397c04d3ba1aa28ba45612098e168"),
    ("classify A 12", "e9083714685231838b50a9dad6b3a8d6b83c5c1ff749a61a7ebc6cbd6bd1c83f", kernels_ok),
    ("classify B 11", "07666dc5455f5c3205d3e0c9ec664710c8dcb1943dbd0c07db448830f360c41a", kernels_ok),
    ("classify C 11", "ba6739561df0638d30e19b906a863f47cbeea48297bc277339ad86fa355e9c1a", kernels_ok),
    ("classify D 11", "4ba3ebe89692f8b37d170c33b9fc102b1bb3fb4a161f1887f6972e400124c2bd", kernels_ok),
)


def run(command, sha256, check=None, limit=math.inf):
    """Run one row, print its line and return whether it held."""
    argv = [SETS.get(word, word) for word in command.split()]
    start = time.monotonic()
    child = subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
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
    code, seconds = child.wait(), time.monotonic() - start
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
    sys.exit(not all([run(*row) for row in ROWS]))
