"""Check a ``classify`` text stream at a cap: its sha256, its kernels and how many ideals hold each.

    PYTHONPATH=src python -m borelideals.cli classify B 11 |
        PYTHONPATH=src python tests/kernel_caps.py B 11 SHA256

pytest does not collect this file.  The ideals that miss exactly the simple
roots M have a kernel of dimension rank - |M|, and there are Cat+ of the
subdiagram on M of them (``test_closed_forms.positive_catalan``).  M is read
from a line's leading simple roots (the simple roots come first).  The stream
(1.2-1.9 GB at the caps) is hashed as it passes, and only its distinct
(M, suffix) pairs are kept, not its lines.  Each of the 2^rank missing sets
must have one suffix, whose kernel ``test_linalg.assert_reduced_kernel``
checks against the Cartan rows in M (``roots.cartan_matrix``; type A alone
cannot tell rows from columns, which differ on B and C), and whose
``| mixed`` marks exactly a nonzero kernel with M nonempty.  Prints one
summary line and exits non-zero when any check fails.
"""

import hashlib
import re
import sys
from collections import Counter

from borelideals.roots import cartan_matrix
from test_closed_forms import positive_catalan
from test_linalg import assert_reduced_kernel

HELD = re.compile(rb"\[(X\[a\d+\](?:, X\[a\d+\])*)[,\]]")  # a line's leading simple roots
SUFFIX = re.compile(r"kernel dim (\d+) \| kernel basis: (-|(?:[+-]?\d*H\[a\d+\]|; )+)( \| mixed)?\n")
TERM = re.compile(r"([+-]?)(\d*)H\[a(\d+)\]")


def kernel_ok(cartan, missing, suffix):
    """Whether a line's suffix states the kernel of the Cartan rows in ``missing``."""
    rank = len(cartan)
    m = SUFFIX.fullmatch(suffix)
    if not m:
        return False
    basis = []
    for combo in [] if m[2] == "-" else m[2].split("; "):
        vec = [0] * rank
        for sign, c, i in TERM.findall(combo):
            vec[int(i) - 1] += int(sign + (c or "1"))
        basis.append(vec)
    if not int(m[1]) == len(basis) == rank - len(missing):
        return False
    if (m[3] is not None) != (bool(basis) and bool(missing)):
        return False
    try:
        assert_reduced_kernel([cartan[i] for i in sorted(missing)], rank, basis)
    except (AssertionError, StopIteration):  # StopIteration: a zero vector has no pivot
        return False
    return True


def main(family, rank, sha256):
    rank = int(rank)
    cartan = cartan_matrix(family, rank)
    want = Counter()
    for missing in range(1 << rank):
        want[rank - missing.bit_count()] += positive_catalan(cartan, missing)

    digest = hashlib.sha256()
    lines = iter(sys.stdin.buffer)
    head = next(lines, b"")
    digest.update(head)
    pairs = Counter()
    for line in lines:
        digest.update(line)
        roots, rest = line.split(b" | ", 1)
        m = HELD.match(roots)
        pairs[m[1].decode() if m else "", rest.decode()] += 1
    got, bad = Counter(), 0
    for (simple, rest), n in pairs.items():
        got[int(rest.split(" ", 3)[2])] += n
        missing = set(range(rank)) - {int(i) - 1 for i in re.findall(r"\d+", simple)}
        bad += not kernel_ok(cartan, missing, rest)
    sets = len({simple for simple, _ in pairs})
    print(f"classify {family} {rank}: sha256 {digest.hexdigest()},", dict(sorted(got.items())),
          f"{len(pairs)} kernels, {sets} missing sets, {bad} wrong")
    return (not head.startswith(b"note: ") or digest.hexdigest() != sha256
            or got != want or bad or len(pairs) != sets or sets != 1 << rank)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
