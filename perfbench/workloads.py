"""Workloads of the borelideals benchmark and the gate that checks their output.

A workload is a list of CLI commands, run one at a time.  Every command must
exit 0, and its stdout must match in full:

* fixed commands match a sha256 recorded from the unmodified program
  (``golden.json``) and, on top, a closed-form count on the output: the
  Weyl-Catalan number of nonzero ideals, 2^rank abelian ideals, or |R+|;
* seeded set queries (``normalizer``, ``centralizer``, ``check``) match bytes
  recomputed here from closed-form root lists, independently of the program.

Everything in this module is deterministic in the seed, so a run can be
replayed from the argv it records.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

Root = tuple[int, ...]

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

FIXED = {
    "listing": ["ideals E 8", "lattice E 8 --format dot", "ideals A 9 --format json"],
    "enumerate": ["abelian A 11", "abelian B 9", "abelian E 8"],
    "classify": ["classify E 7 --format json", "classify A 8", "classify D 7 --format json"],
    "queries": ["roots A 40", "roots D 24 --format json"],
}
WORKLOADS = tuple(FIXED)

# Tiny commands for the gate's self-test.
SELF_TEST = ["ideals A 2", "abelian B 2", "classify G 2 --format json"]

_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


def exponents(family: str, rank: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(1, rank + 1))
    if family in "BC":
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        return tuple(range(1, 2 * rank - 2, 2)) + (rank - 1,)
    return _EXPONENTS[family, rank]


def nonzero_ideal_count(family: str, rank: int) -> int:
    """Weyl-Catalan number prod (h + e + 1) / (e + 1), less the zero ideal.

    This counts the ad-nilpotent ideals of a Borel subalgebra (Cellini-Papi,
    J. Algebra 2000); h is the Coxeter number, the largest exponent plus one.
    """
    exps = exponents(family, rank)
    h = max(exps) + 1
    num = den = 1
    for e in exps:
        num *= h + e + 1
        den *= e + 1
    return num // den - 1


def positive_root_count(family: str, rank: int) -> int:
    """|R+| is rank * h / 2."""
    return rank * (max(exponents(family, rank)) + 1) // 2


def _count_check(argv: list[str]) -> tuple[bytes, int]:
    """Needle and its expected number of occurrences in a fixed command's stdout."""
    sub, family, rank = argv[0], argv[1], int(argv[2])
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if sub == "roots":
        n = positive_root_count(family, rank)
        if fmt == "json":
            return b'"positive_roots": %d\n' % n, 1
        return b"positive roots (%d): " % n, 1
    if sub == "abelian":
        return b"\n", 2**rank
    ideals = nonzero_ideal_count(family, rank)
    needle = {
        ("ideals", "text"): (b"\n", 0),
        ("ideals", "json"): (b'"abelian": ', 0),
        ("lattice", "dot"): (b" [label=", 1),
        ("classify", "text"): (b" | kernel dim ", 1),
        ("classify", "json"): (b'"kernel_dimension": ', 1),
    }
    text, zero = needle[sub, fmt]
    return text, ideals + zero


@functools.cache
def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class Digest:
    """Streamed view of a command's stdout: sha256 and the count of one needle.

    The harness never holds a command's output: a parent process that grew
    large would show in its children's ``ru_maxrss``, which on Linux starts
    from the parent's peak when the child is forked.
    """

    def __init__(self, needle: bytes | None) -> None:
        self.sha256 = hashlib.sha256()
        self.needle = needle
        self.count = 0
        self._tail = b""

    def update(self, chunk: bytes) -> None:
        self.sha256.update(chunk)
        if self.needle:
            data = self._tail + chunk  # a match may straddle two chunks
            self.count += data.count(self.needle)
            self._tail = data[len(data) - len(self.needle) + 1:]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its stdout must be."""

    argv: tuple[str, ...]
    sha256: str
    count: tuple[bytes, int] | None = None

    @property
    def text(self) -> str:
        return " ".join(self.argv)

    def digest(self) -> Digest:
        return Digest(self.count[0] if self.count else None)

    def check(self, status: int, out: Digest) -> str | None:
        """Reason the command failed, or None when its result is correct."""
        if status != 0:
            return f"exit status {status}, expected 0"
        if out.sha256.hexdigest() != self.sha256:
            return "stdout sha256 differs from the expected one"
        if self.count is not None:
            needle, want = self.count
            if out.count != want:
                return f"{out.count} occurrences of {needle!r} in stdout, expected {want}"
        return None


def fixed_command(text: str) -> Command:
    argv = text.split()
    return Command(tuple(argv), _golden()[text], _count_check(argv))


# Closed-form positive roots in simple-root coordinates (Bourbaki numbering,
# as in the program's Cartan matrices).  Only the types the queries use.


def _vector(rank: int, *runs: tuple[int, int, int]) -> Root:
    """Coefficient vector with value c on the 0-based index range [lo, hi)."""
    v = [0] * rank
    for lo, hi, c in runs:
        for k in range(lo, hi):
            v[k] = c
    return tuple(v)


def canonical_key(root: Root) -> tuple:
    """The program's canonical order: height, then descending coefficients."""
    return (sum(root), tuple(-c for c in root))


@functools.cache
def positive_roots(family: str, n: int) -> tuple[Root, ...]:
    """Positive roots of A_n, B_n or D_n from the epsilon-basis formulas."""
    roots = []
    if family == "A":  # e_i - e_{j+1} = a_i + ... + a_j
        roots = [_vector(n, (i, j + 1, 1)) for i in range(n) for j in range(i, n)]
    elif family == "B":  # a_n = e_n is short
        for i in range(n):
            roots.append(_vector(n, (i, n, 1)))  # e_i
            for j in range(i + 1, n):
                roots.append(_vector(n, (i, j, 1)))  # e_i - e_j
                roots.append(_vector(n, (i, j, 1), (j, n, 2)))  # e_i + e_j
    elif family == "D":  # a_{n-1} = e_{n-1} - e_n, a_n = e_{n-1} + e_n
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(_vector(n, (i, j, 1)))  # e_i - e_j
                if j == n - 1:  # e_i + e_n
                    roots.append(_vector(n, (i, n - 2, 1), (n - 1, n, 1)))
                else:
                    roots.append(_vector(n, (i, j, 1), (j, n - 2, 2), (n - 2, n, 1)))
    else:
        raise ValueError(f"no closed-form root list for family {family}")
    return tuple(sorted(roots, key=canonical_key))


def _plus(r: Root, s: Root) -> Root:
    return tuple(a + b for a, b in zip(r, s))


def _simple(n: int) -> list[Root]:
    return [_vector(n, (j, j + 1, 1)) for j in range(n)]


def root_text(root: Root) -> str:
    return "+".join(f"a{i + 1}" if c == 1 else f"{c}a{i + 1}" for i, c in enumerate(root) if c)


def set_text(roots) -> str:
    ordered = sorted(roots, key=canonical_key)
    if not ordered:
        return "0"
    return "[" + ", ".join(f"X[{root_text(r)}]" for r in ordered) + "]"


def up_closure(generators, family: str, n: int) -> frozenset[Root]:
    """Smallest ideal containing the generators: close under adding simple roots."""
    roots = set(positive_roots(family, n))
    simple = _simple(n)
    found = set(generators)
    stack = list(found)
    while stack:
        r = stack.pop()
        for a in simple:
            s = _plus(r, a)
            if s in roots and s not in found:
                found.add(s)
                stack.append(s)
    return frozenset(found)


def expected_normalizer(chosen: frozenset[Root], family: str, n: int) -> bytes:
    roots = set(positive_roots(family, n))
    kept = [
        r
        for r in positive_roots(family, n)
        if all(_plus(r, s) not in roots or _plus(r, s) in chosen for s in chosen)
    ]
    return (set_text(kept) + "\n").encode()


def expected_centralizer(chosen: frozenset[Root], family: str, n: int) -> bytes:
    roots = set(positive_roots(family, n))
    kept = [r for r in positive_roots(family, n) if all(_plus(r, s) not in roots for s in chosen)]
    return (set_text(kept) + "\n").encode()


def expected_check(chosen: frozenset[Root], family: str, n: int) -> bytes:
    roots = set(positive_roots(family, n))
    sums = [_plus(r, s) for r in chosen for s in chosen]
    ideal = all(_plus(r, a) not in roots or _plus(r, a) in chosen for r in chosen for a in _simple(n))
    closed = all(s not in roots or s in chosen for s in sums)
    abelian = not any(s in roots for s in sums)
    yes = {True: "yes", False: "no"}
    return (
        f"set: {set_text(chosen)}\n"
        f"monomial ideal: {yes[ideal]}\n"
        f"monomial subalgebra: {yes[closed]}\n"
        f"abelian set: {yes[abelian]}\n"
    ).encode()


def _seeded_ideal(rng: random.Random, family: str, n: int, k: int) -> frozenset[Root]:
    """Up-closure of k random roots from the upper half of the heights.

    The closure is an ideal, hence bracket-closed, so normalizer and
    centralizer accept it.  Generators from the upper half keep the --set
    literal well under the kernel's 128 KiB limit on one argument.
    """
    roots = positive_roots(family, n)
    top = sum(roots[-1])
    upper = [r for r in roots if 2 * sum(r) >= top]
    return up_closure(rng.sample(upper, k), family, n)


def _query(sub: str, family: str, n: int, chosen: frozenset[Root], expected) -> Command:
    literal = ",".join(root_text(r) for r in sorted(chosen, key=canonical_key))
    argv = (sub, family, str(n), "--set", literal)
    return Command(argv, hashlib.sha256(expected(chosen, family, n)).hexdigest())


def seeded_queries(seed: int, specs=(("A", 40), ("D", 24), ("B", 20))) -> list[Command]:
    """normalizer, centralizer and check commands generated from the seed."""
    rng = random.Random(seed)
    (fa, na), (fb, nb), (fc, nc) = specs
    return [
        _query("normalizer", fa, na, _seeded_ideal(rng, fa, na, 3), expected_normalizer),
        _query("centralizer", fb, nb, _seeded_ideal(rng, fb, nb, 3), expected_centralizer),
        _query("check", fc, nc, frozenset(rng.sample(positive_roots(fc, nc), 6)), expected_check),
    ]


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list; only ``queries`` depends on the seed."""
    fixed = [fixed_command(text) for text in FIXED[workload]]
    return fixed + seeded_queries(seed) if workload == "queries" else fixed


def self_test_commands(seed: int) -> list[Command]:
    """Tiny fixed commands plus seeded queries on small ranks."""
    return [fixed_command(text) for text in SELF_TEST] + seeded_queries(seed, (("A", 4), ("D", 4), ("B", 3)))


def root_systems(cmds: list[Command]) -> list[str]:
    """Distinct "A40"-style names of the root systems the commands build."""
    return list(dict.fromkeys(c.argv[1] + c.argv[2] for c in cmds))
