"""Planted faults in the program, each of which a named test must kill.

    PYTHONPATH=src python tests/faults.py

pytest does not collect this file.  ``FAULTS`` holds one row per fault: a
file under ``src/``, an old text that occurs there exactly once, the new text
that replaces it, and the id of the test that must fail with it.  Every row
is first checked against ``src/``; a row whose old text is missing or not
unique is named before any test runs, and skipped.  For each other row,
``src/`` is copied to a temporary directory, the fault is planted in the
copy and the named test runs alone against it, in a child that must import
the copy.  The test must fail there and pass on the unchanged ``src/``.  The
tree is never written.  One line is printed per row; the exit status is 1
if any row misbehaved.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Runs pytest on the ids given, then names the file the program was imported from.
CHILD = """
import sys, pytest
code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
print(f"imported {getattr(sys.modules.get('borelideals'), '__file__', None)}")
sys.exit(code)
"""

FAULTS = [  # (file under src/, old text, new text, killing test id)
    ("borelideals/ideals.py",  # the whole nilradical flagged mixed
     "return kernel, kernel.dimension > 0 and missing != 0",
     "return kernel, kernel.dimension > 0",
     "tests/test_caps.py::test_each_check_accepts_its_stream[classify B 4-7]"),
    ("borelideals/roots.py",  # the row cut drops the first vector with a nonzero pairing
     "k = max(i for i, b in enumerate(pairings) if b)",
     "k = min(i for i, b in enumerate(pairings) if b)",
     "tests/test_caps.py::test_each_check_accepts_its_stream[classify B 4-7]"),
    ("borelideals/ideals.py",  # the search grows each mask by all of its addable roots
     "rest = addable & ((mask & -mask) - 1)",
     "rest = addable",
     "tests/test_ideals.py::test_each_ideal_is_made_once_from_its_canonical_parent[G-2]"),
    ("borelideals/cli.py",  # an empty --set term accepted
     'if ",".join(terms) != compact:',
     "if not terms:",
     "tests/test_cli.py::test_parse_root_set_rejects_bad_literals[a1,,a2]"),
    ("borelideals/cli.py",  # --out keeps its temporary file when the run fails
     "os.remove(tmp)",
     "pass",
     "tests/test_cli.py::test_failed_run_leaves_out_target_untouched[command-fails]"),
    ("borelideals/subalgebras.py",  # the centralizer keeps only the last member's sum row
     "touched |= rs._sum_masks[h]",
     "touched = rs._sum_masks[h]",
     "tests/test_properties.py::test_centralizer_lies_inside_normalizer"),
    ("borelideals/cli.py",  # the writer writes whatever it holds, not whole 64 KiB pieces
     "cut = len(chunk) - held",
     "cut = len(chunk)",
     "tests/test_cli.py::test_writer_writes_whole_pieces"),
    ("borelideals/cli.py",  # B64 and C64, at exactly the cap of 4096 positive roots, refused
     "if roots > MAX_POSITIVE_ROOTS:",
     "if roots >= MAX_POSITIVE_ROOTS:",
     "tests/test_cli.py::test_capacity_caps_admit_a12_ideals_and_a80_roots"),
    # Left out, as no test can kill them: they change no output.
    # - "sums[g] & bigger" -> "sums[g] & mask" in the abelian prune of ideals._search:
    #   bigger is mask plus g, and g + g is never a root, so both tests agree.
    # - "ideals > MAX_IDEALS" -> "ideals >= MAX_IDEALS" in cli._check_capacity: no
    #   system has exactly 2^20 nonzero ideals (A-D checked to rank 99).
]


def pytest_child(test, src):
    """Run ``test`` alone against the program in ``src``; return its exit code and whether it imported that copy."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, test], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    imported = proc.stdout.rpartition("imported ")[2].strip()
    return proc.returncode, Path(imported).is_relative_to(src)


def verdict(path, old, new, test):
    """Plant the fault in a copy of ``src/``; return "killed", or what went wrong with the row."""
    with tempfile.TemporaryDirectory(prefix="faults-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        planted = copy / path
        planted.write_text(planted.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        code, in_copy = pytest_child(test, copy)
    if not in_copy:
        return "the test did not import the faulty copy"
    if code == 0:
        return "survived: the test passes on the faulty copy"
    if code != 1:
        return f"the test did not run on the faulty copy (pytest exit {code})"
    code, in_src = pytest_child(test, SRC)
    if not in_src:
        return "the test did not import src/"
    if code != 0:
        return f"the test fails on the unchanged src/ (pytest exit {code})"
    return "killed"


def main(faults=FAULTS):
    """Check every row, print one line each; return whether all were killed."""
    ok, runnable = True, []
    for row in faults:
        path, old = row[0], row[1]
        found = (SRC / path).read_text(encoding="utf-8").count(old) if (SRC / path).is_file() else 0
        if found != 1:
            print(f"{path}: {old!r}: old text occurs {found} times, not once", flush=True)
            ok = False
        else:
            runnable.append(row)
    for path, old, new, test in runnable:
        start = time.monotonic()
        result = verdict(path, old, new, test)
        print(f"{path}: {old!r} -> {new!r}: {result} ({test}, {time.monotonic() - start:.1f} s)", flush=True)
        ok &= result == "killed"
    return ok


if __name__ == "__main__":
    sys.exit(not main())
