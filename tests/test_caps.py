"""The caps checker (``tests/caps.py``) on small systems.

Each check, a closed form or the set queries' recomputed bytes, accepts a
stream made in process, fed in blocks small enough that lines and root labels
straddle them, and rejects the stream with one planted fault.  The runner
passes a right row and names a wrong one.  The checker and its references
import without pytest, hypothesis or the program.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from borelideals.cli import run
from caps import CHECKS as CAP_CHECKS
from caps import LIMITS, abelian_ok, ideals_ok, kernels_ok, lattice_json_ok, lattice_ok, roots_ok, set_query_ok
from caps import run as run_row
from pins import CAP, PINS

CHECKS = {
    "classify B 4": kernels_ok,
    "classify B 4 --format json": kernels_ok,
    "lattice A 5": lattice_ok,
    "lattice A 5 --format json": lattice_json_ok,
    "lattice C 4 --format dot": lattice_ok,
    "ideals A 6": ideals_ok,
    "ideals A 6 --format json": ideals_ok,
    "roots A 8": roots_ok,
    "roots A 8 --unicode": roots_ok,
    "roots B 5": roots_ok,
    "roots C 5": roots_ok,
    "roots D 5": roots_ok,
    "abelian B 4": abelian_ok,
    "abelian B 4 --format json": abelian_ok,
    "normalizer A 8 --set a1,a2,a1+a2": set_query_ok,
    "centralizer A 8 --set a1,a2,a1+a2": set_query_ok,
    "check A 8 --set a1,a2,a1+a2": set_query_ok,
    # a8, a7+a8 and a6+a7+a8 as raw vectors: abelian and closed, but a5+a6+a7+a8 is missing
    "check A 8 --set [0,0,0,0,0,1,1,1],[0,0,0,0,0,0,1,1],[0,0,0,0,0,0,0,1]": set_query_ok,
}


def stdout(command, capsys):
    assert run(command.split()) == 0
    return capsys.readouterr().out.encode()


def blocks(data, size):
    return (data[i : i + size] for i in range(0, len(data), size))


@pytest.mark.parametrize("size", [7, 1 << 20])
@pytest.mark.parametrize("command", CHECKS)
def test_each_check_accepts_its_stream(command, size, capsys):
    assert CHECKS[command](command.split(), blocks(stdout(command, capsys), size))


@pytest.mark.parametrize(
    "command,fault,planted",
    [
        ("classify B 4", rb"kernel basis: (?=[\dH])", b"kernel basis: -"),  # one kernel sign flipped
        ("classify B 4", rb" \| mixed", b""),
        ("classify B 4 --format json", rb'"mixed": true', b'"mixed": false'),
        ("classify B 4 --format json", rb'(?<="kernel_basis": \[\n        \[\n          )\d', b"3"),  # one basis entry
        ("classify B 4 --format json", rb',\s*"kernel_dimension": \d+', b""),  # one entry's kernel dimension dropped
        ("lattice A 5", rb"\n\d+ -> \d+\n", b"\n"),  # one cover line dropped
        ("lattice C 4 --format dot", rb"\n  n\d+ -> n\d+;\n", b"\n"),
        ("lattice A 5 --format json", rb"\[\s*\d+,\s*\d+\s*\],\s*", b""),  # one edge dropped
        ("lattice A 5 --format json", rb'"abelian": true', b'"abelian": false'),  # one flag flipped
        ("ideals A 6", rb"\n[^\n]+\n", b"\n"),  # one ideal line dropped
        ("ideals A 6 --format json", rb'\n *"dimension": \d+,\n', b"\n"),
        ("abelian B 4", rb"\n[^\n]+\n", b"\n"),
        ("roots A 8", rb", a1\+a2,", b", a1+a3,"),  # one root label changed
        ("roots D 5", rb", a3\+a5,", b", a3+a4,"),
        ("normalizer A 8 --set a1,a2,a1+a2", rb", X\[[^\]]*\]", b""),  # one root dropped
        ("centralizer A 8 --set a1,a2,a1+a2", rb"X\[a4\], ", b""),
        ("check A 8 --set a1,a2,a1+a2", rb"yes", b"no"),  # one answer flipped
        ("check A 8 --set [0,0,0,0,0,1,1,1],[0,0,0,0,0,0,1,1],[0,0,0,0,0,0,0,1]", rb"ideal: no", b"ideal: yes"),
    ],
)
def test_each_check_rejects_a_planted_fault(command, fault, planted, capsys):
    data, n = re.subn(fault, planted, stdout(command, capsys), count=1)
    assert n == 1
    assert not CHECKS[command](command.split(), blocks(data, 7))


def test_the_runner_passes_a_right_row_and_names_a_wrong_one(capsys):
    sha256 = hashlib.sha256(stdout("roots A 3", capsys)).hexdigest()
    assert run_row("roots A 3", sha256, roots_ok, 20)
    line = capsys.readouterr().out
    assert re.fullmatch(rf"roots A 3: [\d.]+ s, [\d.]+ MiB, sha256 {sha256}, ok\n", line)
    assert not run_row("roots A 3", "0" * 64)
    assert capsys.readouterr().out.endswith(", sha256\n")
    assert not run_row("roots A 3", sha256, kernels_ok, limit=0)
    assert capsys.readouterr().out.endswith(", check, over 0 s\n")


def test_every_check_and_limit_names_a_cap_row():
    caps = {command for command, pin in PINS.items() if CAP in pin}
    assert len(caps) == 28 and set(CAP_CHECKS) | set(LIMITS) <= caps


# Imports the modules named on the command line with pytest and hypothesis
# blocked, then names the program's modules that were loaded.
ISOLATED = """
import importlib, sys
sys.modules["pytest"] = sys.modules["hypothesis"] = None
for name in sys.argv[1:]:
    importlib.import_module(name)
print(sorted(name for name in sys.modules if name.startswith("borelideals")))
"""


@pytest.mark.parametrize("module", ["reference", "caps", "faults"])
def test_imports_without_the_program_or_the_test_tools(module):
    # the program is importable, so a module that reached for it would load it
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", ISOLATED, module], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
