"""Byte-identity guard: exit status and stdout sha256 of every pinned command but the caps.

The pins are in ``tests/pins.py``; ``tests/caps.py`` runs the rows marked
``CAP``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from borelideals.cli import run
from pins import CAP, PINS

CASES = [command for command, pin in PINS.items() if CAP not in pin]


@pytest.mark.parametrize("command", CASES)
def test_stdout_bytes_match_golden(command, capsys):
    argv = command.split(" ")
    if "--set" in argv:
        at = argv.index("--set") + 1
        argv[at:] = [" ".join(argv[at:])]
    status = run(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (status, digest) == PINS[command]


def test_every_benchmark_pin_is_in_the_table():
    # perfbench keeps its own copy until the benchmark reads this table
    path = Path(__file__).parents[1] / "perfbench" / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert {command: PINS.get(command) for command in golden} == {
        command: (0, sha256) for command, sha256 in golden.items()
    }
