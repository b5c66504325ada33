"""The planted-fault runner (``tests/faults.py``) on rows made to misbehave.

Each test here starts at most one short pytest child: a row whose old text is
missing or not unique is named before any test runs, and a fault that
survives needs no run on the unchanged ``src/``.
"""

import re

import pytest

import faults


@pytest.fixture
def children(monkeypatch):
    """The tests of the pytest children the runner starts, in order."""
    started = []
    child = faults.pytest_child

    def counted(test, src):
        started.append(test)
        return child(test, src)

    monkeypatch.setattr(faults, "pytest_child", counted)
    return started


def test_every_row_plants_one_text_and_names_a_test():
    for path, old, new, test in faults.FAULTS:
        assert (faults.SRC / path).read_text(encoding="utf-8").count(old) == 1, old
        assert old != new
        file, _, name = test.partition("::")
        assert re.search(rf"^def {re.escape(name.partition('[')[0])}\(", (faults.ROOT / file).read_text(), re.M)
    assert len(faults.FAULTS) >= 8


def test_a_fault_its_test_passes_on_is_named_as_surviving(children, capsys):
    test = "tests/test_cli.py::test_capacity_caps_admit_a12_ideals_and_a80_roots"
    row = ("borelideals/cli.py", "# A90 (4095 positive roots) passes", "# A90 passes", test)  # a comment
    assert not faults.main([row])
    assert re.fullmatch(r"borelideals/cli\.py: .*: survived: the test passes on the faulty copy \(.*\)\n",
                        capsys.readouterr().out)
    assert children == [test]


@pytest.mark.parametrize("old", ["no such text", 'InvalidInputError("empty'], ids=["missing", "twice"])
def test_a_row_whose_old_text_is_not_unique_is_named_before_any_test_runs(old, children, capsys):
    times = (faults.SRC / "borelideals/cli.py").read_text(encoding="utf-8").count(old)
    assert times != 1
    assert not faults.main([("borelideals/cli.py", old, "", "tests/test_cli.py::test_writer_writes_whole_pieces")])
    assert capsys.readouterr().out == f"borelideals/cli.py: {old!r}: old text occurs {times} times, not once\n"
    assert children == []
