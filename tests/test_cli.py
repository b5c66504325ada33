import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from types import SimpleNamespace

import jsonschema
import pytest

from borelideals import (
    CapacityError,
    InvalidInputError,
    enumerate_nilradical_ideals,
    root_system,
)
from borelideals import cli
from borelideals.cli import parse_root_set, run
from conftest import system

SCHEMA = json.loads(
    resources.files("borelideals").joinpath("output_schema.json").read_text()
)

A2_IDEALS_TEXT = (
    "[X[a1+a2]]\n"
    "[X[a1], X[a1+a2]]\n"
    "[X[a2], X[a1+a2]]\n"
    "[X[a1], X[a2], X[a1+a2]]\n"
)


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validated(payload_text):
    payload = json.loads(payload_text)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_ideals_a2_text_golden(capsys):
    code, out, err = invoke(["ideals", "A", "2"], capsys)
    assert code == 0
    assert out == A2_IDEALS_TEXT
    assert err == ""


def test_ideals_include_zero_prepends_zero_line(capsys):
    code, out, _ = invoke(["ideals", "A", "2", "--include-zero"], capsys)
    assert code == 0
    assert out == "0\n" + A2_IDEALS_TEXT


def test_abelian_f4_has_sixteen_lines(capsys):
    code, out, _ = invoke(["abelian", "F", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[0] == "0"
    assert lines[1] == "[X[2a1+3a2+4a3+2a4]]"


def test_invalid_family_exits_2(capsys):
    code, out, err = invoke(["roots", "Z", "9"], capsys)
    assert code == 2
    assert out == ""
    assert "Z" in err and "family" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "B", "1"],
        ["roots", "D", "2"],
        ["roots", "E", "9"],
        ["ideals", "A", "0"],
    ],
)
def test_invalid_rank_exits_2(argv, capsys):
    code, _, err = invoke(argv, capsys)
    assert code == 2
    assert err.startswith("error:")


def test_capacity_error_exits_3(capsys):
    code, out, err = invoke(["ideals", "E", "8", "--oracle"], capsys)
    assert code == 3
    assert out == ""
    assert "capped" in err


@pytest.mark.parametrize(
    "argv", [["ideals", "A", "30"], ["roots", "A", "200"]], ids=["ideals", "roots"]
)
def test_capacity_guard_exits_3_before_any_work(argv, capsys):
    start = time.perf_counter()
    code, out, err = invoke(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_capacity_check_runs_in_constant_memory(capsys):
    # The Coxeter number is in closed form: no list as long as the rank is
    # built before the request is refused.
    tracemalloc.start()
    try:
        code = run(["roots", "A", "1000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "positive roots" in capsys.readouterr().err
    assert peak < 2**20


def test_capacity_caps_admit_a12_ideals_and_a80_roots():
    cli._check_capacity("ideals", "A", 12)  # 742899 nonzero ideals
    cli._check_capacity("roots", "A", 80)  # 3240 positive roots
    with pytest.raises(CapacityError):
        cli._check_capacity("lattice", "A", 13)
    with pytest.raises(CapacityError):
        cli._check_capacity("check", "A", 91)


@pytest.mark.parametrize(
    "argv,status",
    [
        (["ideals", "E", "8", "--oracle"], 3),
        (["normalizer", "B", "2", "--set", "a1, a2"], 2),  # not closed under sums
        (["centralizer", "B", "2", "--set", "a1, a2"], 2),
        (["check", "B", "2", "--format", "json", "--set", "a1+a1"], 2),
    ],
)
def test_errors_come_before_the_first_byte(argv, status, capsys):
    code, out, err = invoke(argv, capsys)
    assert code == status
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("zero", [[], ["--include-zero"]], ids=["nonzero", "with-zero"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "family,rank", [("A", 5), ("B", 2), ("B", 4), ("C", 4), ("D", 4), ("G", 2)]
)
def test_oracle_agrees_with_default_enumeration(family, rank, fmt, zero, capsys):
    # the subset filter's masks reach the output through their own sort
    argv = ["ideals", family, str(rank), "--format", fmt, *zero]
    code, expected, _ = invoke(argv, capsys)
    assert code == 0
    code, via_oracle, _ = invoke([*argv, "--oracle"], capsys)
    assert code == 0
    assert via_oracle == expected


def test_jobs_zero_rejected(capsys):
    code, _, err = invoke(["ideals", "A", "2", "--jobs", "0"], capsys)
    assert code == 2
    assert "--jobs" in err


def test_determinism_across_runs_and_jobs(capsys):
    outputs = set()
    for argv in (
        ["classify", "B", "2", "--format", "json"],
        ["classify", "B", "2", "--format", "json"],
        ["classify", "B", "2", "--format", "json", "--jobs", "4"],
        ["classify", "B", "2", "--format", "json", "--jobs", "13"],
    ):
        code, out, _ = invoke(argv, capsys)
        assert code == 0
        outputs.add(out.encode())
    assert len(outputs) == 1


def test_dot_format_restricted_to_lattice(capsys):
    code, _, err = invoke(["ideals", "A", "2", "--format", "dot"], capsys)
    assert code == 2
    assert "invalid choice" in err


def test_lattice_dot_output(capsys):
    code, out, _ = invoke(["lattice", "A", "2", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph ideal_lattice {")
    assert out.count(" -> ") == 5


def test_missing_set_flag_exits_2(capsys):
    code, _, err = invoke(["normalizer", "B", "2"], capsys)
    assert code == 2
    assert "--set" in err


def test_help_exits_zero(capsys):
    code, out, _ = invoke(["--help"], capsys)
    assert code == 0
    assert "borelideals" in out


def test_normalizer_text(capsys):
    code, out, _ = invoke(["normalizer", "B", "2", "--set", "a2"], capsys)
    assert code == 0
    assert out == "[X[a2], X[a1+2a2]]\n"


def test_normalizer_makes_one_closure_pass(monkeypatch, capsys):
    from borelideals import subalgebras

    leaving = subalgebras._leaving
    calls = []

    def counted(mask, rs):
        calls.append(mask)
        return leaving(mask, rs)

    monkeypatch.setattr(subalgebras, "_leaving", counted)
    code, out, _ = invoke(["normalizer", "B", "2", "--set", "a2"], capsys)
    assert code == 0
    assert out == "[X[a2], X[a1+2a2]]\n"
    assert calls == [0b10]  # the set is checked closed and answered in one pass


def test_centralizer_text(capsys):
    code, out, _ = invoke(["centralizer", "A", "2", "--set", "a1+a2"], capsys)
    assert code == 0
    assert out == "[X[a1], X[a2], X[a1+a2]]\n"


def test_check_text(capsys):
    code, out, _ = invoke(["check", "B", "2", "--set", "a2, a1+2a2"], capsys)
    assert code == 0
    assert out == (
        "set: [X[a2], X[a1+2a2]]\n"
        "monomial ideal: no\n"
        "monomial subalgebra: yes\n"
        "abelian set: yes\n"
    )


def test_roots_text(capsys):
    code, out, _ = invoke(["roots", "B", "2"], capsys)
    assert code == 0
    assert out == (
        "B2: a1=2>a2\n"
        "positive roots (4): a1, a2, a1+a2, a1+2a2\n"
        "highest root: a1+2a2\n"
    )


def test_unicode_flag_changes_symbols(capsys):
    code, out, _ = invoke(["roots", "B", "2", "--unicode"], capsys)
    assert code == 0
    assert "α" in out and ": a1" not in out


def test_no_ansi_escape_codes_anywhere(capsys):
    for argv in (
        ["roots", "G", "2"],
        ["ideals", "G", "2"],
        ["classify", "G", "2"],
        ["lattice", "G", "2"],
    ):
        _, out, err = invoke(argv, capsys)
        assert "\x1b" not in out and "\x1b" not in err


def test_out_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "ideals.json"
    code, out, _ = invoke(["ideals", "A", "2", "--format", "json"], capsys)
    assert code == 0
    code, silent, _ = invoke(
        ["ideals", "A", "2", "--format", "json", "--out", str(target)], capsys
    )
    assert code == 0
    assert silent == ""
    assert target.read_text(encoding="utf-8") == out


def test_unicode_stdout_is_utf8_whatever_the_locale(tmp_path):
    # stdout must carry the bytes --out writes, even where the locale says ASCII
    argv = [sys.executable, "-m", "borelideals.cli", "ideals", "A", "3", "--unicode"]
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(argv, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    target = tmp_path / "ideals.txt"
    assert subprocess.run([*argv, "--out", str(target)], env=env).returncode == 0
    assert proc.stdout == target.read_bytes()
    assert "α".encode() in proc.stdout


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x"
    code, out, err = invoke(["ideals", "A", "2", "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_out_empty_path_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(["roots", "A", "2", "--out", ""], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,status",
    [
        (["ideals", "E", "8", "--oracle"], 3),  # the command fails
        (["ideals", "A", "2"], 2),  # the rename onto a directory fails
    ],
    ids=["command-fails", "rename-fails"],
)
def test_failed_run_leaves_out_target_untouched(argv, status, tmp_path, capsys):
    target = tmp_path / "target"
    if status == 2:
        target.mkdir()
        (target / "inside").write_bytes(b"keep\n")
    else:
        target.write_bytes(b"keep\n")
    code, out, _ = invoke(argv + ["--out", str(target)], capsys)
    assert code == status
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
    kept = target / "inside" if status == 2 else target
    assert kept.read_bytes() == b"keep\n"


def test_out_write_failing_mid_stream_keeps_target(tmp_path, monkeypatch, capsys):
    target = tmp_path / "target"
    target.write_bytes(b"keep\n")
    written = []

    class FullDisk:
        """A file that takes one write, then reports a full disk."""

        def __init__(self, *args, **kwargs):
            self.handle = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, chunk):
            if written:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            written.append(chunk)
            return self.handle.write(chunk)

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    argv = ["ideals", "E", "6", "--format", "json", "--out", str(target)]  # 2 MB
    code, out, err = invoke(argv, capsys)
    assert len(written) == 1
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
    assert target.read_bytes() == b"keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    real = tmp_path / "real.txt"
    real.write_bytes(b"old\n")
    link = tmp_path / "link.txt"
    link.symlink_to("real.txt")
    code, out, _ = invoke(["ideals", "A", "2", "--out", str(link)], capsys)
    assert code == 0 and out == ""
    assert link.is_symlink() and os.readlink(link) == "real.txt"
    assert real.read_text(encoding="utf-8") == A2_IDEALS_TEXT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_out_to_a_fifo_writes_in_place(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # The reader end opens first, without blocking, so the run's open does not
    # block either; the output (72 bytes) fits the pipe, and a run that
    # replaced the FIFO would leave the reader nothing.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, _ = invoke(["ideals", "A", "2", "--out", str(fifo)], capsys)
        got = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert code == 0 and out == ""
    assert got == A2_IDEALS_TEXT.encode()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_out_replaces_a_regular_file_by_rename(tmp_path, capsys):
    target = tmp_path / "target"
    target.write_bytes(b"old\n")
    before = os.stat(target).st_ino
    kept = open(target, "rb")  # an open handle keeps the replaced file's bytes
    try:
        code, _, _ = invoke(["ideals", "A", "2", "--out", str(target)], capsys)
        assert kept.read() == b"old\n"
    finally:
        kept.close()
    assert code == 0
    assert target.read_text(encoding="utf-8") == A2_IDEALS_TEXT
    assert os.stat(target).st_ino != before
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


def test_stdout_write_error_exits_2(tmp_path, monkeypatch, capsys):
    class FullStdout:
        """A stdout on a full disk, over a file descriptor that run() may redirect."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "fd", "w") as handle:
        monkeypatch.setattr(sys, "stdout", FullStdout(handle.fileno()))
        code = run(["roots", "A", "2"])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_unwritable_stdout_exits_2_quietly(tmp_path):
    # a stdout open only for reading fails every write (EBADF), and at exit too
    readonly = tmp_path / "readonly"
    readonly.write_bytes(b"")
    with open(readonly, "rb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "borelideals.cli", "ideals", "E", "6"],
            stdout=stdout,
            stderr=subprocess.PIPE,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.EBADF)}\n".encode()
    assert readonly.read_bytes() == b""


def test_reader_closing_the_pipe_early_is_no_error():
    # `borelideals ideals E 7 | head -c 10`: 4 MB of output, most never read
    with subprocess.Popen(
        [sys.executable, "-m", "borelideals.cli", "ideals", "E", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b"[X[2a1+2a2"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_large_json_listing_runs_in_bounded_memory(tmp_path):
    # The whole document is 68 MB; rendering it at once peaked near 500 MB.
    target = tmp_path / "a9.json"
    tracemalloc.start()
    try:
        code = run(["ideals", "A", "9", "--format", "json", "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "8b35f529c7317abf0b3127d32c98865d62a132e0775e0f267082bdf8fdfd27fa"


def test_lattice_text_streams_its_cover_edges(tmp_path):
    # The edge count is printed from rank * nodes / 2, so the covers are
    # written as they are found; holding them peaked at 25 MB.
    target = tmp_path / "a10.txt"
    tracemalloc.start()
    try:
        code = run(["lattice", "A", "10", "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20
    lines = target.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("edges ("))
    assert lines[at] == f"edges ({len(lines) - at - 1}):"


@pytest.mark.parametrize(
    "argv",
    [
        ["ideals", "A", "6", "--format", "json"],
        ["ideals", "A", "9", "--format", "json"],
        ["abelian", "A", "9", "--format", "json"],
        ["classify", "A", "8", "--format", "json"],
        ["lattice", "A", "8", "--format", "json"],
        ["lattice", "A", "10", "--format", "dot"],
    ],
)
def test_listing_memory_does_not_grow_with_the_listing(argv, tmp_path):
    # Each chunk is one entry and only the writer batches them, so the peak
    # does not grow from A6 to A9, whose largest layer holds 1003 ideals.  The
    # lattice holds no node store: its covers come from a second search.
    target = tmp_path / "out.json"
    tracemalloc.start()
    try:
        code = run(argv + ["--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


def test_writer_writes_whole_pieces():
    # Every write but the last is a whole multiple of _WRITE_SIZE, so a pipe
    # of that size takes each in one go, and a reader gets it in one read.
    chunks = [f"line {i}\n" for i in range(30000)]
    chunks[12345] = "x" * (2 * cli._WRITE_SIZE + 5)
    writes = []
    cli._write_chunks(SimpleNamespace(write=writes.append), chunks)
    assert "".join(writes) == "".join(chunks)
    assert len(writes) > 4
    assert all(len(w) % cli._WRITE_SIZE == 0 for w in writes[:-1])
    assert len(writes[-1]) < cli._WRITE_SIZE


def test_json_outputs_validate_against_schema(capsys):
    for argv in (
        ["roots", "B", "2", "--format", "json"],
        ["ideals", "B", "2", "--format", "json", "--include-zero"],
        ["abelian", "B", "2", "--format", "json"],
        ["classify", "B", "2", "--format", "json"],
        ["lattice", "B", "2", "--format", "json"],
        ["normalizer", "B", "2", "--format", "json", "--set", "a2"],
        ["centralizer", "B", "2", "--format", "json", "--set", "a2"],
        ["check", "B", "2", "--format", "json", "--set", "a1,a2"],
    ):
        code, out, _ = invoke(argv, capsys)
        assert code == 0, argv
        validated(out)


def test_json_roots_round_trip(capsys):
    _, out, _ = invoke(["roots", "G", "2", "--format", "json"], capsys)
    payload = validated(out)
    rs = root_system(payload["family"], payload["rank"])
    assert [tuple(r) for r in payload["positive_roots"]] == list(rs.positive_roots)
    assert tuple(payload["highest_root"]) == rs.highest_root
    assert payload["counts"]["positive_roots"] == len(rs.positive_roots)


def test_json_ideals_round_trip(capsys):
    _, out, _ = invoke(["ideals", "B", "2", "--format", "json"], capsys)
    payload = validated(out)
    rebuilt = {frozenset(tuple(r) for r in entry["roots"]) for entry in payload["ideals"]}
    rs = system("B", 2)
    expected = {frozenset(j.roots) for j in enumerate_nilradical_ideals(rs)}
    assert rebuilt == expected
    for entry in payload["ideals"]:
        assert entry["dimension"] == len(entry["roots"])


def test_json_classify_round_trip(capsys):
    _, out, _ = invoke(["classify", "A", "2", "--format", "json"], capsys)
    payload = validated(out)
    dims = [entry["kernel_dimension"] for entry in payload["ideals"]]
    assert dims == [0, 0, 1, 1, 2]
    mixed = [entry["mixed"] for entry in payload["ideals"]]
    assert mixed == [False, False, True, True, False]
    assert payload["note"]
    kernel = payload["ideals"][2]["kernel_basis"]
    assert kernel == [[2, 1]]


def test_parse_root_set_values():
    b2 = system("B", 2)
    a2 = system("A", 2)
    f4 = system("F", 4)
    assert parse_root_set("a2, a1+2a2", b2) == {(0, 1), (1, 2)}
    assert parse_root_set(" a2 , a1 + 2a2 ", b2) == {(0, 1), (1, 2)}
    assert parse_root_set("[1,1]", a2) == {(1, 1)}
    assert parse_root_set("2a2+a1", b2) == {(1, 2)}
    assert parse_root_set("[1,2,3,1]", f4) == {(1, 2, 3, 1)}
    assert parse_root_set("a1,[0,1]", a2) == {(1, 0), (0, 1)}
    assert parse_root_set("a1, a1", a2) == {(1, 0)}


@pytest.mark.parametrize(
    "literal",
    [
        "a1+a1", "", "a1+", "b2", "[1", "[1,2", "a1,,a2", "[1,2,3]", "a9", "x",
        # These pack to the root keys of a2, a1 and a1+a2.
        "[16,0]", "[17,-1]", "[-15,2]",
        # Digits are ASCII, and a vector entry has at most a minus sign.
        "a\u0661", "[\u0661,1]", "[0_1,1]", "[+1,1]",
        "[1,1]a1", "a1[0,1]", "[[1,1]]", "[]", ",a1", "a1,",
        # More digits than int() converts.
        pytest.param("a" + "0" * 5000 + "1", id="long-sum"),
        pytest.param("[" + "0" * 5000 + "1,0]", id="long-vector"),
    ],
)
def test_parse_root_set_rejects_bad_literals(literal, capsys):
    a2 = system("A", 2)
    with pytest.raises(InvalidInputError):
        parse_root_set(literal, a2)
    code, out, err = invoke(["check", "A", "2", "--set", literal], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_parse_root_set_is_linear_on_a_megabyte_literal():
    rs = system("A", 40)
    labels = ", ".join(rs.labels())  # every positive root, 45 KB
    literal = ", ".join([labels] * (2**20 // len(labels) + 1))
    start = time.perf_counter()
    assert parse_root_set(literal, rs) == set(rs.positive_roots)
    assert time.perf_counter() - start < 5  # generous: a linear parse takes well under a second


def test_parse_root_set_echoes_offending_term():
    a2 = system("A", 2)
    with pytest.raises(InvalidInputError, match=r"a1\+a1"):
        parse_root_set("a1+a1", a2)


def test_check_set_rejected_before_computation(capsys):
    code, out, err = invoke(["check", "A", "2", "--set", "a1+a1"], capsys)
    assert code == 2
    assert out == ""
    assert "a1+a1" in err


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "borelideals.cli", "ideals", "A", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == A2_IDEALS_TEXT

    proc = subprocess.run(
        [sys.executable, "-m", "borelideals.cli", "roots", "Z", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
