"""Benchmark of the borelideals command line, end to end and per layer.

Run from the root of a checkout (no install needed; children get ``src`` on
``PYTHONPATH``):

    python3 perfbench/run.py --workload listing --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25
    python3 perfbench/run.py --self-test

``--trace 0`` runs the workload's commands as users do: one fresh process
per command, one command at a time (a single closed-loop client), pass after
pass until ``--seconds`` have gone by, and reports the end-to-end metrics as
medians over the passes.  ``--trace 1`` runs ``tracer.py`` in a child for the
per-layer metrics.  Every command's stdout goes through the gate in
``workloads.py``; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details, spans and the replayable
argv go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

COMMAND_TIMEOUT_S = 120.0
RUN_BUDGET_S = 165.0  # a run must end within 180 s, set-up included
# Set-up and start-up are timed at least this many times and this long; median reported.
REPEAT_MIN_RUNS = 3
REPEAT_MIN_S = 2.0

CLI = [sys.executable, "-m", "borelideals.cli"]
SETUP_CODE = (
    "import sys, borelideals.cli\n"
    "from borelideals.roots import root_system\n"
    "for name in sys.argv[1:]:\n"
    "    root_system(name[0], int(name[1:]))\n"
)


@dataclass
class Outcome:
    """One finished child process."""

    status: int
    stderr: bytes
    wall_s: float
    ttfb_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], timeout: float, on_stdout=lambda chunk: None) -> Outcome:
    """Run a child to its end, passing its stdout to ``on_stdout``; time spawn -> first byte -> exit."""
    start = time.perf_counter()
    deadline = start + timeout
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    first = None
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, on_stdout)
        sel.register(proc.stderr, selectors.EVENT_READ, err.append)
        while sel.get_map() and (left := deadline - time.perf_counter()) > 0:
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 20)
                if not data:
                    sel.unregister(key.fileobj)
                    continue
                if first is None and key.data is on_stdout:
                    first = time.perf_counter()
                key.data(data)
    # Reap by polling, so that a child that closed its pipes but hangs is still killed.
    timed_out = False
    while not (reaped := os.wait4(proc.pid, os.WNOHANG))[0]:
        if time.perf_counter() >= deadline:
            proc.kill()
            timed_out = True
            reaped = os.wait4(proc.pid, 0)
            break
        time.sleep(0.001)
    _, status, usage = reaped
    stop = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(
        status=proc.returncode,
        stderr=b"".join(err),
        wall_s=stop - start,
        ttfb_s=(first if first is not None else stop) - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
        timed_out=timed_out,
    )


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ttfb_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)
    commands: list[dict] = field(default_factory=list)  # per-command samples


def run_pass(cmds: list[workloads.Command], launcher: list[str], deadline: float) -> Pass:
    """Each command once, in order; wall_s sums spawn -> exit, so gate checks are excluded."""
    result = Pass()
    for cmd in cmds:
        result.attempted += 1
        left = min(COMMAND_TIMEOUT_S, deadline - time.perf_counter())
        if left <= 0:
            result.failures.append({"command": cmd.text, "reason": "run budget exhausted"})
            continue
        out = cmd.digest()
        o = spawn(launcher + list(cmd.argv), left, out.update)
        result.wall_s += o.wall_s
        result.cpu_s += o.cpu_s
        result.ttfb_s += o.ttfb_s
        result.peak_rss_mb = max(result.peak_rss_mb, o.maxrss_mb)
        result.commands.append({"wall_s": o.wall_s, "cpu_s": o.cpu_s, "ttfb_s": o.ttfb_s,
                                "maxrss_mb": o.maxrss_mb})
        reason = f"timed out after {left:.0f} s" if o.timed_out else cmd.check(o.status, out)
        if reason:
            stderr = o.stderr.decode(errors="replace").strip().splitlines()
            result.failures.append({"command": cmd.text, "reason": reason, "stderr": stderr[-3:]})
    return result


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "cpu": model,
            "machine": platform.machine()}


def median_spawn(argv: list[str], deadline: float) -> float:
    """Median wall time of a child run at least REPEAT_MIN_RUNS times and REPEAT_MIN_S long."""
    times: list[float] = []
    while len(times) < REPEAT_MIN_RUNS or sum(times) < REPEAT_MIN_S:
        o = spawn(argv, deadline - time.perf_counter())
        if o.status != 0 or o.timed_out:
            raise SystemExit(f"set-up failed: {' '.join(argv)}\n{o.stderr.decode(errors='replace')}")
        times.append(o.wall_s)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: set-up, then passes over the commands for ``seconds``."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    cmds = workloads.commands(workload, seed)  # inputs are built before any timing
    setup_s = median_spawn([sys.executable, "-c", SETUP_CODE, *workloads.root_systems(cmds)], deadline)
    passes: list[Pass] = []
    first = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(cmds, CLI, deadline))
        now = time.perf_counter()
        if now - first >= seconds or now + 1.5 * (now - start) > deadline:
            break
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "ttfb_s": statistics.median(p.ttfb_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": setup_s,
        "ok_rate": (attempted - len(failures)) / attempted,
    }
    details = {"passes": [vars(p) for p in passes]}
    return result(workload, seed, cmds, 0, attempted, failures, metrics, details)


def trace(workload: str, seed: int) -> dict:
    """Traced run: interpreter start-up, then ``tracer.py`` in a child."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    cmds = workloads.commands(workload, seed)
    startup_s = median_spawn([sys.executable, "-c", "import borelideals.cli"], deadline)
    report = []
    o = spawn([sys.executable, str(HERE / "tracer.py"), "--workload", workload, "--seed", str(seed)],
              deadline - time.perf_counter(), report.append)
    if o.status != 0 or o.timed_out:
        raise SystemExit(f"traced pass failed (status {o.status}, timed out {o.timed_out}):\n"
                         + o.stderr.decode(errors="replace"))
    report = json.loads(b"".join(report))
    metrics = report["metrics"] | {"proc.startup_s": startup_s}
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    OUT.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps(report["spans"]), encoding="utf-8")
    details = {"spans": str(spans_path.relative_to(ROOT))}
    return result(workload, seed, cmds, 1, report["attempted"], report["failures"], metrics, details)


def result(workload, seed, cmds, traced, attempted, failures, metrics, details) -> dict:
    """The result line, with the units from BENCHMARK.json; the full record goes to out/."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if traced else "end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": workload, "seed": seed, "trace": traced, "host": host(),
              "argv": [[*CLI[1:], *c.argv] for c in cmds], "failures": failures,
              **details, "result": line}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{traced}.json").write_text(json.dumps(record, indent=1),
                                                                 encoding="utf-8")
    for f in failures:
        print(f"FAILED {f['command'][:120]}: {f['reason']}")
    return line


def table(rows: dict[str, dict], names: list[str]) -> str:
    lines = ["| workload | " + " | ".join(names) + " |", "|---" * (len(names) + 1) + "|"]
    for workload, line in rows.items():
        values = (line["metrics"][n]["value"] for n in names)
        lines.append(f"| {workload} | " + " | ".join(f"{v:.4g}" for v in values) + " |")
    return "\n".join(lines)


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced; one row per workload in each table."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {w: measure(w, seed, seconds) for w in workloads.WORKLOADS}
    layers = {w: trace(w, seed) for w in workloads.WORKLOADS}
    errors = {w: line["failed"] / line["attempted"] for w, line in e2e.items()}
    print(f"host: {host()}  seed {seed}  seconds {seconds}")
    print("\nend to end (error_rate = 1 - ok_rate):")
    print(table(e2e, [m["name"] for m in spec["end_to_end"]]))
    print("error_rate: " + ", ".join(f"{w} {r:g}" for w, r in errors.items()))
    print("\nper layer (traced run):")
    print(table(layers, [m["name"] for m in spec["per_layer"]]))
    return {"end_to_end": e2e, "per_layer": layers}


def self_test(seed: int) -> bool:
    """The gate must pass a clean run and fail corrupted output and a wrong exit status."""
    cmds = workloads.self_test_commands(seed)
    fault = [sys.executable, str(HERE / "fault.py")]
    deadline = time.perf_counter() + RUN_BUDGET_S
    ok = True
    closed_forms = {("E", 8): 25079, ("A", 9): 16795, ("E", 7): 4159, ("A", 8): 4861,
                    ("D", 7): 2507, ("A", 11): 208011, ("B", 9): 48619, ("D", 9): 35749}
    for (family, rank), want in closed_forms.items():
        got = workloads.nonzero_ideal_count(family, rank)
        if got != want:
            print(f"FAIL Weyl-Catalan {family}{rank}: {got}, expected {want}")
            ok = False
    for family, rank in (("A", 40), ("B", 20), ("D", 24)):
        got = len(workloads.positive_roots(family, rank))
        if got != workloads.positive_root_count(family, rank):
            print(f"FAIL closed-form root list {family}{rank} has {got} roots")
            ok = False
    for label, launcher, want_failed in (("clean", CLI, 0), ("corrupted output", fault + ["corrupt"], len(cmds)),
                                         ("wrong exit status", fault + ["status"], len(cmds))):
        p = run_pass(cmds, launcher, deadline)
        rate = len(p.failures) / p.attempted
        good = len(p.failures) == want_failed
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: {len(p.failures)}/{p.attempted} failed, error_rate {rate:g}")
        for f in p.failures:
            print(f"       {f['command'][:60]}: {f['reason']}")
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description="borelideals CLI benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    parser.add_argument("--self-test", action="store_true", help="check that the gate fails bad output")
    args = parser.parse_args()
    if not (ROOT / "src" / "borelideals" / "cli.py").is_file():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'borelideals'} is missing")
    if args.self_test:
        sys.exit(0 if self_test(args.seed) else 1)
    if args.all:
        line = run_all(args.seed, args.seconds)
    elif args.workload is None:
        parser.error("give --workload, --all or --self-test")
    elif args.trace:
        line = trace(args.workload, args.seed)
    else:
        line = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
