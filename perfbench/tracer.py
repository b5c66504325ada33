"""Traced in-process pass over one workload: per-layer spans and counts.

Run by ``run.py --trace 1`` in a child interpreter, so that a stuck or
oversized pass can be stopped by a timeout:

    python3 perfbench/tracer.py --workload listing --seed 1

The child runs each command through ``borelideals.cli.run`` twice: untraced,
then with the public functions of ``roots``, ``ideals``, ``lattice`` and
``subalgebras`` wrapped (rebound in every module that imported them; nothing
under ``src/`` is edited).  The difference of the two is the tracing
overhead.  It prints one JSON object with the per-layer metrics and the spans.

A span records name, start, end, parent span and command id.  Functions
called once per ideal (``ideal_ascii``, ``is_abelian``) get one aggregated
span per command and caller, with the summed busy time and a call count;
``ideal_sort_key`` is counted inside the ``ideals.sort`` span that covers the
whole ``sorted`` call, comparisons included.  ``linalg`` is reached only from
``full_ideal_classification`` and is folded into ``ideals.classify``;
``borel`` is reached by no CLI command.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]

# Span name -> per-layer metric that receives the span's self time.
SELF_TIME = {
    "roots.root_system": "roots.root_system_s",
    "ideals.enumerate": "ideals.enumerate_s",
    "ideals.abelian_ideals": "ideals.abelian_s",
    "ideals.is_abelian": "ideals.abelian_s",
    "ideals.sort": "ideals.sort_s",
    "ideals.render": "ideals.render_s",
    "ideals.classify": "ideals.classify_s",
    "lattice.build": "lattice.build_s",
    "lattice.counts": "lattice.counts_s",
    "lattice.dot": "lattice.dot_s",
    "subalgebras.monomial_subalgebra": "subalgebras.query_s",
    "subalgebras.monomial_normalizer": "subalgebras.query_s",
    "subalgebras.monomial_centralizer": "subalgebras.query_s",
    "subalgebras.is_monomial_subalgebra": "subalgebras.query_s",
    "cli.run": "cli.self_s",
}


class Tracer:
    """Spans kept in memory; ``book`` is the time spent taking a span's counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.command: int | None = None
        self._open: list[int] = []
        self._aggregates: dict[tuple, dict] = {}

    def begin(self, name: str) -> dict:
        rec = {
            "name": name,
            "command": self.command,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "book": 0.0,
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        return rec

    def end(self, rec: dict) -> None:
        self._open.pop()
        rec["end"] = time.perf_counter()

    def span(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if counts is not None:
                rec.update(counts(result))
                rec["book"] = time.perf_counter() - rec["end"]
            return result

        return traced

    def aggregate(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            rec = self._aggregates.get((self.command, parent, name))
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            stop = time.perf_counter()
            if rec is None:
                rec = {"name": name, "command": self.command, "parent": parent,
                       "start": start, "end": stop, "book": 0.0, "busy": 0.0, "calls": 0}
                self._aggregates[self.command, parent, name] = rec
                self.spans.append(rec)
            rec["end"] = stop
            rec["busy"] += stop - start
            rec["calls"] += 1
            if counts is not None:
                for key, value in counts(result).items():
                    rec[key] = rec.get(key, 0) + value
            return result

        return traced

    def sort(self, name: str, key_fn):
        """A ``sorted`` that opens a span whenever it sorts by ``key_fn``."""

        def traced_sorted(iterable, /, *, key=None, reverse=False):
            if key is not key_fn:
                return builtins.sorted(iterable, key=key, reverse=reverse)
            calls = 0

            def counted(item):
                nonlocal calls
                calls += 1
                return key_fn(item)

            rec = self.begin(name)
            try:
                return builtins.sorted(iterable, key=counted, reverse=reverse)
            finally:
                self.end(rec)
                rec["calls"] = calls

        return traced_sorted


def _enumeration_counts(found) -> dict:
    # BFS round d turns the dimension-d ideals into the dimension-(d+1) ones,
    # so the rounds are the top dimension and the frontiers the layer sizes.
    layers = Counter(ideal.dimension for ideal in found)
    return {"ideals": len(found), "bfs_rounds": max(layers, default=0),
            "max_frontier": max(layers.values(), default=0)}


def _kernel_counts(classification) -> dict:
    entries = classification.entries
    return {"entries": len(entries), "distinct_kernels": len({e.kernel.vectors for e in entries})}


def install(tracer: Tracer):
    """Rebind the traced functions in every module that holds them; returns the undo."""
    from borelideals import cli, ideals, lattice, roots, subalgebras

    traced = [
        tracer.span("roots.root_system", roots.root_system,
                    lambda rs: {"positive_roots": len(rs.positive_roots)}),
        tracer.span("ideals.enumerate", ideals.enumerate_nilradical_ideals, _enumeration_counts),
        tracer.span("ideals.abelian_ideals", ideals.abelian_ideals),
        tracer.aggregate("ideals.is_abelian", ideals.is_abelian, lambda kept: {"kept": int(kept)}),
        tracer.aggregate("ideals.render", ideals.ideal_ascii),
        tracer.span("ideals.classify", ideals.full_ideal_classification, _kernel_counts),
        tracer.span("lattice.build", lattice.build_lattice,
                    lambda lat: {"cover_edges": len(lat.cover_edges)}),
        tracer.span("lattice.counts", lattice.counts_by_dimension),
        tracer.span("lattice.dot", lattice.export_dot),
    ] + [
        tracer.span(f"subalgebras.{fn.__name__}", fn)
        for fn in (subalgebras.monomial_subalgebra, subalgebras.monomial_normalizer,
                   subalgebras.monomial_centralizer, subalgebras.is_monomial_subalgebra)
    ]
    by_id = {id(wrapper.__wrapped__): wrapper for wrapper in traced}
    traced_sorted = tracer.sort("ideals.sort", ideals.ideal_sort_key)
    originals = []
    for module in (cli, ideals, lattice, roots, subalgebras):
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                originals.append((module, attr, value))
                setattr(module, attr, by_id[id(value)])
        module.sorted = traced_sorted

    def restore() -> None:
        for module, attr, value in originals:
            setattr(module, attr, value)
        for module in (cli, ideals, lattice, roots, subalgebras):
            del module.sorted

    return restore


def run_command(cli, cmd: workloads.Command) -> tuple[int, str]:
    """Exit status and stdout of one command run in process."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        status = cli.run(list(cmd.argv))
    return status, sink.getvalue()


def check(cmd: workloads.Command, status: int, stdout: bytes) -> str | None:
    digest = cmd.digest()
    digest.update(stdout)
    return cmd.check(status, digest)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""

    def duration(rec):
        return rec["busy"] if "busy" in rec else rec["end"] - rec["start"]

    covered = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += duration(rec) + rec["book"]
    m: dict[str, float] = {name: 0.0 for name in set(SELF_TIME.values())}
    for i, rec in enumerate(spans):
        m[SELF_TIME[rec["name"]]] += duration(rec) - covered[i]

    def total(name, key):
        return sum(rec.get(key, 0) for rec in spans if rec["name"] == name)

    enumerate_s = sum(duration(r) for r in spans if r["name"] == "ideals.enumerate")
    abelian_calls = total("ideals.is_abelian", "calls")
    distinct = total("ideals.classify", "distinct_kernels")
    runs = {i for i, rec in enumerate(spans) if rec["name"] == "cli.run"}
    m.update({
        "roots.positive_roots": total("roots.root_system", "positive_roots"),
        "ideals.ideals": total("ideals.enumerate", "ideals"),
        "ideals.bfs_rounds": total("ideals.enumerate", "bfs_rounds"),
        "ideals.max_frontier": max((r["max_frontier"] for r in spans if "max_frontier" in r), default=0),
        "ideals.ideals_per_s": total("ideals.enumerate", "ideals") / enumerate_s if enumerate_s else 0.0,
        "ideals.is_abelian_calls": abelian_calls,
        "ideals.abelian_kept_ratio": total("ideals.is_abelian", "kept") / abelian_calls if abelian_calls else 0.0,
        "ideals.sort_key_calls": total("ideals.sort", "calls"),
        "ideals.render_calls": total("ideals.render", "calls"),
        "ideals.distinct_kernels": distinct,
        "ideals.kernel_reuse": total("ideals.classify", "entries") / distinct if distinct else 0.0,
        "lattice.cover_edges": total("lattice.build", "cover_edges"),
        "subalgebras.queries": sum(
            1 for r in spans if r["name"].startswith("subalgebras.") and r["parent"] in runs
        ),
        "cli.run_s": sum(m[name] for name in set(SELF_TIME.values())),
    })
    return m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from borelideals import cli

    cmds = workloads.commands(args.workload, args.seed)
    tracer = Tracer()
    failures = []
    untraced_s = 0.0
    bytes_out = 0
    # Each command runs untraced, then traced, so that the two runs of the
    # overhead difference are as close in time as they can be.
    for i, cmd in enumerate(cmds):
        start = time.perf_counter()
        status, out = run_command(cli, cmd)
        untraced_s += time.perf_counter() - start
        reason = check(cmd, status, out.encode())
        if reason:
            failures.append({"pass": "untraced", "command": cmd.text, "reason": reason})

        tracer.command = i
        restore = install(tracer)
        rec = tracer.begin("cli.run")
        try:
            status, out = run_command(cli, cmd)
        finally:
            tracer.end(rec)
            restore()
        out = out.encode()
        bytes_out += len(out)
        reason = check(cmd, status, out)
        if reason:
            failures.append({"pass": "traced", "command": cmd.text, "reason": reason})

    metrics = layer_metrics(tracer.spans)
    traced_s = sum(r["end"] - r["start"] for r in tracer.spans if r["name"] == "cli.run")
    metrics.update({
        "cli.bytes_out": bytes_out,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    json.dump({"attempted": 2 * len(cmds), "failures": failures, "metrics": metrics,
               "spans": tracer.spans}, sys.stdout)
    print()


if __name__ == "__main__":
    main()
