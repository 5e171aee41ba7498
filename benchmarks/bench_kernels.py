#!/usr/bin/env python
"""Time each kernel's C tier against its Python oracle and record speedups.

Runs the First-Fit sweep and both shuffle-drain traversals on RMAT,
Erdős–Rényi and preferential-attachment graphs between 10^4 and 10^6
edges, then writes ``BENCH_kernels.json`` at the repository root::

    python benchmarks/bench_kernels.py            # full sweep
    python benchmarks/bench_kernels.py --quick    # CI smoke

Each job runs inside ``kernels.use_backend("reference")`` (the
``reference_s`` column: the Python oracle) and inside the default tier
(``vectorized_s``), the two interleaved, each column the median of
``REPEATS``.  Each row's ``tier`` names what the default tier ran: the
compiled C loops when the library of :mod:`repro.kernels.compiled` loads
(``compiled``), the reference Python loops otherwise (``reference``).
Both tiers give the same coloring.

The report starts with the layout of the loaded library: each exported
C loop's offset and that offset mod 64 (from ``nm -D``, or
"unavailable" when ``nm`` is not on ``PATH``), so a timing that moves
with the code layout shows which loops moved.

``--check BASELINE.json`` fails a row whose reference/default speedup
fell below half the recorded one: a ratio of two times taken in the
same run, so the check holds across machines.  ``--trace FILE`` archives
the rows and per-graph phase timers as JSON lines.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import gates
from repro import kernels
from repro.kernels import compiled
from repro.coloring import greedy_coloring, shuffle_balance
from repro.obs import NULL, Recorder, write_jsonl
from repro.graph import erdos_renyi_graph, powerlaw_cluster_graph, rmat_graph

# (name, factory) — target edge counts span 10^4 .. 10^6.  The BA
# generator is a Python loop, so it is capped at ~10^5 edges.
FULL_SUITE = [
    ("er_1e4", lambda: erdos_renyi_graph(5_000, 8e-4, seed=1)),
    ("er_1e5", lambda: erdos_renyi_graph(50_000, 8e-5, seed=1)),
    ("er_1e6", lambda: erdos_renyi_graph(500_000, 8e-6, seed=1)),
    ("er_dense_1e6", lambda: erdos_renyi_graph(50_000, 8e-4, seed=1)),
    ("rmat_3e4", lambda: rmat_graph(12, 8, seed=2)),
    ("rmat_1e5", lambda: rmat_graph(14, 8, seed=2)),
    ("rmat_5e5", lambda: rmat_graph(16, 8, seed=2)),
    ("ba_1e5", lambda: powerlaw_cluster_graph(20_000, 5, seed=3)),
]
QUICK_SUITE = [
    ("er_1e4", lambda: erdos_renyi_graph(5_000, 8e-4, seed=1)),
    ("rmat_3e4", lambda: rmat_graph(12, 8, seed=2)),
    ("ba_1e4", lambda: powerlaw_cluster_graph(2_000, 5, seed=3)),
]
REPEATS = 5


def _on(backend, job):
    def run():
        with kernels.use_backend(backend):
            job()
    return run


def bench_graph(name, graph, recorder=NULL):
    """Yield one row per kernel for *graph*; *recorder* gets a per-graph
    phase and one ``bench_row`` event per row (the timed jobs run without
    one)."""
    # loads (or builds, once per machine) the library before any timing
    tier = "reference" if compiled.load() is None else "compiled"
    init = greedy_coloring(graph)
    jobs = {
        "ff_sweep": lambda: greedy_coloring(graph),
        "shuffle_vertex": lambda: shuffle_balance(graph, init, traversal="vertex"),
        "shuffle_color": lambda: shuffle_balance(graph, init, traversal="color"),
    }
    with recorder.phase(f"bench/{name}"):
        for kernel, job in jobs.items():
            ref, vec = gates.timed(_on("reference", job), _on(None, job),
                                   repeats=REPEATS)
            row = {"graph": name, "num_vertices": graph.num_vertices,
                   "num_edges": graph.num_edges, "kernel": kernel, "tier": tier,
                   "reference_s": round(ref, 6), "vectorized_s": round(vec, 6),
                   "speedup": round(ref / vec, 3)}
            print(f"{name:>12}  {kernel:<14} ref {ref:8.4f}s  "
                  f"default {vec:8.4f}s ({tier})  {row['speedup']:7.2f}x",
                  flush=True)
            recorder.event("bench_row", **row)
            yield row


def print_layout() -> None:
    """Print each exported C loop's offset in the loaded library, and the
    offset mod 64 (every loop is built aligned to 64 bytes)."""
    lib, nm = compiled.load(), shutil.which("nm")
    if lib is None or nm is None:
        why = "no nm on PATH" if lib is not None else compiled.failure_reason()
        print(f"kernel layout: unavailable ({why})")
        return
    listing = subprocess.run([nm, "-D", "--defined-only", lib._name],
                             stdout=subprocess.PIPE, text=True).stdout
    offsets = {f[2]: int(f[0], 16) for f in map(str.split, listing.splitlines())
               if len(f) == 3}
    print(f"kernel layout ({Path(lib._name).name}):")
    for name in sorted(compiled.signatures(), key=lambda k: offsets.get(k, -1)):
        at = offsets.get(name)
        print(f"  {name:<16} unavailable" if at is None
              else f"  {name:<16} {at:#08x}  mod 64 = {at % 64}")


def run(args) -> list[dict]:
    recorder = Recorder() if args.trace else NULL
    print_layout()
    rows = [row for name, factory in (QUICK_SUITE if args.quick else FULL_SUITE)
            for row in bench_graph(name, factory(), recorder)]
    if args.trace:
        print(f"archived {write_jsonl(recorder, args.trace)} events to {args.trace}")
    return rows


def key(row) -> str:
    return f"{row['graph']}/{row['kernel']}"


def gate(row, base) -> list[str]:
    floor = base["speedup"] / 2.0
    if row["speedup"] < floor:
        return [f"speedup {row['speedup']:.2f}x < floor {floor:.2f}x "
                f"(baseline {base['speedup']:.2f}x)"]
    return []


if __name__ == "__main__":
    raise SystemExit(gates.main(
        "kernels", __doc__, run, key, gate,
        meta={"repeats": REPEATS},
        options=[("--trace", {"type": Path, "metavar": "FILE",
                              "help": "archive bench events (per-row results, "
                              "per-graph phase timers) as JSON lines to FILE"})]))
