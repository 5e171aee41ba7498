#!/usr/bin/env python
"""Time each kernel's C tier against its Python oracle and record speedups.

Runs the First-Fit sweep and both shuffle-drain traversals on RMAT,
Erdős–Rényi and preferential-attachment graphs between 10^4 and 10^6
edges, then writes ``BENCH_kernels.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke

Each job runs once inside ``kernels.use_backend("reference")`` (the
``reference_s`` column: the Python oracle) and once inside
``kernels.use_backend("vectorized")``.  Each row's ``tier`` names what
its ``vectorized_s`` column timed: the First-Fit sweep and the shuffle
drain as compiled C when the library of :mod:`repro.kernels.compiled`
loads (``compiled``), and as the reference Python loops otherwise
(``reference``).  Both tiers give the same coloring.

The report starts with the layout of the loaded library: each exported
C loop's offset and that offset mod 64 (from ``nm -D``, or
"unavailable" when ``nm`` is not on ``PATH``), so a timing that moves
with the code layout shows which loops moved.

``--check BASELINE.json`` compares the measured vectorized/reference
speedup ratios against a previously recorded baseline and exits non-zero
if any kernel regressed to less than half its recorded speedup.  Ratios,
not wall times, are compared, so the check is robust across machines.

This file is a CLI script, not a pytest benchmark — the pytest smoke
coverage lives in ``tests/test_bench_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import kernels  # noqa: E402
from repro.kernels import compiled  # noqa: E402
from repro.coloring import greedy_coloring, shuffle_balance  # noqa: E402
from repro.obs import NULL, Recorder, write_jsonl  # noqa: E402
from repro.graph import (  # noqa: E402
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    rmat_graph,
)

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


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_graph(name, graph, repeats: int, recorder=NULL):
    """Yield one result row per kernel for *graph*.

    *recorder* (a :class:`repro.obs.Recorder`) gets one ``bench_row``
    event per row inside a per-graph phase timer; the timed jobs
    themselves run without a recorder so the measurements stay clean.
    """
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
            with kernels.use_backend("reference"):
                ref = _best_of(job, repeats)
            with kernels.use_backend("vectorized"):
                vec = _best_of(job, repeats)
            row = {
                "graph": name,
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "kernel": kernel,
                "tier": tier,
                "reference_s": round(ref, 6),
                "vectorized_s": round(vec, 6),
                "speedup": round(ref / vec, 3) if vec > 0 else float("inf"),
            }
            print(
                f"{name:>10}  {kernel:<14} ref {ref:8.4f}s  "
                f"vec {vec:8.4f}s ({row['tier']:<8})  {row['speedup']:6.2f}x",
                flush=True,
            )
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
    proc = subprocess.run([nm, "-D", "--defined-only", lib._name],
                          capture_output=True, text=True)
    offsets = {f[2]: int(f[0], 16) for f in map(str.split, proc.stdout.splitlines())
               if len(f) == 3}
    print(f"kernel layout ({Path(lib._name).name}):")
    for name in sorted(compiled.signatures(), key=lambda k: offsets.get(k, -1)):
        at = offsets.get(name)
        print(f"  {name:<16} unavailable" if at is None
              else f"  {name:<16} {at:#08x}  mod 64 = {at % 64}")


def check_against_baseline(results, baseline_path: Path) -> int:
    """Return 1 if any kernel fell below half its recorded speedup."""
    baseline = json.loads(baseline_path.read_text())
    recorded = {
        (r["graph"], r["kernel"]): r["speedup"] for r in baseline["results"]
    }
    failures = []
    for row in results:
        key = (row["graph"], row["kernel"])
        if key not in recorded:
            continue
        floor = recorded[key] / 2.0
        if row["speedup"] < floor:
            failures.append(
                f"{key[0]}/{key[1]}: speedup {row['speedup']:.2f}x "
                f"< floor {floor:.2f}x (baseline {recorded[key]:.2f}x)"
            )
    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 1
    print(f"baseline check OK ({len(results)} rows)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small graphs only, single repeat (CI smoke)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_kernels.json",
                        help="output JSON path")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="compare speedups against a recorded baseline; "
                        "exit 1 on >2x regression")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per kernel (default 3, quick 1)")
    parser.add_argument("--trace", type=Path, metavar="FILE",
                        help="archive bench events (per-row results, "
                        "per-graph phase timers) as JSON lines to FILE")
    args = parser.parse_args(argv)

    suite = QUICK_SUITE if args.quick else FULL_SUITE
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)
    recorder = Recorder() if args.trace else NULL

    print_layout()
    results = []
    for name, factory in suite:
        graph = factory()
        results.extend(bench_graph(name, graph, repeats, recorder=recorder))

    payload = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "repeats": repeats,
            "backends": list(kernels.BACKENDS),
            "python": sys.version.split()[0],
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.trace:
        lines = write_jsonl(recorder, args.trace)
        print(f"archived {lines} events to {args.trace}")

    if args.check:
        return check_against_baseline(results, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
