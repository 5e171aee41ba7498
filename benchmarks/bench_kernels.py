#!/usr/bin/env python
"""Time the kernel backends (reference vs vectorized) and record speedups.

Runs the First-Fit sweep and both shuffle-drain traversals on RMAT,
Erdős–Rényi and preferential-attachment graphs between 10^4 and 10^6
edges, then writes ``BENCH_kernels.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke

Each row's ``tier`` names what its ``vectorized_s`` column timed: the
``vectorized`` backend runs the First-Fit sweep as compiled C when the
library of :mod:`repro.kernels.compiled` loads (``compiled``), and as
NumPy rounds otherwise (``numpy``); the shuffle drains always run NumPy.

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
    init = greedy_coloring(graph, backend="reference")
    # loads (or builds, once per machine) the library before any timing
    ff_tier = "numpy" if compiled.load() is None else "compiled"
    jobs = {
        "ff_sweep": lambda be: greedy_coloring(graph, backend=be),
        "shuffle_vertex": lambda be: shuffle_balance(
            graph, init, traversal="vertex", backend=be),
        "shuffle_color": lambda be: shuffle_balance(
            graph, init, traversal="color", backend=be),
    }
    with recorder.phase(f"bench/{name}"):
        for kernel, job in jobs.items():
            ref = _best_of(lambda: job("reference"), repeats)
            vec = _best_of(lambda: job("vectorized"), repeats)
            row = {
                "graph": name,
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "kernel": kernel,
                "tier": ff_tier if kernel == "ff_sweep" else "numpy",
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

    results = []
    for name, factory in suite:
        graph = factory()
        results.extend(bench_graph(name, graph, repeats, recorder=recorder))

    payload = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "repeats": repeats,
            "backends": list(kernels.available_backends()),
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
