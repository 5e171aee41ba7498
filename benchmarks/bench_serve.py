#!/usr/bin/env python
"""Benchmark the serving layer on a repeated-workload trace.

Replays a trace of coloring jobs drawn from a small set of distinct
(graph, config) pairs — the redundant-traffic shape the cache and the
in-flight dedup exist for — through an in-process
:class:`repro.serve.ColoringService`, and compares against paying a full
``execute()`` per job.  Writes ``BENCH_serve.json`` at the repository
root::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full trace
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI smoke

Both sides are timed ``REPEATS`` times and report their median; every
served repetition runs on a fresh service, so each one starts with an
empty cache.

``--check BASELINE.json`` gates regressions the way
``bench_kernels.py`` does: the served/direct *speedup ratio* (robust
across machines, unlike wall times) must stay above half its recorded
value, the number of real ``execute`` calls must equal the number of
distinct pairs, and every other job must be a cache or dedup hit —
any other count means the content-addressed cache broke.

This file is a CLI script, not a pytest benchmark — the pytest smoke
coverage lives in ``tests/test_bench_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.graph import erdos_renyi_graph, rmat_graph  # noqa: E402
from repro.run import RunConfig, execute  # noqa: E402
from repro.serve import ColoringService  # noqa: E402


def _mixed_ff(small: bool):
    graphs = ([erdos_renyi_graph(2_000, 2e-3, seed=1), rmat_graph(10, 8, seed=2)]
              if small else
              [erdos_renyi_graph(5_000, 8e-4, seed=1), rmat_graph(12, 8, seed=2)])
    return [(g, RunConfig("greedy-ff", seed=s)) for g in graphs for s in range(5)]


def _superstep_vff(small: bool):
    g = erdos_renyi_graph(1_000, 4e-3, seed=3) if small else \
        erdos_renyi_graph(3_000, 1.5e-3, seed=3)
    return [(g, RunConfig("vff", mode="superstep", threads=4, seed=s))
            for s in range(2)]


# (name, pair factory, trace repeats per pair)
WORKLOADS = [
    ("mixed_ff_10x", _mixed_ff, 10),
    ("superstep_vff_10x", _superstep_vff, 10),
]

#: Jobs submitted per scheduling round — the batch shape the dedup sees.
CHUNK = 10

#: Timed repetitions of each side; the row reports their medians.
REPEATS = 3


def build_trace(pairs, repeats: int):
    """Shuffle `repeats` copies of every pair into one deterministic trace."""
    trace = [pair for pair in pairs for _ in range(repeats)]
    order = np.random.default_rng(0).permutation(len(trace))
    return [trace[i] for i in order]


def bench_workload(name, pairs, repeats: int) -> dict:
    """Serve one trace; return the result row (timings, ratios, counters)."""
    trace = build_trace(pairs, repeats)

    direct, served = [], []
    for _ in range(REPEATS):
        # direct cost: one execute per distinct pair, scaled to the trace —
        # what the same traffic costs with no serving layer
        t0 = time.perf_counter()
        for graph, config in pairs:
            execute(graph, config)
        direct.append((time.perf_counter() - t0) * (len(trace) / len(pairs)))
        service = ColoringService()
        t0 = time.perf_counter()
        for start in range(0, len(trace), CHUNK):
            for graph, config in trace[start:start + CHUNK]:
                service.submit(graph, config)
            service.process()
        served.append(time.perf_counter() - t0)
        sched = service.stats()["scheduler"]
        assert sched["resolved"] == len(trace), "service lost jobs"
    direct_s, served_s = statistics.median(direct), statistics.median(served)
    row = {
        "workload": name,
        "jobs": len(trace),
        "distinct": len(pairs),
        "direct_s": round(direct_s, 6),
        "served_s": round(served_s, 6),
        "throughput_jobs_s": round(len(trace) / served_s, 3),
        "speedup": round(direct_s / served_s, 3),
        "executed": sched["executed"],
        "cache_hits": sched["cache_hits"],
        "dedup_hits": sched["dedup_hits"],
        "hit_rate": round(
            (sched["cache_hits"] + sched["dedup_hits"]) / len(trace), 4),
    }
    print(f"{name:>20}  {row['jobs']:4d} jobs / {row['distinct']:2d} distinct  "
          f"direct {direct_s:7.3f}s  served {served_s:7.3f}s  "
          f"{row['speedup']:6.2f}x  hit-rate {row['hit_rate']:.2%}",
          flush=True)
    return row


def check_against_baseline(results, baseline_path: Path) -> int:
    """Return 1 on regression: speedup halved, or cache/dedup counts off."""
    baseline = json.loads(baseline_path.read_text())
    recorded = {r["workload"]: r for r in baseline["results"]}
    failures = []
    for row in results:
        base = recorded.get(row["workload"])
        if base is None:
            continue
        if row["executed"] != row["distinct"]:
            failures.append(
                f"{row['workload']}: {row['executed']} execute calls for "
                f"{row['distinct']} distinct pairs — cache/dedup broken"
            )
        # every job beyond the first sight of a pair must hit cache or dedup
        hits = row["cache_hits"] + row["dedup_hits"]
        if hits != row["jobs"] - row["distinct"]:
            failures.append(
                f"{row['workload']}: {hits} cache/dedup hits for "
                f"{row['jobs']} jobs over {row['distinct']} pairs"
            )
        # normalize by the trace's speedup cap (jobs/distinct) so quick and
        # full traces compare on the same scale: efficiency ≈ 1.0 means the
        # serving layer adds no overhead over the unavoidable executes
        efficiency = row["speedup"] * row["distinct"] / row["jobs"]
        base_eff = base["speedup"] * base["distinct"] / base["jobs"]
        floor = base_eff / 2.0
        if efficiency < floor:
            failures.append(
                f"{row['workload']}: efficiency {efficiency:.2f} < floor "
                f"{floor:.2f} (baseline {base_eff:.2f}; speedup "
                f"{row['speedup']:.2f}x over {row['jobs']} jobs / "
                f"{row['distinct']} pairs)"
            )
    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 1
    print(f"baseline check OK ({len(results)} workloads)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller graphs and traces (CI smoke)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_serve.json",
                        help="output JSON path")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="compare against a recorded baseline; exit 1 on "
                        ">2x speedup regression, or execute and hit counts "
                        "that differ from the trace's")
    args = parser.parse_args(argv)

    results = []
    for name, factory, repeats in WORKLOADS:
        pairs = factory(small=args.quick)
        results.append(bench_workload(name, pairs,
                                      repeats if not args.quick else 5))

    payload = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "chunk": CHUNK,
            "python": sys.version.split()[0],
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        return check_against_baseline(results, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
