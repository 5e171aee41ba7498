#!/usr/bin/env python
"""Benchmark the serving layer on a repeated-workload trace.

Replays a trace of coloring jobs drawn from a small set of distinct
(graph, config) pairs — the redundant-traffic shape the cache and the
in-flight dedup exist for — through an in-process
:class:`repro.serve.ColoringService`, and compares against paying a full
``execute()`` per job.  Writes ``BENCH_serve.json`` at the repository
root::

    python benchmarks/bench_serve.py            # full trace
    python benchmarks/bench_serve.py --quick    # CI smoke

Both sides are timed ``REPEATS`` times, interleaved, and report their
median; every served repetition runs on a fresh service, so each one
starts with an empty cache.

``--check BASELINE.json`` fails a workload whose served/direct
efficiency (the speedup over its cap, jobs/distinct) fell below half the
recorded one, whose real ``execute`` calls differ from its distinct
pairs, or where a job beyond each pair's first is not a cache or dedup
hit — any other count means the content-addressed cache broke.
"""

from __future__ import annotations

import numpy as np

import gates
from repro.graph import erdos_renyi_graph, rmat_graph
from repro.run import RunConfig, execute
from repro.serve import ColoringService


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


# (name, pair factory, trace repeats per pair in a full run; quick uses 5)
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
    services = []

    def direct():
        for graph, config in pairs:
            execute(graph, config)

    def served():
        services.append(ColoringService())
        for start in range(0, len(trace), CHUNK):
            for graph, config in trace[start:start + CHUNK]:
                services[-1].submit(graph, config)
            services[-1].process()

    # direct cost: one execute per distinct pair, scaled to the trace —
    # what the same traffic costs with no serving layer
    direct_s, served_s = gates.timed(direct, served, repeats=REPEATS)
    direct_s *= len(trace) / len(pairs)
    stats = [service.stats()["scheduler"] for service in services]
    assert all(s["resolved"] == len(trace) for s in stats), "service lost jobs"
    sched = stats[-1]
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


def run(args) -> list[dict]:
    return [bench_workload(name, factory(small=args.quick),
                           5 if args.quick else repeats)
            for name, factory, repeats in WORKLOADS]


def _efficiency(row) -> float:
    """The speedup over the trace's cap (jobs/distinct): 1.0 means the
    serving layer adds no overhead over the unavoidable executes."""
    return row["speedup"] * row["distinct"] / row["jobs"]


def key(row) -> str:
    return row["workload"]


def gate(row, base) -> list[str]:
    failures = []
    if row["executed"] != row["distinct"]:
        failures.append(f"{row['executed']} execute calls for {row['distinct']} "
                        "distinct pairs — cache/dedup broken")
    # every job beyond the first sight of a pair must hit cache or dedup
    hits = row["cache_hits"] + row["dedup_hits"]
    if hits != row["jobs"] - row["distinct"]:
        failures.append(f"{hits} cache/dedup hits for {row['jobs']} jobs over "
                        f"{row['distinct']} pairs")
    floor = _efficiency(base) / 2.0
    if _efficiency(row) < floor:
        failures.append(
            f"efficiency {_efficiency(row):.2f} < floor {floor:.2f} (baseline "
            f"{_efficiency(base):.2f}; speedup {row['speedup']:.2f}x)")
    return failures


if __name__ == "__main__":
    raise SystemExit(gates.main("serve", __doc__, run, key,
                                gate, meta={"chunk": CHUNK, "repeats": REPEATS}))
