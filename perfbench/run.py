"""End-to-end and per-layer benchmark of the repro coloring system.

Run from the repository root::

    python3 perfbench/run.py --workload solve_seq --seed 1 --seconds 20 --trace 0

Workloads: ``solve_seq`` and ``solve_mp`` (a closed loop of
``repro.run.execute`` calls) and ``serve_mix`` (an open loop through the
HTTP front's routing core).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs with the layer tracer installed and prints the
per-layer metrics.  Every coloring is verified; the last line of output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

# numpy asks the kernel for transparent huge pages on large arrays, and
# whether it gets them depends on memory fragmentation: on a 2-core VM
# that swung the same job by +-20% from run to run.  Without them jobs
# ran ~15% slower and within 5%.  numpy reads this when first imported.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve_seq", "solve_mp", "serve_mix")

#: Per-layer metrics (``--trace 1``) with their units; every workload
#: prints all of them, 0 where a layer does no work on that workload.
PER_LAYER = {
    "setup.graphs_s": "s", "setup.prewarm_s": "s", "setup.service_s": "s",
    "setup.warmup_s": "s",
    "graph.build_s": "s", "graph.build.calls": "count",
    "graph.fingerprint_s": "s",
    "run.execute_s": "s", "run.initial_s": "s", "run.strategy_s": "s",
    "run.verify_s": "s", "resilience.verify_s": "s", "coloring.verify_s": "s",
    "kernels.ff_sweep_s": "s", "kernels.ff_sweep.calls": "count",
    "kernels.ff_sweep.edges": "count",
    "kernels.shuffle_drain_s": "s", "kernels.shuffle_drain.moves": "count",
    "kernels.d2_sweep_s": "s", "kernels.d2_conflicts_s": "s",
    "kernels.detect_conflicts_s": "s",
    "bipartite.balance_s": "s", "bipartite.mp_s": "s",
    "bipartite.rounds": "count", "bipartite.conflicts": "count",
    "bipartite.drain_moves": "count",
    "parallel.mp_s": "s", "parallel.mp.rounds": "count",
    "parallel.mp.conflicts": "count", "parallel.mp.bytes_to_workers": "bytes",
    "parallel.mp.useful_frac": "frac",
    "shm.pool.ensure_s": "s", "shm.pool.cold_starts": "count",
    "shm.publish_s": "s",
    "serve.api.submit_s": "s", "serve.queue.admit_s": "s",
    "serve.queue.wait_ms": "ms", "serve.cache.get_s": "s",
    "serve.cache.hit_frac": "frac", "serve.cache.put_s": "s",
    "serve.store.transition_s": "s", "serve.store.transitions": "count",
    "serve.backend.run_s": "s",
    "serve.scheduler.rounds": "count", "serve.scheduler.executed": "count",
    "serve.scheduler.dedup_hits": "count", "serve.scheduler.failures": "count",
    "serve.scheduler.readmitted": "count",
    "serve.gen.late_ms": "ms", "serve.gen.late_max_ms": "ms",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac", "trace.unattributed_s": "s",
    "res.shm_segments.before": "count", "res.shm_segments.after": "count",
    "res.threads.before": "count", "res.threads.after": "count",
    "res.fds.before": "count", "res.fds.after": "count",
    "res.jobs_held.before": "count", "res.jobs_held.after": "count",
    "host.probe_ms": "ms",
    **{f"mp_vs_seq.{name}.{strategy}{suffix}": unit
       for name, strategy in (("uk2002", "greedy-ff"), ("copapers", "greedy-ff"),
                              ("channel", "greedy-ff"), ("cnr", "greedy-ff"),
                              ("jacrand", "d2-optimistic"),
                              ("jacrand", "d2-balanced"))
       for suffix, unit in (("", "ratio"), (".seq_ms", "ms"))},
}


def _layer_metrics(tracer, results, window: tuple[float, float]) -> dict:
    """Self times and counts from one traced unit of work."""
    out: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        if name + "_s" in PER_LAYER:
            out[name + "_s"] = seconds
    for name, value in tracer.counts.items():
        if name in PER_LAYER:
            out[name] = value
    for key in ("initial", "strategy", "verify"):
        out[f"run.{key}_s"] = sum(r.wall_s[key] for r in results)
    mp_n = mp_conflicts = 0
    for r in results:
        meta = r.coloring.meta
        if r.config.mode == "mp" and r.config.strategy == "greedy-ff":
            out["parallel.mp.rounds"] = out.get("parallel.mp.rounds", 0) + meta["rounds"]
            mp_conflicts += meta["conflicts"]
            mp_n += r.coloring.num_vertices
            out["parallel.mp.bytes_to_workers"] = (
                out.get("parallel.mp.bytes_to_workers", 0)
                + meta.get("bytes_to_workers", 0))
        elif r.config.strategy.startswith("d2-"):
            for key, name in (("rounds", "bipartite.rounds"),
                              ("conflicts", "bipartite.conflicts"),
                              ("moves", "bipartite.drain_moves")):
                out[name] = out.get(name, 0) + meta.get(key, 0)
    if mp_n:
        out["parallel.mp.conflicts"] = mp_conflicts
        out["parallel.mp.useful_frac"] = mp_n / (mp_n + mp_conflicts)
    start, end = window
    wall = end - start
    covered = tracer.covered_s(start, end)
    out["trace.wall_s"] = wall
    out["trace.coverage_frac"] = covered / wall
    out["trace.unattributed_s"] = wall - covered
    return out


def _solve(args, mode: str) -> tuple[dict, object]:
    from common import median, probe
    from solve import SolveWorkload
    from tracer import Tracer

    work = SolveWorkload(mode, args.seed)
    if not args.trace:
        setup_s = work.setup()
        return work.end_to_end(setup_s, args.seconds), work

    from repro.shm import warm_pool

    # layer metrics are raw seconds: the trace splits one pass, and the
    # split is read within the run, where host speed is one factor
    tracer = Tracer()
    tracer.install()
    layer = {"setup.graphs_s": work.build_inputs()}
    tracer.uninstall()
    layer["setup.prewarm_s"] = work.prewarm()
    layer["setup.warmup_s"] = sum(work.run_pass(check_against=False).raw_s)
    passes = work.measure(args.seconds / 3)
    work.tracer = tracer
    tracer.install()
    try:
        start = perf_counter()
        traced = work.run_pass()
        end = perf_counter()
    finally:
        tracer.uninstall()
        work.tracer = None
    layer.update(_layer_metrics(tracer, traced.results, (start, end)))
    wall = sum(traced.raw_s)
    untraced = median(sum(p.raw_s) for p in passes)
    layer["trace.overhead_s"] = wall - untraced
    layer["trace.overhead_frac"] = wall / untraced - 1
    layer["shm.pool.cold_starts"] = warm_pool().stats()["cold_starts"]
    print(f"# traced pass {wall:.3f} s vs untraced {untraced:.3f} s; layers "
          f"cover {layer['trace.coverage_frac']:.1%}, unattributed "
          f"{layer['trace.unattributed_s']:.3f} s")
    if mode == "mp":
        layer.update({k: v for k, (v, _) in work.twin_report(passes).items()})
    layer["host.probe_ms"] = median(probe() for _ in range(20)) * 1e3
    return {k: (v, PER_LAYER[k]) for k, v in layer.items()}, work


def _serve(args) -> tuple[dict, object]:
    from serve_mix import ServeMix, make_schedule
    from tracer import Tracer

    from common import median, resource_counters

    mix = ServeMix(ROOT, args.seed)
    try:
        if not args.trace:
            setup_s = mix.setup()
            return mix.end_to_end(setup_s, args.seconds), mix
        # the same schedule twice on fresh services: untraced, then traced
        schedule = make_schedule(args.seed, args.seconds / 2)
        service, opened, warmed = mix.open_service()
        layer = {"setup.service_s": opened, "setup.warmup_s": warmed}
        mix.run_schedule(service, schedule)
        mix.verify(service, schedule)
        untraced = median(r.latency_ms for r in schedule if r.latency_ms)
        mix.close(service)

        service, _, _ = mix.open_service()
        before = resource_counters(service)
        schedule = make_schedule(args.seed, args.seconds / 2)
        tracer = Tracer().install()
        try:
            facts = mix.run_schedule(service, schedule, tracer)
        finally:
            tracer.uninstall()
        after = resource_counters(service)
        mix.late_ok(schedule)
        mix.verify(service, schedule)
        computed = [service.result(r.job_id).result for r in schedule
                    if r.source == "computed"]
        layer.update(_layer_metrics(tracer, computed,
                                    (facts["base_perf"], facts["end_perf"])))
        traced = median(r.latency_ms for r in schedule if r.latency_ms)
        layer["trace.overhead_s"] = (traced - untraced) / 1e3
        layer["trace.overhead_frac"] = traced / untraced - 1
        print(f"# traced median latency {traced:.2f} ms vs untraced "
              f"{untraced:.2f} ms; layers cover "
              f"{layer['trace.coverage_frac']:.1%} of the schedule")
        stats = service.stats()
        sched, cache = stats["scheduler"], stats["cache"]
        for key in ("rounds", "executed", "dedup_hits", "failures", "readmitted"):
            layer[f"serve.scheduler.{key}"] = sched[key]
        gets = cache["hits"] + cache["misses"]
        layer["serve.cache.hit_frac"] = cache["hits"] / gets if gets else 0.0
        if tracer.queue_wait_ms:
            layer["serve.queue.wait_ms"] = median(tracer.queue_wait_ms)
        late = [r.sent_late_ms for r in schedule]
        layer["host.probe_ms"] = median(v for _, v in facts["probes"]) * 1e3
        layer["serve.gen.late_ms"] = median(late)
        layer["serve.gen.late_max_ms"] = max(late)
        for key in before:
            layer[f"res.{key}.before"] = before[key]
            layer[f"res.{key}.after"] = after[key]
        return {k: (v, PER_LAYER[k]) for k, v in layer.items()}, mix
    finally:
        mix.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from common import provenance, stop_children

    try:
        if args.workload == "serve_mix":
            metrics, work = _serve(args)
        else:
            metrics, work = _solve(args, "mp" if args.workload == "solve_mp"
                                   else "sequential")
        if args.trace:
            metrics = {name: metrics.get(name, (0, unit))
                       for name, unit in PER_LAYER.items()}
        else:
            print("# setup phases (s): " + json.dumps(work.phases))
        print("# provenance "
              + json.dumps(provenance(ROOT, args.seed, work.inputs)))
    finally:
        stop_children()  # every child has ended before the result line
    for line in work.violations[:20]:
        print(f"# FAILED {line}")
    failed = len(work.violations)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": work.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
