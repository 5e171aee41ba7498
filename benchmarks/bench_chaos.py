#!/usr/bin/env python
"""Chaos soak for the supervised serving layer.

Drives an in-process :class:`repro.serve.ColoringService` through two
fault campaigns and verifies the robustness invariants the supervision
layer exists for — not throughput:

- ``io_chaos`` — a durable service under an IO fault plan (injected
  store-transition failures): every job must still finish with a proper
  coloring, and a restart must serve every persisted result, payload
  included, without re-executing it.
- ``crash_restart`` — jobs interrupted mid-flight by a hard stop: the
  next life must re-admit exactly the interrupted jobs and re-execute
  nothing that already persisted.

Writes ``BENCH_chaos.json`` at the repository root::

    python benchmarks/bench_chaos.py            # full soak
    python benchmarks/bench_chaos.py --quick    # CI smoke

``--check BASELINE.json`` gates on invariants and exact counts only:
zero acknowledged-job loss, zero improper colorings, zero re-executions
of persisted results (read from the scheduler's ``executed`` count), at
least one injected fault and no fewer than the campaign's recorded
count, exactly the interrupted jobs re-admitted, and recovery within
``RECOVERY_ROUND_CAP`` rounds.  Wall times are reported but never gated.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import gates
from repro.coloring.verify import is_proper
from repro.graph import erdos_renyi_graph
from repro.run import RunConfig
from repro.serve import ColoringService

#: Hard ceiling on post-fault drain rounds before a campaign is declared
#: stuck.  Generous: a healthy drain takes a handful of rounds.
RECOVERY_ROUND_CAP = 50


def _audit(jobs, graphs) -> tuple[int, int, float]:
    """(lost, improper, worst balance RSD%) over a finished job list."""
    lost = sum(1 for j in jobs if not j.finished)
    improper = 0
    worst_rsd = 0.0
    for job in jobs:
        if job.status != "done" or job.result is None:
            continue
        coloring = job.result.coloring
        if not is_proper(graphs[id(job.graph)], coloring):
            improper += 1
        if job.result.balance is not None:
            worst_rsd = max(worst_rsd, job.result.balance.rsd_percent)
    return lost, improper, worst_rsd


def _process_rounds(svc) -> int:
    """Drain *svc*'s queue on this thread; return the scheduler rounds taken."""
    before = svc.scheduler.stats()["rounds"]
    svc.process()
    return svc.scheduler.stats()["rounds"] - before


def run_io_chaos(quick: bool) -> dict:
    """Durable service under storeerr faults + restart."""
    n = 1_000 if quick else 3_000
    graphs = [erdos_renyi_graph(n, 4.0 / n, seed=s) for s in (1, 2)]
    by_id = {id(g): g for g in graphs}
    jobs_per_graph = 4 if quick else 8
    # With workers=1 a round marks every job running before it finishes
    # any, so transitions 0..jobs-1 are the running writes and all five
    # faults land there, as the old storeerr@r0x3 did: each such row stays
    # pending until its done write, which carries the result.  A failed
    # done write is covered by test_serve_durable.py instead.
    plan = "storeerr@r0x3;storeerr@r4x2"

    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as tmp:
        root = Path(tmp) / "store"
        t0 = time.perf_counter()
        svc = ColoringService(store=root, fault_plan=plan)
        jobs = [svc.submit(g, RunConfig("vff", seed=s))
                for g in graphs for s in range(jobs_per_graph)]
        recovery_rounds = _process_rounds(svc)
        lost, improper, worst_rsd = _audit(jobs, by_id)
        store_injected = getattr(svc.store, "injected", 0)
        store_errors = svc.queue.stats()["store_errors"]
        done_ids = [j.id for j in jobs if j.status == "done"]
        svc.stop()

        # restart with no faults: persisted verdicts must come back
        # without a single re-execution
        svc2 = ColoringService(store=root)
        restored = [svc2.result(job_id) for job_id in done_ids]
        missing = sum(1 for j in restored if j is None
                      or j.status != "done" or j.result is None)
        reexecuted = svc2.stats()["scheduler"]["executed"]
        svc2.stop()
        wall_s = time.perf_counter() - t0

    return {
        "campaign": "io_chaos",
        "jobs": len(jobs),
        "lost": lost + missing,
        "improper": improper,
        "faults_injected": store_injected,
        "reexecuted": reexecuted,
        "recovery_rounds": recovery_rounds,
        "store_errors": store_errors,
        "worst_rsd_percent": round(worst_rsd, 3),
        "wall_s": round(wall_s, 3),
    }


def run_crash_restart(quick: bool) -> dict:
    """Hard-stop with jobs mid-flight; next life must not lose or redo."""
    n = 1_000 if quick else 2_000
    graph = erdos_renyi_graph(n, 4.0 / n, seed=21)
    finished = 3 if quick else 6
    interrupted = 2 if quick else 4

    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as tmp:
        root = Path(tmp) / "store"
        t0 = time.perf_counter()
        svc = ColoringService(store=root)
        done_jobs = [svc.submit(graph, RunConfig("vff", seed=s))
                     for s in range(finished)]
        svc.process()
        victims = [svc.submit(graph, RunConfig("vff", seed=100 + s))
                   for s in range(interrupted)]
        for job in svc.queue.take_batch(interrupted):
            svc.queue.mark_running(job)  # dispatched, never finished
        svc.store.close()  # hard crash: no stop(), no draining

        svc2 = ColoringService(store=root)
        requeued = svc2.recovered["requeued"]
        recovery_rounds = _process_rounds(svc2)
        redone = [svc2.result(j.id) for j in victims]
        kept = [svc2.result(j.id) for j in done_jobs]
        reexecuted = svc2.stats()["scheduler"]["executed"] - len(victims)
        lost = sum(1 for j in redone + kept
                   if j is None or j.status != "done")
        improper = sum(
            1 for j in redone
            if j.result is not None
            and not is_proper(graph, j.result.coloring))
        svc2.stop()
        wall_s = time.perf_counter() - t0

    return {
        "campaign": "crash_restart",
        "jobs": finished + interrupted,
        "lost": lost,
        "improper": improper,
        "faults_injected": interrupted,  # each interruption is one fault
        "reexecuted": max(0, reexecuted),
        "recovery_rounds": recovery_rounds,
        "requeued": requeued,
        "expected_requeued": interrupted,
        "wall_s": round(wall_s, 3),
    }


def run(args) -> list[dict]:
    rows = []
    for campaign in (run_io_chaos, run_crash_restart):
        row = campaign(args.quick)
        rows.append(row)
        print(f"{row['campaign']:>15}  {row['jobs']:3d} jobs  "
              f"{row['faults_injected']:2d} faults  lost {row['lost']}  "
              f"improper {row['improper']}  reexec {row['reexecuted']}  "
              f"{row['wall_s']:7.2f}s", flush=True)
    return rows


def key(row) -> str:
    return row["campaign"]


def gate(row, base) -> list[str]:
    failures = []
    if row["lost"]:
        failures.append(f"{row['lost']} acknowledged jobs lost")
    if row["improper"]:
        failures.append(f"{row['improper']} improper colorings")
    if row["reexecuted"]:
        failures.append(f"{row['reexecuted']} persisted results re-executed "
                        "after restart")
    if row["recovery_rounds"] >= RECOVERY_ROUND_CAP:
        failures.append(f"recovery hit the {RECOVERY_ROUND_CAP}-round cap — "
                        "queue never drained")
    if row["faults_injected"] < max(1, base["faults_injected"]):
        failures.append(f"{row['faults_injected']} faults injected, recorded "
                        f"{base['faults_injected']} — the soak stopped soaking")
    if row.get("requeued") != row.get("expected_requeued"):
        failures.append(f"{row['requeued']} jobs requeued, expected "
                        f"{row['expected_requeued']} — recovery edge broken")
    return failures


if __name__ == "__main__":
    raise SystemExit(gates.main(
        "chaos", __doc__, run, key, gate,
        meta={"recovery_round_cap": RECOVERY_ROUND_CAP}))
