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

    PYTHONPATH=src python benchmarks/bench_chaos.py            # full soak
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick    # CI smoke

``--check BASELINE.json`` gates on machine-robust invariants only:
zero acknowledged-job loss, zero improper colorings, at least as many
injected faults as the baseline's floor (and never fewer than 5), zero
re-executions of persisted results, and recovery-round counts within
the recorded bound.  Wall times are reported but never gated.

This file is a CLI script, not a pytest benchmark — the pytest smoke
coverage lives in ``tests/test_bench_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.serve.backends as backends_mod  # noqa: E402
from repro.coloring.verify import is_proper  # noqa: E402
from repro.graph import erdos_renyi_graph  # noqa: E402
from repro.run import RunConfig  # noqa: E402
from repro.serve import ColoringService  # noqa: E402

#: Hard ceiling on post-fault drain rounds before a campaign is declared
#: stuck.  Generous: a healthy drain takes a handful of rounds.
RECOVERY_ROUND_CAP = 50

#: Minimum faults a soak must have actually injected to count as a soak.
MIN_FAULTS = 5


class _CountingExecute:
    """Temporarily wrap ``backends.execute`` to count real executions."""

    def __init__(self):
        self.calls = 0
        self._real = None

    def __enter__(self):
        self._real = backends_mod.execute

        def counting(graph, config, *, initial=None):
            self.calls += 1
            return self._real(graph, config, initial=initial)

        backends_mod.execute = counting
        return self

    def __exit__(self, *exc):
        backends_mod.execute = self._real
        return False


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
        with _CountingExecute() as counter:
            svc2 = ColoringService(store=root)
            restored = [svc2.result(job_id) for job_id in done_ids]
            missing = sum(1 for j in restored if j is None
                          or j.status != "done" or j.result is None)
            reexecuted = counter.calls
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

        with _CountingExecute() as counter:
            svc2 = ColoringService(store=root)
            requeued = svc2.recovered["requeued"]
            recovery_rounds = _process_rounds(svc2)
            redone = [svc2.result(j.id) for j in victims]
            kept = [svc2.result(j.id) for j in done_jobs]
            reexecuted = counter.calls - len(victims)
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


CAMPAIGNS = [run_io_chaos, run_crash_restart]


def check_against_baseline(results, baseline_path: Path) -> int:
    """Return 1 when a robustness invariant broke.

    Everything gated here is deterministic or machine-independent:
    job-loss and improper-coloring counts must be exactly zero, fault
    injection must meet the recorded floor, persisted results must never
    re-execute, and recovery must stay within the recorded round bound.
    """
    baseline = json.loads(baseline_path.read_text())
    recorded = {r["campaign"] for r in baseline["results"]}
    failures = []
    total_faults = 0
    for row in results:
        name = row["campaign"]
        if name not in recorded:
            failures.append(f"{name}: campaign missing from baseline")
        total_faults += row["faults_injected"]
        if row["lost"]:
            failures.append(f"{name}: {row['lost']} acknowledged jobs lost")
        if row["improper"]:
            failures.append(f"{name}: {row['improper']} improper colorings")
        if row["reexecuted"]:
            failures.append(f"{name}: {row['reexecuted']} persisted results "
                            "re-executed after restart")
        if row["recovery_rounds"] >= RECOVERY_ROUND_CAP:
            failures.append(f"{name}: recovery hit the {RECOVERY_ROUND_CAP}-"
                            "round cap — queue never drained")
        # quick and full runs inject different absolute counts, so the
        # per-campaign floor is existential; the total is gated below
        if row["faults_injected"] < 1:
            failures.append(f"{name}: no faults injected — the soak "
                            "stopped soaking")
        if "expected_requeued" in row and \
                row.get("requeued") != row["expected_requeued"]:
            failures.append(
                f"{name}: {row.get('requeued')} jobs requeued, expected "
                f"{row['expected_requeued']} — recovery edge broken")
    if total_faults < MIN_FAULTS:
        failures.append(f"total faults {total_faults} < {MIN_FAULTS}")
    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 1
    print(f"baseline check OK ({len(results)} campaigns, "
          f"{total_faults} faults, zero loss)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller graphs and job counts (CI smoke)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_chaos.json",
                        help="output JSON path")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="compare against a recorded baseline; exit 1 "
                        "on any job loss, improper coloring, re-execution, "
                        "missing fault injection, or unbounded recovery")
    args = parser.parse_args(argv)

    results = []
    for campaign in CAMPAIGNS:
        row = campaign(args.quick)
        results.append(row)
        print(f"{row['campaign']:>15}  {row['jobs']:3d} jobs  "
              f"{row['faults_injected']:2d} faults  lost {row['lost']}  "
              f"improper {row['improper']}  reexec {row['reexecuted']}  "
              f"{row['wall_s']:7.2f}s", flush=True)

    payload = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "recovery_round_cap": RECOVERY_ROUND_CAP,
            "min_faults": MIN_FAULTS,
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
