"""Optimistic (speculate-and-resolve) partial distance-2 coloring.

Taş/Kaya's *Greed is Good* scheme, ported onto this library's round
machinery: all pending rows are colored speculatively against a snapshot
(races between same-tick rows tolerated), a detection phase finds rows
sharing a column with an equal color, and the losers — resolved by row-id
priority, exactly like the distance-1 conflict rule — are recolored next
round.  Three engines share the protocol:

- :func:`partial_d2_sequential` — one :func:`repro.kernels.d2_sweep` pass
  (both kernel backends are bit-identical);
- :func:`optimistic_partial_d2` — the tick-machine superstep engine in
  this module, instrumented with an
  :class:`~repro.parallel.engine.ExecutionTrace` and guarded by a
  :class:`~repro.resilience.ConvergenceWatchdog`.  With one thread it is
  bit-identical to the sequential sweep (no two rows share a tick, so no
  race can happen);
- :func:`mp_partial_d2` — real concurrent blocks on a thread team: the ``d2``
  neighbourhood of the round driver :func:`repro.parallel.mp.run_rounds`
  (rows split in id order into contiguous blocks, the locality the
  tall-skinny patterns want); its ``inline`` transport is the reference
  the thread team is tested against.

Work units charged to the tick machine are *two-hop touches*: processing
row ``r`` costs ``Σ_{c ∈ cols(r)} deg(c)`` slot reads plus the usual
per-vertex overhead — the dominant cost of the distance-2 kernel.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..obs import as_recorder
from ..parallel.engine import TickMachine
from ..parallel.mp import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_ROUND_TIMEOUT,
    Neighbourhood,
    run_rounds,
)
from ..resilience import DEFAULT_PATIENCE, FaultPlan, resolve_fault_plan
from .graph import BipartiteGraph
from .types import PartialD2Coloring

__all__ = ["d2_work_units", "mp_partial_d2", "optimistic_partial_d2",
           "partial_d2_sequential"]


def d2_work_units(bip: BipartiteGraph) -> np.ndarray:
    """Two-hop expansion size per row (the distance-2 processing cost)."""
    indptr = bip.incidence.indptr
    deg = np.diff(indptr)
    nr = bip.num_rows
    units = np.zeros(nr, dtype=np.int64)
    row_slots = bip.incidence.indices[: indptr[nr]]
    np.add.at(units, np.repeat(np.arange(nr, dtype=np.int64), deg[:nr]),
              deg[row_slots])
    return units


def _row_order(bip: BipartiteGraph, order: np.ndarray | None) -> np.ndarray:
    if order is None:
        return np.arange(bip.num_rows, dtype=np.int64)
    order = np.asarray(order, dtype=np.int64)
    if (order.shape[0] != bip.num_rows
            or not np.array_equal(np.sort(order), np.arange(bip.num_rows))):
        raise ValueError("order must be a permutation of all rows")
    return order


def partial_d2_sequential(
    bip: BipartiteGraph,
    *,
    order: np.ndarray | None = None,
    recorder=None,
) -> PartialD2Coloring:
    """One-sided greedy distance-2 First-Fit over all rows, sequentially.

    *order* (default: row id order) is the processing permutation.  On a
    :meth:`~repro.bipartite.graph.BipartiteGraph.square_cover` in natural
    order this is bit-identical to
    ``greedy_distance2(graph, choice="ff", ordering="natural")``.
    ``recorder`` gets a ``d2-sequential`` phase and one
    ``partial_coloring`` event; attaching one never changes the result.
    """
    rec = as_recorder(recorder)
    work = _row_order(bip, order)
    with rec.phase("d2-sequential"):
        colors = kernels.d2_sweep(bip.incidence, bip.num_rows, work)
    num_colors = int(colors.max(initial=-1)) + 1
    if rec.enabled:
        rec.event("partial_coloring", strategy="d2-sequential",
                  num_rows=bip.num_rows, num_cols=bip.num_cols,
                  num_colors=num_colors, rounds=1, conflicts=0)
        rec.count("bipartite.rows_colored", bip.num_rows)
    return PartialD2Coloring(
        colors, num_colors, strategy="d2-sequential",
        meta={"rounds": 1, "conflicts": 0,
              "backend": kernels.resolve_backend()},
    )


def optimistic_partial_d2(
    bip: BipartiteGraph,
    *,
    num_threads: int = 1,
    order: np.ndarray | None = None,
    max_rounds: int = 200,
    recorder=None,
    fault_plan=None,
    watchdog_patience: int = DEFAULT_PATIENCE,
) -> PartialD2Coloring:
    """Optimistic partial D2 coloring under *num_threads* simulated threads.

    Tick semantics mirror :func:`repro.parallel.greedy.parallel_greedy_ff`
    one hop deeper: the *p* rows of a tick each pick the smallest color
    not held by any row sharing a column *as of the committed snapshot*
    (same-tick peers' pending colors are invisible — the race), writes
    commit at the tick boundary, and the round ends with a distance-2
    detection phase whose losers form the next round's work list.  With
    ``num_threads=1`` the result is bit-identical to
    :func:`partial_d2_sequential`.

    The returned coloring's ``meta["trace"]`` holds the
    :class:`~repro.parallel.engine.ExecutionTrace`; ``recorder`` gets the
    per-superstep events plus a final ``partial_coloring`` event.  A
    :class:`~repro.resilience.ConvergenceWatchdog` degrades the loop to
    one thread if the retry list stops shrinking, and ``fault_plan``
    ``stick`` faults can deterministically waste rounds to exercise it.
    Only the detection runs a kernel; the speculative tick loop is
    per-row by construction (it simulates the races).
    """
    rec = as_recorder(recorder)
    nr = bip.num_rows
    machine = TickMachine(num_threads, algorithm="d2-optimistic")
    indptr, indices = bip.incidence.indptr, bip.incidence.indices
    units = d2_work_units(bip)

    colors = np.full(nr, -1, dtype=np.int64)
    limit = nr + 1
    forbidden = np.full(limit, -1, dtype=np.int64)
    stamp = 0
    work_list = _row_order(bip, order)

    def tick(batch, record):
        nonlocal stamp
        pending = np.empty(batch.shape[0], dtype=np.int64)
        for j, r in enumerate(batch):
            stamp += 1
            # self-exclusion: r's own stale color never forbids;
            # restored before the next (simulated) peer scans
            stale = colors[r]
            colors[r] = -1
            budget = 0
            for c in indices[indptr[r] : indptr[r + 1]]:
                two_hop = colors[indices[indptr[c] : indptr[c + 1]]]
                two_hop = two_hop[(two_hop >= 0) & (two_hop < limit)]
                forbidden[two_hop] = stamp
                budget += int(indptr[c + 1] - indptr[c])
            window = forbidden[: min(budget, nr) + 1]
            pending[j] = int(np.argmax(window != stamp))
            colors[r] = stale
        colors[batch] = pending  # tick boundary: writes commit
        return units[batch]

    def detect(work, record):
        # the model charges each work row its two-hop slots; the kernel
        # itself decides one column at a time
        retry = kernels.d2_conflicts(bip.incidence, nr, colors, work)
        return retry, units[work]

    with rec.phase("d2-optimistic"):
        rounds = machine.speculate(
            work_list, tick, detect, rec=rec,
            max_rounds=max_rounds, state=(colors,),
            plan=resolve_fault_plan(fault_plan), patience=watchdog_patience,
            name="d2-optimistic")

    num_colors = int(colors.max(initial=-1)) + 1
    meta = machine.finish(rec, rounds=rounds, backend=kernels.resolve_backend())
    if rec.enabled:
        rec.event("partial_coloring", strategy="d2-optimistic",
                  num_rows=nr, num_cols=bip.num_cols, num_colors=num_colors,
                  threads=machine.num_threads, rounds=rounds,
                  conflicts=machine.trace.total_conflicts)
        rec.count("bipartite.rows_colored", nr)
    return PartialD2Coloring(colors, num_colors, strategy="d2-optimistic",
                             meta=meta)


def mp_partial_d2(
    bip: BipartiteGraph,
    *,
    num_workers: int = 2,
    max_rounds: int = 1,
    recorder=None,
    fault_plan: FaultPlan | str | None = None,
    round_timeout: float = DEFAULT_ROUND_TIMEOUT,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> PartialD2Coloring:
    """Partial D2 coloring computed by *num_workers* threads of the team.

    Deterministic for a fixed ``num_workers``, and bit-identical to
    :func:`~repro.parallel.mp.run_rounds` on its inline transport.  With
    ``num_workers=1`` the sweep runs in-process and the result is
    bit-identical to
    :func:`~repro.bipartite.optimistic.partial_d2_sequential`.

    ``max_rounds`` speculative rounds (one by default) run on the team,
    then the rows still in conflict are colored by one sequential
    First-Fit pass against the merged colors: the planned tail of
    Gebremedhin & Manne (2000), Phase 3.  Guarding, fault injection
    (``fault_plan``; a worker fault at a round never speculated raises
    ``ValueError``), salvage, the meta keys (``workers``/``rounds``/
    ``conflicts``/``tail``/``faults``/``degraded``/``transport``/
    ``pool_reused``) and the recorder events
    (``mp_pool``/``mp_round``/``mp_salvage``/``mp_tail``/``fault_*``
    inside a ``d2-mp`` phase) all match
    :func:`repro.parallel.mp.mp_greedy_ff`.
    """
    rec = as_recorder(recorder)
    resolved = kernels.resolve_backend()
    with rec.phase("d2-mp"):
        colors, meta = run_rounds(
            Neighbourhood("d2", bip.incidence, bip.num_rows), num_workers,
            transport="threads", max_rounds=max_rounds,
            plan=resolve_fault_plan(fault_plan), round_timeout=round_timeout,
            max_retries=max_retries, rec=rec)
    num_colors = int(colors.max(initial=-1)) + 1
    if rec.enabled:
        rec.event("partial_coloring", strategy="d2-mp", num_rows=bip.num_rows,
                  num_colors=num_colors, workers=num_workers,
                  rounds=meta["rounds"], conflicts=meta["conflicts"],
                  backend=resolved, degraded=meta["degraded"],
                  transport=meta["transport"])
    return PartialD2Coloring(
        colors, num_colors, strategy="d2-mp",
        meta={"workers": num_workers, "backend": resolved, **meta})
