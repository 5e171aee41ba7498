"""Parallel unscheduled shuffling (Algorithms 2 and 3 of the paper).

**Vertex-centric** (``traversal="vertex"``; Algorithm 2, VFF/VLU):
candidates from *all* over-full bins are processed concurrently, which
maximizes exposed parallelism but races on the colors array.  Racing
commits are detected per superstep; the higher-id endpoint of each
monochromatic edge is *reverted to its pre-move bin* — always safe, because
no neighbor can have entered that bin in the same tick (it was visibly
occupied by the reverting vertex when the tick began) — and retried in the
next round.  Bin sizes are atomic counters: the engine serializes them
within a tick, so a bin never overshoots γ.

**Color-centric** (``traversal="color"``; Algorithm 3, CFF/CLU): one
over-full bin at a time.  Vertices of one color class are pairwise
non-adjacent, so concurrent processing cannot conflict and no
detection/retry phases are needed — at the cost of as many sequential
stages as there are over-full bins.  For any thread count the result is
identical to the sequential reference (the test-suite relies on this).
"""

from __future__ import annotations

import numpy as np

from ..coloring.balance import gamma as _gamma
from ..coloring.balance import relative_std_dev
from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from ..obs import as_recorder
from ..resilience import DEFAULT_PATIENCE, resolve_fault_plan
from .engine import VERTEX_OVERHEAD, TickMachine

__all__ = ["parallel_shuffle_balance"]


def parallel_shuffle_balance(
    graph: CSRGraph,
    initial: Coloring,
    *,
    choice: str = "ff",
    traversal: str = "vertex",
    num_threads: int = 1,
    max_rounds: int = 100,
    recorder=None,
    fault_plan=None,
    watchdog_patience: int = DEFAULT_PATIENCE,
) -> Coloring:
    """Parallel VFF/VLU/CFF/CLU balancing of *initial*.

    Returns a proper coloring with the same number of colors; the engine
    trace is in ``meta["trace"]``.  ``recorder`` (optional
    :class:`repro.obs.Recorder`) gets the trace as per-``superstep``
    events plus a final ``balance`` event; attaching one never changes
    the result.

    The vertex-centric loop carries a
    :class:`~repro.resilience.ConvergenceWatchdog`: a work list that
    stops shrinking for ``watchdog_patience`` rounds (every mover
    reverted, round after round) degrades the loop to one thread —
    races become impossible, so the list drains — instead of spinning to
    ``max_rounds``.  ``fault_plan`` ``stick`` faults waste chosen rounds
    deterministically to exercise that path; color-centric traversal has
    no retry loop and ignores the plan.
    """
    if choice not in ("ff", "lu"):
        raise ValueError(f"choice must be 'ff' or 'lu', got {choice!r}")
    if traversal not in ("vertex", "color"):
        raise ValueError(f"traversal must be 'vertex' or 'color', got {traversal!r}")
    n = graph.num_vertices
    if initial.num_vertices != n:
        raise ValueError("coloring does not match graph")
    C = initial.num_colors
    name = f"{'v' if traversal == 'vertex' else 'c'}{choice}-parallel"
    machine = TickMachine(num_threads, algorithm=name)
    rec = as_recorder(recorder)
    g = _gamma(n, C) if C else 0.0
    colors = initial.colors.copy()
    sizes = np.bincount(colors, minlength=C).astype(np.int64)
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees
    prev_color = np.full(n, -1, dtype=np.int64)
    moved: list[int] = []

    def tick(batch, record):
        staged_v: list[int] = []
        staged_k: list[int] = []
        costs: list[int] = []
        for v in batch:
            v = int(v)
            src = int(colors[v])
            if sizes[src] <= g:  # source bin reached balance: O(1) skip
                costs.append(1 - VERTEX_OVERHEAD)
                record.shared_reads += 1
                continue
            costs.append(int(degrees[v]))
            nbr_colors = colors[indices[indptr[v] : indptr[v + 1]]]
            k, reads = _pick_target(nbr_colors, sizes, g, src, choice)
            record.shared_reads += reads + 1  # +1: the source-bin check
            if k < 0:
                continue
            # atomic counters update immediately (serialized in-tick)
            sizes[src] -= 1
            sizes[k] += 1
            record.atomic_ops += 2
            prev_color[v] = src
            staged_v.append(v)
            staged_k.append(k)
        if staged_v:
            colors[staged_v] = staged_k  # tick boundary: plain writes commit
            moved.extend(staged_v)
        return costs

    def begin(work, record):
        # hot counters this round: every under-full bin is read during
        # target scans and is a potential write target
        record.distinct_bins = max(1, int(np.count_nonzero(sizes < g)))
        moved.clear()

    def detect(work, record):
        # this round's movers rescan their adjacency
        retry = _revert_conflicts(graph, colors, sizes, prev_color, moved, record)
        return retry, degrees[moved]

    with rec.phase(name):
        if traversal == "vertex":
            work_list = np.nonzero(np.isin(colors, np.nonzero(sizes > g)[0]))[0]
            machine.speculate(work_list, tick, detect, rec=rec,
                              max_rounds=max_rounds,
                              state=(colors, sizes, prev_color),
                              plan=resolve_fault_plan(fault_plan),
                              patience=watchdog_patience, name=name, begin=begin)
        else:
            # one stage per over-full bin: its members are pairwise
            # non-adjacent, so a tick cannot race and nothing is detected
            # (the tick's revert bookkeeping goes unused)
            for j_bin in np.nonzero(sizes > g)[0]:
                record = machine.new_superstep()
                record.barriers = 1
                for _, batch in machine.ticks(np.nonzero(colors == j_bin)[0]):
                    machine.charge_cyclic(record, tick(batch, record))
                record.distinct_bins = int(np.count_nonzero(sizes < g))
                machine.trace.add(record)

    meta = machine.finish(rec, gamma=g, initial_strategy=initial.strategy)
    if rec.enabled:
        rec.event("balance", strategy=name, gamma=g,
                  rsd_percent=relative_std_dev(np.bincount(colors, minlength=C)),
                  threads=machine.num_threads,
                  supersteps=machine.trace.num_supersteps,
                  conflicts=machine.trace.total_conflicts)
    return Coloring(colors, C, strategy=name, meta=meta)


def _pick_target(
    nbr_colors: np.ndarray, sizes: np.ndarray, g: float, current: int, choice: str
) -> tuple[int, int]:
    """FF/LU permissible under-full target (or -1), plus shared-counter reads.

    The second element counts how many bin-size counters the selection had
    to read: an FF scan stops at the chosen bin, an LU scan inspects every
    under-full candidate.  Those counters are concurrently written by other
    threads, so the machine models price these reads as coherence traffic.
    """
    C = sizes.shape[0]
    permissible = np.ones(C, dtype=bool)
    inrange = nbr_colors[(nbr_colors >= 0) & (nbr_colors < C)]
    permissible[inrange] = False
    permissible[current] = False
    underfull = sizes < g
    candidates = np.nonzero(permissible & underfull)[0]
    if candidates.shape[0] == 0:
        return -1, C
    if choice == "ff":
        k = int(candidates[0])
        return k, k + 1
    reads = int(np.count_nonzero(underfull))
    return int(candidates[np.argmin(sizes[candidates])]), reads


def _revert_conflicts(
    graph: CSRGraph,
    colors: np.ndarray,
    sizes: np.ndarray,
    prev_color: np.ndarray,
    moved: list[int],
    record,
) -> np.ndarray:
    """Detect and revert conflicting movers until the coloring is proper.

    Victims are always vertices that moved *this round* and have not been
    reverted yet (the higher-id endpoint when both qualify).  Reverting is
    safe because the set of vertices sitting at their pre-round colors is a
    subset of a proper coloring; in the worst case everything reverts and
    the round is a no-op.  Usually a single sweep suffices (same-tick
    races); a second sweep handles a mover conflicting with a vertex that
    reverted into a bin the mover had just entered.
    """
    if not moved:
        return np.empty(0, dtype=np.int64)
    active = np.zeros(graph.num_vertices, dtype=bool)  # moved, not yet reverted
    active[moved] = True
    u, v = graph.edge_arrays()
    reverted: list[int] = []
    while True:
        mask = colors[u] == colors[v]
        if not mask.any():
            break
        mu, mv = u[mask], v[mask]
        pick_hi = active[mv]
        victims = np.unique(np.where(pick_hi, mv, mu))
        victims = victims[active[victims]]
        if victims.shape[0] == 0:  # pragma: no cover - impossible by invariant
            raise RuntimeError("monochromatic edge with no revertible endpoint")
        for w in victims:
            w = int(w)
            src = int(prev_color[w])
            sizes[colors[w]] -= 1
            sizes[src] += 1
            record.atomic_ops += 2
            colors[w] = src
            prev_color[w] = -1
            active[w] = False
            reverted.append(w)
    return np.asarray(sorted(reverted), dtype=np.int64)
