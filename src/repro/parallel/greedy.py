"""Parallel Greedy-FF initial coloring (speculation-and-iteration).

This is the framework of Çatalyürek et al. [19] that the paper uses to
produce its initial colorings: all uncolored vertices are colored
speculatively in parallel (racing reads tolerated), a detection phase finds
monochromatic edges, and the losing endpoints are recolored in the next
round.  On the tick machine, races occur exactly between adjacent vertices
scheduled in the same tick, so conflict counts grow with the simulated
thread count — the "typically a small constant" rounds claim of the paper
is checked by the test-suite.
"""

from __future__ import annotations

import numpy as np

from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from ..kernels import detect_conflicts
from ..obs import as_recorder
from ..resilience import DEFAULT_PATIENCE, resolve_fault_plan
from ..util import check_permutation
from .engine import TickMachine

__all__ = ["parallel_greedy_ff"]


def parallel_greedy_ff(
    graph: CSRGraph,
    *,
    num_threads: int = 1,
    ordering: np.ndarray | None = None,
    max_rounds: int = 200,
    recorder=None,
    fault_plan=None,
    watchdog_patience: int = DEFAULT_PATIENCE,
) -> Coloring:
    """Color *graph* with First-Fit under *num_threads* simulated threads.

    With ``num_threads=1`` the result is identical to
    ``greedy_coloring(graph, choice="ff")``.  The returned coloring's
    ``meta["trace"]`` holds the :class:`ExecutionTrace`; ``recorder``
    (optional :class:`repro.obs.Recorder`) gets the same trace as
    per-``superstep`` events plus a final ``coloring`` event — attaching
    one never changes the result.

    A :class:`~repro.resilience.ConvergenceWatchdog` monitors the retry
    list: if it fails to shrink for ``watchdog_patience`` consecutive
    rounds the loop degrades to sequential execution (guaranteed
    progress) instead of spinning to ``max_rounds``; the fallback round
    lands in ``meta["watchdog_round"]``.  ``fault_plan`` (see
    :mod:`repro.resilience.faults`) can deterministically waste rounds
    (``stick`` faults) to exercise that path.
    """
    rec = as_recorder(recorder)
    n = graph.num_vertices
    machine = TickMachine(num_threads, algorithm="greedy-ff")
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees
    max_deg = graph.max_degree

    colors = np.full(n, -1, dtype=np.int64)
    limit = max_deg + 2
    forbidden = np.full(limit, -1, dtype=np.int64)
    stamp = 0

    if ordering is None:
        work_list = np.arange(n, dtype=np.int64)
    else:
        work_list = check_permutation("ordering", ordering, n)

    def tick(batch, record):
        nonlocal stamp
        pending = np.empty(batch.shape[0], dtype=np.int64)
        for j, v in enumerate(batch):
            stamp += 1
            nbr_colors = colors[indices[indptr[v] : indptr[v + 1]]]
            nbr_colors = nbr_colors[nbr_colors >= 0]
            forbidden[nbr_colors] = stamp
            window = forbidden[: nbr_colors.shape[0] + 1]
            pending[j] = int(np.argmax(window != stamp))
        colors[batch] = pending  # tick boundary: writes commit
        return degrees[batch]

    def detect(work, record):
        # each work-list vertex rescans its adjacency
        return detect_conflicts(graph, colors, work), degrees[work]

    with rec.phase("greedy-ff-parallel"):
        rounds = machine.speculate(
            work_list, tick, detect, rec=rec, max_rounds=max_rounds,
            state=(colors,), plan=resolve_fault_plan(fault_plan),
            patience=watchdog_patience, name="greedy-ff-parallel")

    num_colors = int(colors.max(initial=-1)) + 1
    meta = machine.finish(rec, rounds=rounds)
    if rec.enabled:
        rec.event("coloring", strategy="greedy-ff-parallel",
                  num_vertices=n, num_colors=num_colors,
                  threads=machine.num_threads, rounds=rounds,
                  conflicts=machine.trace.total_conflicts)
    return Coloring(
        colors,
        num_colors,
        strategy="greedy-ff-parallel",
        meta=meta,
    )
