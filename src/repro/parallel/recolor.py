"""Parallel balanced Recoloring (Algorithm 5 of the paper).

Every vertex is recolored from scratch in the reverse order of its initial
color class, under the capacity constraint ``bin[k] < γ``.  The
speculation-and-iteration loop is the same as for parallel Greedy-FF:
same-tick adjacent vertices may race into one bin; the higher-id endpoint
of each monochromatic edge is re-processed in the next round (first
atomically vacating its tentative bin).  Because the balance constraint
*and* the disturbed processing order both degrade the reverse-order
heuristic, the parallel scheme tends to use a few more colors than the
initial C and to balance somewhat worse than VFF — exactly the behavior
Table III reports for Recoloring.
"""

from __future__ import annotations

import numpy as np

from ..coloring.balance import gamma as _gamma
from ..coloring.recolor import reverse_class_order
from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from ..kernels import detect_conflicts
from ..obs import as_recorder
from ..resilience import DEFAULT_PATIENCE, resolve_fault_plan
from .engine import TickMachine

__all__ = ["parallel_recoloring"]


def parallel_recoloring(
    graph: CSRGraph,
    initial: Coloring,
    *,
    num_threads: int = 1,
    max_rounds: int = 100,
    recorder=None,
    fault_plan=None,
    watchdog_patience: int = DEFAULT_PATIENCE,
) -> Coloring:
    """Recolor *graph* under capacity γ with simulated threads.

    With ``num_threads=1`` the result matches the sequential
    :func:`repro.coloring.balanced_recoloring`.  ``recorder`` (optional
    :class:`repro.obs.Recorder`) gets the trace as per-``superstep``
    events plus a final ``coloring`` event; attaching one never changes
    the result.

    A :class:`~repro.resilience.ConvergenceWatchdog` degrades the loop to
    one thread once the retry list stops shrinking for
    ``watchdog_patience`` rounds (see :mod:`repro.parallel.greedy`);
    ``fault_plan`` ``stick`` faults waste chosen rounds to test it.
    """
    rec = as_recorder(recorder)
    n = graph.num_vertices
    if initial.num_vertices != n:
        raise ValueError("coloring does not match graph")
    machine = TickMachine(num_threads, algorithm="recoloring-parallel")
    g = _gamma(n, initial.num_colors) if initial.num_colors else 0.0
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees

    colors = np.full(n, -1, dtype=np.int64)
    limit = n + 1  # capacity search may pass over full bins; bin n is never full
    bins = np.zeros(limit, dtype=np.int64)
    forbidden = np.full(limit, -1, dtype=np.int64)
    stamp = 0

    def begin(work, record):
        # a stuck round keeps this count: its bins roll back to round start
        record.distinct_bins = int(np.count_nonzero(bins))

    def tick(batch, record):
        nonlocal stamp
        staged = np.empty(batch.shape[0], dtype=np.int64)
        for j, v in enumerate(batch):
            old = int(colors[v])
            if old >= 0:  # retry: atomically vacate the tentative bin
                bins[old] -= 1
                record.atomic_ops += 1
            stamp += 1
            nbr_colors = colors[indices[indptr[v] : indptr[v + 1]]]
            nbr_colors = nbr_colors[nbr_colors >= 0]
            forbidden[nbr_colors] = stamp
            # smallest permissible color whose (atomic) bin is below γ
            window_len = nbr_colors.shape[0] + 1
            while True:
                ok = (forbidden[:window_len] != stamp) & (bins[:window_len] < g)
                hits = np.nonzero(ok)[0]
                if hits.shape[0]:
                    k = int(hits[0])
                    break
                if window_len >= limit:  # pragma: no cover - bin n never fills
                    raise RuntimeError("no permissible bin within palette limit")
                window_len = min(window_len * 2, limit)
            bins[k] += 1
            record.atomic_ops += 1
            record.shared_reads += k + 1  # bin counters scanned up to k
            staged[j] = k
        colors[batch] = staged  # tick boundary: plain writes commit
        return degrees[batch]

    def detect(work, record):
        retry = detect_conflicts(graph, colors, work)
        record.distinct_bins = int(np.count_nonzero(bins))
        return retry, degrees[work]

    with rec.phase("recoloring-parallel"):
        rounds = machine.speculate(
            reverse_class_order(initial), tick, detect, rec=rec,
            max_rounds=max_rounds, state=(colors, bins),
            plan=resolve_fault_plan(fault_plan), patience=watchdog_patience,
            name="recoloring-parallel", begin=begin)

    num_colors = int(colors.max(initial=-1)) + 1
    meta = machine.finish(rec, gamma=g, initial_colors=initial.num_colors,
                          initial_strategy=initial.strategy, rounds=rounds)
    if rec.enabled:
        rec.event("coloring", strategy="recoloring-parallel",
                  num_vertices=n, num_colors=num_colors,
                  threads=machine.num_threads, rounds=rounds,
                  conflicts=machine.trace.total_conflicts)
    return Coloring(
        colors,
        num_colors,
        strategy="recoloring-parallel",
        meta=meta,
    )
