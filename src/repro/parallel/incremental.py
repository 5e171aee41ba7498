"""Superstep (speculative) incremental recoloring.

The parallel counterpart of
:func:`repro.coloring.incremental.incremental_recolor`: after a graph
mutation, only the dirty neighborhood is repaired, but the repair wave
runs on the tick machine — same-tick vertices re-color speculatively
against snapshot neighbor colors, conflicts are detected after the
commit, and the higher-id endpoint of each monochromatic edge retries in
the next round (the same speculate-and-iterate scheme as
:mod:`repro.parallel.recolor`, applied to a frontier instead of the whole
vertex set).

The balance drain that follows is the sequential localized drain: shuffle
moves are individually cheap and the drain region is small by
construction, so there is nothing worth speculating on.  With
``num_threads=1`` the whole pipeline is bit-identical to the sequential
bounded path, and with ``staleness_budget=None`` it delegates to the
sequential full path outright (a full re-color has no frontier to
exploit).
"""

from __future__ import annotations

import numpy as np

from ..coloring.incremental import (
    DEFAULT_STALENESS_BUDGET,
    _ff_color,
    _localized_drain,
    carry_forward,
)
from ..coloring.balance import relative_std_dev
from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from ..kernels import detect_conflicts
from ..obs import as_recorder
from .engine import TickMachine

__all__ = ["parallel_incremental_recolor"]


def parallel_incremental_recolor(
    graph: CSRGraph,
    base: Coloring,
    *,
    dirty=None,
    staleness_budget: float | None = DEFAULT_STALENESS_BUDGET,
    num_threads: int = 1,
    max_rounds: int = 100,
    recorder=None,
) -> Coloring:
    """Incrementally re-color *graph* from *base* with simulated threads.

    See :func:`repro.coloring.incremental.incremental_recolor` for the
    parameter semantics (*dirty*, *staleness_budget*).  ``max_rounds``
    bounds the speculative repair loop; past it the batch width degrades
    to one vertex, which cannot conflict and therefore terminates.
    """
    from ..coloring.incremental import incremental_recolor

    rec = as_recorder(recorder)
    n = graph.num_vertices
    if staleness_budget is None:
        # no frontier to speculate on — the full path is the definition
        return incremental_recolor(graph, base, dirty=dirty,
                                   staleness_budget=None, recorder=recorder)
    if not 0.0 < staleness_budget <= 1.0:
        raise ValueError(
            f"staleness_budget must be in (0, 1] or None, got {staleness_budget}"
        )
    if dirty is None:
        dirty = np.arange(n, dtype=np.int64)
    else:
        dirty = np.unique(np.asarray(dirty, dtype=np.int64))
        if dirty.size and (dirty[0] < 0 or dirty[-1] >= n):
            raise ValueError("dirty vertex id out of range")

    machine = TickMachine(num_threads, algorithm="incremental-parallel")
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees

    with rec.phase("incremental-parallel"):
        seeded = carry_forward(graph, base)
        colors = seeded.colors.copy()
        C = seeded.num_colors
        capacity = n / C if C else 0.0
        sizes = np.bincount(colors, minlength=C).astype(np.float64)

        # speculative repair: only conflicted dirty vertices enter the wave
        work_list = np.asarray(
            [int(v) for v in dirty
             if np.any(colors[indices[indptr[int(v)]:indptr[int(v) + 1]]]
                       == colors[int(v)])],
            dtype=np.int64)
        # the conflict scan over the dirty set is itself one parallel
        # pass; recording it keeps the trace honest (and non-empty)
        # even when the delta produced no conflicts to repair
        scan = machine.new_superstep()
        machine.charge_cyclic(scan, degrees[dirty])
        scan.conflicts = int(work_list.shape[0])
        scan.distinct_bins = int(np.count_nonzero(sizes))
        machine.trace.add(scan)

        repaired_ids: set[int] = set()

        def tick(batch, record):
            nonlocal sizes, C
            staged_v: list[int] = []
            staged_k: list[int] = []
            for v in batch:
                v = int(v)
                nbr = colors[indices[indptr[v]:indptr[v + 1]]]
                if not np.any(nbr == colors[v]):
                    # an earlier commit already resolved this conflict;
                    # skipping keeps 1-thread runs bit-identical to the
                    # sequential repair (which checks at visit time too)
                    continue
                old = int(colors[v])
                sizes[old] -= 1  # atomically vacate the current bin
                record.atomic_ops += 1
                k = _ff_color(nbr, sizes, capacity, C)
                if k >= sizes.shape[0]:
                    sizes = np.concatenate(
                        [sizes, np.zeros(k + 1 - sizes.shape[0])])
                    C = k + 1
                sizes[k] += 1
                record.atomic_ops += 1
                record.shared_reads += k + 1
                staged_v.append(v)
                staged_k.append(k)
                repaired_ids.add(v)
            if staged_v:  # tick boundary: plain writes commit
                colors[np.asarray(staged_v)] = np.asarray(staged_k)
            return degrees[batch]

        def detect(work, record):
            # unpriced: the incremental trace charges the repair visits only
            retry = detect_conflicts(graph, colors, work)
            record.distinct_bins = int(np.count_nonzero(sizes))
            return retry, degrees[:0]

        rounds = machine.speculate(work_list, tick, detect, rec=rec,
                                   max_rounds=max_rounds)

        C = int(colors.max(initial=-1)) + 1 if n else 0
        if C > sizes.shape[0]:
            sizes = np.bincount(colors, minlength=C).astype(np.float64)
        repaired = len(repaired_ids)
        n_seeded = seeded.meta["seeded_vertices"]
        touched = n_seeded + repaired
        max_touch = max(int(np.ceil(staleness_budget * n)), 1)
        move_budget = max(max_touch - touched, 0)

        region = np.zeros(n, dtype=bool)
        if dirty.size:
            region[dirty] = True
            u, v = graph.edge_arrays()
            halo = region.copy()
            halo[u[region[v]]] = True
            halo[v[region[u]]] = True
            region = halo
        moves, passes = _localized_drain(graph, colors, sizes, capacity,
                                         region, move_budget)
        touched += moves

    meta = machine.finish(
        rec,
        staleness_budget=float(staleness_budget),
        gamma=capacity,
        base_strategy=base.strategy,
        seeded=int(n_seeded),
        repaired=int(repaired),
        moves=int(moves),
        drain_passes=int(passes),
        dirty=int(dirty.size),
        rounds=rounds,
        recolored_fraction=(touched / n) if n else 0.0,
        rsd_percent=relative_std_dev(np.bincount(colors, minlength=C)),
    )
    result = Coloring(colors, C, strategy="incremental-parallel", meta=meta)
    if rec.enabled:
        rec.event("coloring", strategy="incremental-parallel",
                  num_vertices=n, num_colors=C, threads=machine.num_threads,
                  rounds=rounds, repaired=int(repaired), moves=int(moves),
                  rsd_percent=meta["rsd_percent"])
    return result
