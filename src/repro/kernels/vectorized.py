"""The round-synchronous shuffle drain (whole-array NumPy rounds).

This module holds one algorithm, not a fast form of another: the
``vectorized`` backend's :func:`repro.kernels.shuffle_drain`.  Every other
dispatched kernel has two tiers, a C loop and its Python oracle, and
never runs here.  The drain's semantics differ by backend: ``reference``
runs the paper's sequential single pass, this module runs batched rounds.
Both give proper colorings with the same color count and reduced
imbalance, but their move-for-move traces differ.

Balancing moves for VFF/VLU/CFF/CLU are batched in
rounds of movers drawn from one over-full source bin at a time.  A color
class is an independent set, so same-round movers are pairwise
non-adjacent: no mover invalidates another's permissibility and no
monochromatic edge can form — the intra-round race of the speculative
formulation is resolved *by construction* instead of by detect-and-revert.
Each round builds a dense permissibility matrix (movers × bins) from the
current colors, then conflict-resolves the staged moves against γ with
segment cumulative sums: the source bin is drained in vertex-id order only
while it stays strictly over γ, and each target bin admits movers in
vertex-id order only while it stays strictly under γ — exactly the
sequential rule's live checks, applied to a whole batch at once.
Committed movers leave the pool (each vertex moves at most once, like the
sequential single pass), so the drain terminates.  Traversal order is
preserved: ``color`` drains each over-full bin to completion in increasing
color index; ``vertex`` round-robins one batched round per over-full bin,
interleaving the drains the way the vertex-centric schedule does.
"""

from __future__ import annotations

import numpy as np
# numpy 2.4's np.unique (and np.isin through it) imports numpy.ma on its
# first call, 15-35 ms; pay it at import, not inside the first kernel call
import numpy.ma  # noqa: F401

from ..graph.csr import CSRGraph
from ..obs import NULL
from .reference import _drain_round_event, _gather_rows

__all__ = ["shuffle_drain"]

# cap on candidates × bins entries per permissibility chunk (~4 MB of bool)
_PERM_CHUNK_ENTRIES = 1 << 22


def shuffle_drain(
    graph: CSRGraph,
    colors: np.ndarray,
    sizes: np.ndarray,
    g: float,
    *,
    choice: str,
    traversal: str,
    vertex_w: np.ndarray,
    recorder=NULL,
) -> int:
    """Round-based vectorized drain of over-full bins; see module docstring.

    Mutates *colors* and *sizes* in place; returns committed move count.
    *recorder* gets one ``drain_round`` event per committed batched round
    (source bin, moves, live bin-size RSD); it never alters the drain.
    """
    overfull = np.nonzero(sizes > g)[0]
    if overfull.shape[0] == 0:
        return 0
    pools = {int(j): np.nonzero(colors == int(j))[0] for j in overfull}
    moves = 0
    if traversal == "color":
        for j in pools:
            while True:
                committed = _bin_round(graph, colors, sizes, g, pools, j,
                                       choice, vertex_w)
                moves += committed
                if committed == 0:
                    break
                if recorder.enabled:
                    _drain_round_event(recorder, j, committed, sizes)
    else:  # vertex: interleave the over-full bins, one round each per sweep
        # A bin is retired for good once it stalls or reaches γ.  Like the
        # reference single pass, a retired bin is never re-drained even if a
        # later mover nudges it to ceil(γ) — revisiting such bins shuttles
        # one vertex per sweep through the fractional-γ slack and degrades
        # the drain to one move per round.
        active = list(pools)
        while active:
            still_active = []
            for j in active:
                committed = _bin_round(graph, colors, sizes, g, pools, j,
                                       choice, vertex_w)
                moves += committed
                if committed and recorder.enabled:
                    _drain_round_event(recorder, j, committed, sizes)
                if committed and sizes[j] > g:
                    still_active.append(j)
            active = still_active
    return moves


def _bin_round(
    graph: CSRGraph,
    colors: np.ndarray,
    sizes: np.ndarray,
    g: float,
    pools: dict[int, np.ndarray],
    j: int,
    choice: str,
    vertex_w: np.ndarray,
) -> int:
    """One batched round of moves out of source bin *j*; returns the count.

    Movers all share color *j*, hence are pairwise non-adjacent: their
    permissibility checks cannot invalidate each other and no
    monochromatic edge can form, so commits need no conflict detection.
    The whole batch is conflict-resolved against γ in one pass: target
    bins are filled in choice order (FF: ascending color index; LU:
    ascending round-start size), each admitting permissible movers by
    vertex-id priority only while it stays strictly under γ, and the
    source bin releases movers by id priority only while it stays strictly
    over γ.  Committed movers leave ``pools[j]``; vertices that found no
    admissible target stay pooled (another bin's drain may open a target
    for them later).
    """
    pool = pools[j]
    if pool.shape[0] == 0 or not sizes[j] > g:
        return 0
    C = sizes.shape[0]
    underfull = np.nonzero(sizes < g)[0]
    if choice == "lu":
        underfull = underfull[np.argsort(sizes[underfull], kind="stable")]
    if underfull.shape[0] == 0:
        return 0

    claimed = np.zeros(C, dtype=np.float64)
    sel_movers, sel_tgt = [], []
    rows_per_chunk = max(1, _PERM_CHUNK_ENTRIES // max(C, 1))
    for lo in range(0, pool.shape[0], rows_per_chunk):
        sub = pool[lo : lo + rows_per_chunk]
        perm = _permissibility(graph, colors, sizes, g, sub)
        w_sub = vertex_w[sub]
        unassigned = np.ones(sub.shape[0], dtype=bool)
        for k in underfull:
            cap = g - sizes[k] - claimed[k]
            if cap <= 0:
                continue
            idx = np.nonzero(unassigned & perm[:, k])[0]
            if idx.shape[0] == 0:
                continue
            cw = np.cumsum(w_sub[idx])
            take = idx[cw - w_sub[idx] < cap]  # admit while strictly under γ
            if take.shape[0] == 0:
                continue
            claimed[k] += float(w_sub[take].sum())
            unassigned[take] = False
            sel_movers.append(sub[take])
            sel_tgt.append(np.full(take.shape[0], int(k), dtype=np.int64))
    if not sel_movers:
        return 0

    movers = np.concatenate(sel_movers)
    tgt = np.concatenate(sel_tgt)
    order = np.argsort(movers, kind="stable")
    movers, tgt = movers[order], tgt[order]
    w = vertex_w[movers]
    # source quota: release in vertex-id order only while the bin stays
    # strictly over γ, exactly like the sequential live check
    cum = np.cumsum(w)
    keep = sizes[j] - (cum - w) > g
    movers, tgt, w = movers[keep], tgt[keep], w[keep]
    if movers.shape[0] == 0:
        return 0

    colors[movers] = tgt
    np.add.at(sizes, tgt, w)
    sizes[j] -= float(w.sum())
    pools[j] = pool[~np.isin(pool, movers)]
    return int(movers.shape[0])


def _permissibility(
    graph: CSRGraph,
    colors: np.ndarray,
    sizes: np.ndarray,
    g: float,
    cand: np.ndarray,
) -> np.ndarray:
    """Dense (candidate × bin) matrix: bin under-full and held by no neighbor."""
    C = sizes.shape[0]
    perm = np.broadcast_to(sizes < g, (cand.shape[0], C)).copy()
    perm[np.arange(cand.shape[0]), colors[cand]] = False
    flat, seg = _gather_rows(graph.indptr[cand], graph.degrees[cand])
    nc = colors[graph.indices[flat]]
    in_range = (nc >= 0) & (nc < C)
    perm[seg[in_range], nc[in_range]] = False
    return perm
