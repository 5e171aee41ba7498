"""Vectorized speculate-and-resolve kernels (whole-array NumPy rounds).

**First-Fit sweep.**  The paper's parallelization insight — speculate on a
snapshot, detect conflicts, iterate — is applied here with a
*deterministic* resolution rule that makes the result bit-identical to the
sequential sweep: each round colors, in one batch of array ops, every
pending vertex whose earlier-in-order neighbors have all committed (such
vertices can never lose a conflict, because every race is resolved in
favor of order priority).  These committed sets are exactly the
Jones-Plassmann independent sets of the ordering DAG, so each vertex is
processed once and total work stays O(n + m); the number of rounds is the
longest monotone path of the ordering, which is small for the irregular
graphs the paper targets.  Per round, the smallest free color of the whole
batch is found with a sorted-segment scan (gather neighbor colors, lexsort
by (vertex, color), dedupe, and compare against the within-segment index).
Rounds too small to amortize array staging — dependency bottlenecks, or
deep-tail orderings such as a path in natural order — are colored with a
per-vertex loop instead and batching resumes when the frontier regrows,
so the kernel is never asymptotically worse than the reference backend.

**Shuffle drain.**  Balancing moves for VFF/VLU/CFF/CLU are batched in
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
from .reference import _drain_round_event

__all__ = ["d2_conflicts", "d2_sweep", "ff_sweep", "shuffle_drain"]

# below this per-round batch size the array-staging overhead beats the
# stamped loop; measured crossover is a few dozen vertices
_SMALL_FRONTIER = 64
# cap on candidates × bins entries per permissibility chunk (~4 MB of bool)
_PERM_CHUNK_ENTRIES = 1 << 22


def _gather_rows(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat gather indices for variable-length rows, plus row ids per entry.

    ``flat[k]`` walks ``starts[i] .. starts[i]+lens[i]`` for each row *i* in
    sequence; ``seg[k]`` is the row id *i* of entry *k*.
    """
    total = int(lens.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    cum = np.cumsum(lens)
    seg = np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - lens, lens)
    return np.repeat(starts, lens) + offsets, seg


def _segment_mex(seg: np.ndarray, vals: np.ndarray, num_segments: int) -> np.ndarray:
    """Smallest missing non-negative value per segment (the First-Fit color).

    *seg* need not be sorted; *vals* are non-negative colors.  Scatter the
    colors into a dense (segment × color) presence table and take the
    first absent column per row.  A segment with *d* entries has mex at
    most *d*, so columns past the largest segment length never matter and
    entries that large are dropped before the scatter; oversized tables
    (many segments × a huge palette) are processed in row chunks.
    """
    mex = np.zeros(num_segments, dtype=np.int64)
    if seg.shape[0] == 0:
        return mex
    counts = np.bincount(seg, minlength=num_segments)
    width = int(counts.max()) + 1  # mex <= segment length
    in_range = vals < width
    seg, vals = seg[in_range], vals[in_range]
    rows_per_chunk = max(1, _PERM_CHUNK_ENTRIES // width)
    for lo in range(0, num_segments, rows_per_chunk):
        hi = min(lo + rows_per_chunk, num_segments)
        pick = (seg >= lo) & (seg < hi) if num_segments > rows_per_chunk else slice(None)
        present = np.zeros((hi - lo, width + 1), dtype=bool)
        present[seg[pick] - lo, vals[pick]] = True
        mex[lo:hi] = np.argmin(present, axis=1)  # first False = mex
    return mex


def ff_sweep(graph: CSRGraph, work: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Batch First-Fit over *work* against *base*; see module docstring.

    Bit-identical to :func:`repro.kernels.reference.ff_sweep`.
    """
    n = graph.num_vertices
    out = base.copy()
    W = work.shape[0]
    if W == 0:
        return out

    identity = W == n and bool(np.array_equal(work, np.arange(n, dtype=np.int64)))
    if identity:
        # full sweep in id order: the sub-CSR is the CSR, positions are ids
        lens = graph.degrees
        sub_indptr = graph.indptr
        nbr = graph.indices
        nbr_pos = nbr
        src_pos = np.repeat(np.arange(n, dtype=np.int64), lens)
        is_pred = nbr < src_pos
        is_succ = None  # no self-loops: every non-pred neighbor is a successor
    else:
        pos = np.full(n, -1, dtype=np.int64)
        pos[work] = np.arange(W, dtype=np.int64)
        lens = graph.degrees[work]
        flat, src_pos = _gather_rows(graph.indptr[work], lens)
        nbr = graph.indices[flat]
        sub_indptr = np.zeros(W + 1, dtype=np.int64)
        np.cumsum(lens, out=sub_indptr[1:])
        nbr_pos = pos[nbr]
        is_pred = (nbr_pos >= 0) & (nbr_pos < src_pos)
        is_succ = nbr_pos > src_pos  # the neighbor is in the work list

    # snapshot values are only consulted when the base has any assignment
    base_vals = base[nbr] if bool((base >= 0).any()) else None
    dep = np.bincount(src_pos[is_pred], minlength=W)

    res = np.full(W, -1, dtype=np.int64)
    frontier = np.nonzero(dep == 0)[0]
    while frontier.shape[0]:
        e, seg = _gather_rows(sub_indptr[frontier], lens[frontier])
        pred = is_pred[e]
        if frontier.shape[0] < _SMALL_FRONTIER:
            # tiny round (a dependency bottleneck): per-vertex mex beats
            # array staging; the frontier usually regrows right after
            _scalar_round(frontier, sub_indptr, nbr_pos, is_pred, base_vals, res)
        elif base_vals is None:
            ep = e[pred]
            res[frontier] = _segment_mex(
                seg[pred], res[nbr_pos[ep]], frontier.shape[0]
            )
        else:
            vals = base_vals[e]
            vals[pred] = res[nbr_pos[e[pred]]]
            colored = vals >= 0
            res[frontier] = _segment_mex(seg[colored], vals[colored], frontier.shape[0])

        # the committed round's own edge gather doubles as the dependency
        # update: decrement every successor reached from the frontier
        es = e[~pred] if identity else e[is_succ[e]]
        if es.shape[0]:
            dep -= np.bincount(nbr_pos[es], minlength=W)
            # a vertex is ready exactly when its last predecessor commits,
            # so new dep==0 pending vertices were successors this round
            frontier = np.nonzero((dep == 0) & (res < 0))[0]
        else:
            frontier = np.empty(0, dtype=np.int64)

    out[work] = res
    return out


def _scalar_round(
    frontier: np.ndarray,
    sub_indptr: np.ndarray,
    nbr_pos: np.ndarray,
    is_pred: np.ndarray,
    base_vals: np.ndarray,
    res: np.ndarray,
) -> None:
    """Color one (small) frontier with a per-vertex loop (same semantics).

    Frontier vertices form an independent set — an edge between two of
    them would make the earlier one an uncommitted predecessor of the
    later — so any processing order gives the same result: each vertex
    reads committed results for earlier-in-order neighbors and snapshot
    values otherwise, exactly as the batched round does.
    """
    for p in frontier:
        lo, hi = int(sub_indptr[p]), int(sub_indptr[p + 1])
        pred = is_pred[lo:hi]
        if base_vals is None:
            vals = res[nbr_pos[lo:hi][pred]]
        else:
            vals = base_vals[lo:hi].copy()
            vals[pred] = res[nbr_pos[lo:hi][pred]]
            vals = vals[vals >= 0]
        window_len = vals.shape[0] + 1
        present = np.zeros(window_len, dtype=bool)
        present[vals[vals < window_len]] = True
        res[p] = int(np.argmin(present))  # first False = smallest free color


# ----------------------------------------------------------------------
# one-sided distance-2 kernels (bipartite incidence graphs)
# ----------------------------------------------------------------------
def d2_sweep(
    graph: CSRGraph, num_rows: int, work: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Batch one-sided distance-2 First-Fit; see the reference docstring.

    Bit-identical to :func:`repro.kernels.reference.d2_sweep`.  The same
    Jones-Plassmann argument as :func:`ff_sweep` applies one level deeper:
    each round colors every pending work row whose earlier-in-order
    *two-hop* neighbors (rows reached through a shared column) have all
    committed.  Such frontier rows are pairwise distance-2 independent, so
    any processing order gives the sequential result.  The two-hop
    neighborhood multiset is expanded once up front with two flat gathers
    (row → column slots → row slots) and never materialized as a graph.
    """
    indptr, indices = graph.indptr, graph.indices
    out = base.copy()
    W = work.shape[0]
    if W == 0:
        return out

    pos = np.full(num_rows, -1, dtype=np.int64)
    pos[work] = np.arange(W, dtype=np.int64)
    deg = np.diff(indptr)
    # level 1: every work row's column slots; level 2: those columns' row
    # slots — together the two-hop multiset, ordered by work position
    l1_flat, l1_src = _gather_rows(indptr[work], deg[work])
    cols = indices[l1_flat]
    l2_flat, l2_of_l1 = _gather_rows(indptr[cols], deg[cols])
    rows2 = indices[l2_flat]
    src_pos = l1_src[l2_of_l1]
    tgt_pos = pos[rows2]
    lens2 = np.bincount(src_pos, minlength=W)
    sub_indptr = np.zeros(W + 1, dtype=np.int64)
    np.cumsum(lens2, out=sub_indptr[1:])

    # self entries have tgt_pos == src_pos, so both masks exclude them
    is_pred = (tgt_pos >= 0) & (tgt_pos < src_pos)
    is_succ = tgt_pos > src_pos
    # snapshot value per entry: the base color for non-pred, non-self rows
    # (in-work successors read their stale base, like the reference local
    # commits); predecessor entries are patched from `res` each round
    snap_vals = np.full(rows2.shape[0], -1, dtype=np.int64)
    if bool((base >= 0).any()):
        fill = ~is_pred & (tgt_pos != src_pos)
        snap_vals[fill] = base[rows2[fill]]

    dep = np.bincount(src_pos[is_pred], minlength=W)
    res = np.full(W, -1, dtype=np.int64)
    frontier = np.nonzero(dep == 0)[0]
    while frontier.shape[0]:
        e, seg = _gather_rows(sub_indptr[frontier], lens2[frontier])
        if frontier.shape[0] < _SMALL_FRONTIER:
            _scalar_d2_round(frontier, sub_indptr, tgt_pos, is_pred,
                             snap_vals, res)
        else:
            vals = snap_vals[e]
            pred = is_pred[e]
            vals[pred] = res[tgt_pos[e[pred]]]
            colored = vals >= 0
            res[frontier] = _segment_mex(seg[colored], vals[colored],
                                         frontier.shape[0])
        es = e[is_succ[e]]
        if es.shape[0]:
            dep -= np.bincount(tgt_pos[es], minlength=W)
            frontier = np.nonzero((dep == 0) & (res < 0))[0]
        else:
            frontier = np.empty(0, dtype=np.int64)

    out[work] = res
    return out


def _scalar_d2_round(
    frontier: np.ndarray,
    sub_indptr: np.ndarray,
    tgt_pos: np.ndarray,
    is_pred: np.ndarray,
    snap_vals: np.ndarray,
    res: np.ndarray,
) -> None:
    """Color one (small) two-hop frontier with a per-row loop."""
    for p in frontier:
        lo, hi = int(sub_indptr[p]), int(sub_indptr[p + 1])
        vals = snap_vals[lo:hi].copy()
        pred = is_pred[lo:hi]
        vals[pred] = res[tgt_pos[lo:hi][pred]]
        vals = vals[vals >= 0]
        window_len = vals.shape[0] + 1
        present = np.zeros(window_len, dtype=bool)
        present[vals[vals < window_len]] = True
        res[p] = int(np.argmin(present))


def d2_conflicts(
    graph: CSRGraph, num_rows: int, colors: np.ndarray, work: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Vectorized distance-2 conflict detection; see the reference docstring.

    Produces the identical retry set: the colored (column, row) slots of
    the *cols* columns are lexsorted by (column, color, row id), making
    monochromatic groups adjacent runs with the minimum row first;
    in-work non-minimum members are retried, and a run's minimum is
    retried when the run contains a finalized row.
    """
    indptr, indices = graph.indptr, graph.indices
    lens = indptr[cols + 1] - indptr[cols]
    flat, seg = _gather_rows(indptr[cols], lens)
    rows = indices[flat]
    cc = colors[rows]
    keep = cc >= 0
    rows, seg, cc = rows[keep], seg[keep], cc[keep]
    if rows.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((rows, cc, seg))
    rows, seg, cc = rows[order], seg[order], cc[order]

    same = np.zeros(rows.shape[0], dtype=bool)
    same[1:] = (seg[1:] == seg[:-1]) & (cc[1:] == cc[:-1])
    run_id = np.cumsum(~same) - 1
    nruns = int(run_id[-1]) + 1
    in_work = np.zeros(num_rows, dtype=bool)
    in_work[work] = True
    run_has_final = np.zeros(nruns, dtype=bool)
    np.logical_or.at(run_has_final, run_id, ~in_work[rows])
    run_len = np.bincount(run_id, minlength=nruns)

    retry = (same & in_work[rows]) | (
        ~same & (run_len[run_id] > 1) & in_work[rows] & run_has_final[run_id]
    )
    return np.unique(rows[retry])


# ----------------------------------------------------------------------
# shuffle drain
# ----------------------------------------------------------------------
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
