"""Reference (per-vertex loop) kernel implementations.

These are the original interpreted hot loops of the library, moved here so
the backend dispatcher can select them explicitly.  They are the semantic
ground truth: the NumPy rounds and the compiled C loops are tested for
equivalence against the functions in this module.

The First-Fit sweep uses the classic O(n + m) "stamping" scheme: a scratch
array ``forbidden`` records, per color, the stamp of the last vertex that
saw that color on a neighbor, so clearing between vertices is free.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..obs import NULL

__all__ = ["d2_conflicts", "d2_drain_pass", "d2_sweep", "ff_sweep",
           "pick_shuffle_target", "sched_commit", "shuffle_drain",
           "two_hop_rows"]

# two-hop entries gathered per block of rows: keeps the int64 staging
# arrays at ~0.5 MB each, cache-resident (larger blocks measured slower)
_TWO_HOP_BLOCK = 1 << 16


def _drain_round_event(recorder, source: int, moves: int, sizes: np.ndarray) -> None:
    """Emit one ``drain_round`` event with the live bin-size RSD."""
    mean = sizes.mean() if sizes.size else 0.0
    rsd = float(100.0 * sizes.std() / mean) if mean else 0.0
    recorder.event("drain_round", source_bin=int(source), moves=int(moves),
                   rsd_percent=rsd)


def ff_sweep(graph: CSRGraph, work: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Sequential First-Fit over *work*, starting from the *base* snapshot.

    Returns a full colors array: a copy of *base* in which each vertex of
    *work*, processed in the given order, has been (re)assigned the
    smallest color not held by any neighbor at the time it is processed.
    Commits are local: vertex ``work[i]`` sees the new colors of
    ``work[:i]`` and the *base* (possibly stale) colors of everything else
    — exactly the semantics of one speculation round's worker, and, with
    ``base`` all ``-1``, exactly Algorithm 1's Greedy-FF.
    """
    indptr, indices = graph.indptr, graph.indices
    local = base.copy()
    limit = graph.max_degree + 2
    forbidden = np.full(limit, -1, dtype=np.int64)
    for stamp, v in enumerate(work):
        v = int(v)
        row = indices[indptr[v] : indptr[v + 1]]
        nbr = local[row]
        window_len = row.shape[0] + 1
        # colors >= window_len cannot affect a mex that is <= deg(v)
        nbr = nbr[(nbr >= 0) & (nbr < window_len)]
        forbidden[nbr] = stamp
        local[v] = int(np.argmax(forbidden[:window_len] != stamp))
    return local


def d2_sweep(
    graph: CSRGraph, num_rows: int, work: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Sequential one-sided distance-2 First-Fit over *work* rows.

    *graph* is a bipartite incidence graph: vertices ``[0, num_rows)`` are
    the row side (the only side that gets colored), the rest the column
    side.  Each row of *work*, processed in the given order, is assigned
    the smallest color not held by any other row sharing a column with it
    at processing time.  Commits are local, exactly like :func:`ff_sweep`:
    row ``work[i]`` sees the new colors of ``work[:i]`` and the *base*
    (possibly stale) colors of everything else.  A row never forbids its
    own stale color.  Returns a copy of *base* (length ``num_rows``) with
    the work rows reassigned.
    """
    indptr, indices = graph.indptr, graph.indices
    local = base.copy()
    limit = num_rows + 1
    forbidden = np.full(limit, -1, dtype=np.int64)
    for stamp, r in enumerate(work):
        r = int(r)
        local[r] = -1  # self-exclusion: r's stale color is not forbidden
        budget = 0
        for c in indices[indptr[r] : indptr[r + 1]]:
            two_hop = local[indices[indptr[c] : indptr[c + 1]]]
            # colors >= limit cannot affect a mex bounded by num_rows
            two_hop = two_hop[(two_hop >= 0) & (two_hop < limit)]
            forbidden[two_hop] = stamp
            budget += int(indptr[c + 1] - indptr[c])
        window = forbidden[: min(budget, num_rows) + 1]
        local[r] = int(np.argmax(window != stamp))
    return local


def d2_conflicts(
    graph: CSRGraph, num_rows: int, colors: np.ndarray, work: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Rows of *work* that lost a speculative distance-2 race.

    Two colored rows sharing a column with equal colors conflict; the
    resolution rule mirrors :func:`~repro.parallel.mp.detect_cross_conflicts`:
    within each monochromatic group of a column, every in-work row except
    the minimum id is retried, and the minimum is retried too when a
    finalized (not-in-work) row holds the same color — the finalized row
    always keeps its color.  Uncolored rows never conflict.  Only the
    columns in *cols* are scanned (the facade passes the work-adjacent
    set; per-column decisions are independent, so a partition of the
    columns unions to the same retry set).  Returns the sorted unique
    retry rows.
    """
    indptr, indices = graph.indptr, graph.indices
    in_work = np.zeros(num_rows, dtype=bool)
    in_work[work] = True
    retry: set[int] = set()
    for c in cols:
        rows = indices[indptr[c] : indptr[c + 1]]
        cc = colors[rows]
        mask = cc >= 0
        rows, cc = rows[mask], cc[mask]
        if rows.shape[0] < 2:
            continue
        order = np.lexsort((rows, cc))
        rows, cc = rows[order], cc[order]
        start = 0
        for i in range(1, rows.shape[0] + 1):
            if i == rows.shape[0] or cc[i] != cc[start]:
                if i - start > 1:
                    group = rows[start:i]  # ascending row id
                    for r in group[1:]:
                        if in_work[r]:
                            retry.add(int(r))
                    if in_work[group[0]] and not in_work[group].all():
                        retry.add(int(group[0]))
                start = i
    return np.array(sorted(retry), dtype=np.int64)


def pick_shuffle_target(
    nbr_colors: np.ndarray, sizes: np.ndarray, g: float, current: int, choice: str
) -> int:
    """Smallest-index (FF) or least-used (LU) permissible under-full bin.

    Returns -1 when no move is possible.  A bin is permissible when no
    neighbor holds it; under-full when its size is strictly below γ.
    """
    C = sizes.shape[0]
    permissible = np.ones(C, dtype=bool)
    inrange = nbr_colors[(nbr_colors >= 0) & (nbr_colors < C)]
    permissible[inrange] = False
    permissible[current] = False
    candidates = np.nonzero(permissible & (sizes < g))[0]
    if candidates.shape[0] == 0:
        return -1
    if choice == "ff":
        return int(candidates[0])
    return int(candidates[np.argmin(sizes[candidates])])


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
    """One unscheduled-shuffling pass draining over-full bins toward γ.

    Mutates *colors* and *sizes* in place; returns the number of moves.
    ``traversal="color"`` walks one over-full bin at a time in increasing
    color index; ``"vertex"`` interleaves candidates by vertex id.
    *recorder* gets one ``drain_round`` event per candidate group (per
    over-full bin for ``color``, one for the whole interleaved pass for
    ``vertex``); it never alters the drain.
    """
    indptr, indices = graph.indptr, graph.indices
    moves = 0
    overfull = np.nonzero(sizes > g)[0]
    if traversal == "color":
        candidate_groups = [(int(j), np.nonzero(colors == j)[0]) for j in overfull]
    else:
        mask = np.isin(colors, overfull)
        candidate_groups = [(-1, np.nonzero(mask)[0])]

    for source, group in candidate_groups:
        group_moves = 0
        for v in group:
            v = int(v)
            j = int(colors[v])
            if sizes[j] <= g:  # bin reached balance; stop draining it
                continue
            nbr_colors = colors[indices[indptr[v] : indptr[v + 1]]]
            k = pick_shuffle_target(nbr_colors, sizes, g, j, choice)
            if k >= 0:
                colors[v] = k
                sizes[j] -= vertex_w[v]
                sizes[k] += vertex_w[v]
                group_moves += 1
        moves += group_moves
        if recorder.enabled:
            _drain_round_event(recorder, source, group_moves, sizes)
    return moves


def two_hop_rows(graph: CSRGraph, num_rows: int) -> tuple[list[int], np.ndarray]:
    """CSR ``(ptr, nbr)`` of every row's two-hop rows, self excluded.

    *graph* is a bipartite incidence graph with rows on ``[0, num_rows)``.
    ``nbr[ptr[r]:ptr[r+1]]`` lists the rows sharing a column with *r*,
    once per shared column (duplicates kept), as int32; ``ptr`` is a
    Python list, the form :func:`d2_drain_pass` slices fastest.  Row *r*
    meets itself once in each of its columns, so its slot count is the
    sum of its columns' degrees minus its own degree.  The gather runs in
    blocks of rows holding about ``_TWO_HOP_BLOCK`` entries each, which
    bounds the int64 staging arrays.
    """
    from .vectorized import _gather_rows

    nr = num_rows
    indptr, indices = graph.indptr, graph.indices
    deg = np.diff(indptr)
    row_deg = deg[:nr]
    reach = np.bincount(np.repeat(np.arange(nr), row_deg),
                        weights=deg[indices[: indptr[nr]]], minlength=nr)
    ptr = np.zeros(nr + 1, dtype=np.int64)
    np.cumsum(reach.astype(np.int64) - row_deg, out=ptr[1:])
    nbr = np.empty(int(ptr[-1]), dtype=np.int32)
    cuts = np.searchsorted(ptr, np.arange(_TWO_HOP_BLOCK, ptr[-1], _TWO_HOP_BLOCK))
    bounds = np.unique(np.concatenate([[0], cuts, [nr]]))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        e1, seg1 = _gather_rows(indptr[lo:hi], row_deg[lo:hi])
        cols = indices[e1]
        e2, seg2 = _gather_rows(indptr[cols], deg[cols])
        rows = indices[e2]
        nbr[ptr[lo] : ptr[hi]] = rows[rows != seg1[seg2] + lo]
    return ptr.tolist(), nbr


def d2_drain_pass(
    ptr: list[int],
    nbr: np.ndarray,
    colors: np.ndarray,
    sizes: np.ndarray,
    under: np.ndarray,
    g: float,
    candidates: np.ndarray,
    choice: str,
) -> int:
    """One pass of the one-sided D2 balance drain over *candidates*.

    ``(ptr, nbr)`` is the two-hop list of :func:`two_hop_rows`.  Each
    candidate row still in an over-full class moves to the first (FF) or
    first smallest (LU) under-full class no two-hop row holds.  *under*
    (length C+1) is the maintained ``sizes < g`` mask; slot C stays False
    and absorbs color -1 in the gather.  Mutates *colors*, *sizes* and
    *under*; returns the number of moves.
    """
    C = sizes.shape[0]
    round_moves = 0
    for r in candidates.tolist():
        j = int(colors[r])
        if sizes[j] <= g:  # class reached balance; stop draining it
            continue
        # j is over-full, so mask[j] is already False
        mask = under.copy()
        mask[colors.take(nbr[ptr[r] : ptr[r + 1]])] = False
        if choice == "ff":
            k = int(mask.argmax())
        else:
            k = int(np.where(mask[:C], sizes, np.inf).argmin())
        if not mask[k]:
            continue
        colors[r] = k
        sizes[j] -= 1.0
        sizes[k] += 1.0
        under[j] = sizes[j] < g
        under[k] = sizes[k] < g
        round_moves += 1
    return round_moves


def sched_commit(
    graph: CSRGraph, colors: np.ndarray, vertices: np.ndarray, targets: np.ndarray
) -> int:
    """Sched-Rev's move phase: attempt each planned move once, in order.

    Move ``vertices[i] → targets[i]`` commits only if no neighbor holds
    the target in the live *colors*; otherwise the vertex stays put.
    Mutates *colors*; returns the number of committed moves.
    """
    indptr, indices = graph.indptr, graph.indices
    committed = 0
    for v, k in zip(vertices, targets):
        v, k = int(v), int(k)
        nbr_colors = colors[indices[indptr[v] : indptr[v + 1]]]
        if not np.any(nbr_colors == k):  # permissible → commit
            colors[v] = k
            committed += 1
    return committed
