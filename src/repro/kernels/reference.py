"""The oracles: one reference implementation per dispatched kernel.

This is the one oracle module of :mod:`repro.kernels`.  Most entries are
the original interpreted hot loops of the library, moved here so the
backend dispatcher can select them explicitly.  They are the semantic
ground truth: the compiled C loops of :mod:`repro.kernels.compiled` are
tested for equivalence against the functions in this module, and a host
where the C library does not load runs them in its place.

The First-Fit sweep uses the classic O(n + m) "stamping" scheme: a scratch
array ``forbidden`` records, per color, the stamp of the last vertex that
saw that color on a neighbor, so clearing between vertices is free.

The distance-1 detectors and edge count (:func:`detect_conflicts`,
:func:`detect_cross_conflicts`, :func:`count_monochromatic_edges`) are
NumPy scans over :meth:`~repro.graph.csr.CSRGraph.edge_chunks`, so an
out-of-core graph is read in bounded memory.  The CSR assembly and check
at the end (:func:`csr_assemble`, :func:`csr_check`) are sort-based NumPy
code, not loops: they are the oracles of the linear C loops that build
and validate every graph.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["CSR_ERRORS", "capacity_sweep", "count_monochromatic_edges", "csr_assemble",
           "csr_check", "d2_conflicts", "d2_drain_pass", "d2_sweep", "d2_violating_column",
           "detect_conflicts", "detect_cross_conflicts", "ff_sweep", "pick_shuffle_target",
           "sched_commit", "shuffle_drain", "shuffle_groups", "two_hop_rows"]

# two-hop entries gathered per block of rows: keeps the int64 staging
# arrays at ~0.5 MB each, cache-resident (larger blocks measured slower)
_TWO_HOP_BLOCK = 1 << 16


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


def capacity_sweep(
    graph: CSRGraph, order: np.ndarray, capacity: float
) -> tuple[np.ndarray, int]:
    """One First-Fit sweep over *order* under a per-bin capacity (γ).

    Every vertex starts uncolored; each vertex of *order*, in turn, takes
    the smallest color that no neighbor holds and whose bin holds fewer
    than *capacity* vertices, opening colors past the current count when
    every lower bin is hostile or full.  Returns ``(colors, num_colors)``.
    The capacity couples every placement to the live bin sizes, so the
    sweep is inherently sequential.  ``forbidden`` stamps each neighbor
    color with the visiting vertex's id.
    """
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    # worst case: every color 0..deg(v) forbidden or full; bound generously
    limit = n + 1
    sizes = np.zeros(limit, dtype=np.int64)
    forbidden = np.full(limit, -1, dtype=np.int64)
    num_colors = 0

    for v in order:
        v = int(v)
        nbr_colors = colors[indices[indptr[v] : indptr[v + 1]]]
        nbr_colors = nbr_colors[nbr_colors >= 0]
        forbidden[nbr_colors] = v
        # smallest color that is permissible AND below capacity; the
        # search window must extend past full bins, so scan until found
        window_len = nbr_colors.shape[0] + 1
        while True:
            w_forb = forbidden[:window_len]
            w_size = sizes[:window_len]
            ok = (w_forb != v) & (w_size < capacity)
            hits = np.nonzero(ok)[0]
            if hits.shape[0]:
                k = int(hits[0])
                break
            if window_len >= limit:  # cannot happen: bin n is never full
                raise ValueError("no permissible bin found within palette limit")
            window_len = min(window_len * 2, limit)
        colors[v] = k
        sizes[k] += 1
        if k >= num_colors:
            num_colors = k + 1
    return colors, num_colors


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


def detect_conflicts(
    graph: CSRGraph, colors: np.ndarray, work_list: np.ndarray
) -> np.ndarray:
    """Higher-id endpoints of monochromatic edges incident on *work_list*.

    This is the resolution rule of the speculation protocol (Çatalyürek et
    al.): of every monochromatic edge whose higher endpoint speculated this
    round, the higher-id endpoint loses and is retried.  Returns a sorted,
    deduplicated vertex array.  Streams :meth:`edge_chunks` like the
    other edge scans here.
    """
    in_work = np.zeros(graph.num_vertices, dtype=bool)
    in_work[work_list] = True
    parts = []
    for u, v in graph.edge_chunks():  # u < v
        mask = (colors[u] == colors[v]) & (colors[u] >= 0) & in_work[v]
        parts.append(v[mask])
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def detect_cross_conflicts(
    graph: CSRGraph, colors: np.ndarray, work_list: np.ndarray
) -> np.ndarray:
    """The stale-snapshot resolution rule as one edge scan.

    Of every monochromatic edge, the higher-id endpoint is retried when it
    is in *work_list*, and the lower one when it is in *work_list* and the
    higher one is not (see :func:`repro.kernels.detect_cross_conflicts`).
    Returns a sorted, deduplicated vertex array.  Streams
    :meth:`edge_chunks` like the other edge scans here.
    """
    in_work = np.zeros(graph.num_vertices, dtype=bool)
    in_work[work_list] = True
    parts: list[np.ndarray] = []
    for u, v in graph.edge_chunks():  # u < v
        mono = (colors[u] == colors[v]) & (colors[u] >= 0)
        retry_hi = mono & in_work[v]
        retry_lo = mono & in_work[u] & ~in_work[v]
        parts.append(v[retry_hi])
        parts.append(u[retry_lo])
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def count_monochromatic_edges(graph: CSRGraph, colors: np.ndarray) -> int:
    """Number of monochromatic edges under *colors* (streamed).

    Uncolored (``-1``) vertices never conflict.
    """
    return sum(
        int(np.count_nonzero((colors[u] == colors[v]) & (colors[u] >= 0)))
        for u, v in graph.edge_chunks()
    )


def d2_conflicts(
    graph: CSRGraph, num_rows: int, colors: np.ndarray, work: np.ndarray,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Rows of *work* that lost a speculative distance-2 race.

    Two colored rows sharing a column with equal colors conflict; the
    resolution rule mirrors :func:`repro.kernels.detect_cross_conflicts`:
    within each monochromatic group of a column, every in-work row except
    the minimum id is retried, and the minimum is retried too when a
    finalized (not-in-work) row holds the same color — the finalized row
    always keeps its color.  Uncolored rows never conflict.  Only the
    columns in *cols* are scanned, by default the columns adjacent to the
    work rows (per-column decisions are independent, so a partition of
    the columns unions to the same retry set).  Returns the sorted unique
    retry rows.  The C loop ``d2_conflicts`` transcribes this per-column
    rule with two passes over each column's rows instead of a sort.
    """
    indptr, indices = graph.indptr, graph.indices
    if cols is None:
        flat, _ = _gather_rows(indptr[work], indptr[work + 1] - indptr[work])
        cols = np.unique(indices[flat])
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


def d2_violating_column(graph: CSRGraph, num_rows: int, colors: np.ndarray) -> int:
    """First column (counted from 0) with two same-colored rows, or ``-1``.

    *graph* is a bipartite incidence graph with rows on ``[0, num_rows)``;
    uncolored (``-1``) rows never conflict.  One ``np.unique`` per column.
    """
    indptr, indices = graph.indptr, graph.indices
    for c in range(num_rows, graph.num_vertices):
        group = colors[indices[indptr[c] : indptr[c + 1]]]
        group = group[group >= 0]
        if np.unique(group).shape[0] != group.shape[0]:
            return c - num_rows
    return -1


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


def shuffle_groups(colors: np.ndarray, sizes: np.ndarray, g: float,
                   traversal: str) -> list[tuple[int, np.ndarray]]:
    """The candidate groups of one unscheduled-shuffling pass, in order.

    A candidate is a vertex whose bin is over γ = *g* when the pass
    starts.  ``traversal="color"`` gives one ``(bin, ids)`` group per
    over-full bin in increasing bin index; ``"vertex"`` one ``(-1, ids)``
    group that interleaves all bins.  *ids* are increasing vertex ids.
    Both tiers of :func:`repro.kernels.shuffle_drain` drain these groups.
    """
    over = sizes > g
    ids = np.flatnonzero(over[colors])
    if traversal == "vertex":
        return [(-1, ids)]
    bins = np.flatnonzero(over)
    ids = ids[np.argsort(colors[ids], kind="stable")]
    cuts = np.cumsum(np.bincount(colors[ids], minlength=sizes.shape[0])[bins])[:-1]
    return list(zip(bins.tolist(), np.split(ids, cuts)))


def shuffle_drain(
    graph: CSRGraph,
    colors: np.ndarray,
    sizes: np.ndarray,
    g: float,
    candidates: np.ndarray,
    choice: str,
    vertex_w: np.ndarray,
) -> int:
    """One candidate group of the unscheduled-shuffling pass, in place.

    Each candidate, in order, leaves its bin while that bin is over γ,
    for the target :func:`pick_shuffle_target` picks against its
    neighbors' live colors, moving its weight ``vertex_w[v]`` between the
    float64 *sizes*.  Returns the number of moves.
    """
    indptr, indices = graph.indptr, graph.indices
    moves = 0
    for v in candidates:
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
            moves += 1
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
    candidate row still in an over-full class j moves to the first (FF) or
    first smallest (LU) under-full class k with ``sizes[k] + 1 < sizes[j]``
    that no two-hop row holds.  *under* (length C+1) is the maintained
    ``sizes < g`` mask; slot C stays False and absorbs color -1 in the
    gather.  Mutates *colors*, *sizes* and *under*; returns the moves.
    """
    C = sizes.shape[0]
    round_moves = 0
    for r in candidates.tolist():
        j = int(colors[r])
        if sizes[j] <= g:  # class reached balance; stop draining it
            continue
        # j is over-full, so mask[j] is already False
        mask = under.copy()
        mask[:C] &= sizes < sizes[j] - 1.0
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


#: The CSR invariants in the order :func:`csr_check` tests them, each with
#: the message of the ``ValueError`` its violation raises.
CSR_ERRORS = (
    "indptr endpoints do not match indices length",
    "indptr must be non-decreasing",
    "indices out of range",
    "self-loops are not allowed",
    "neighbor lists must be strictly increasing",
    "adjacency is not symmetric",
)


def csr_assemble(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the simple graph with edges ``{u[i], v[i]}``.

    Self-loops are dropped and duplicates collapsed; every row lists its
    neighbors once, in increasing order.  Sort-based: the canonical
    ``lo * n + hi`` keys are sorted and deduplicated, then both directions
    are sorted by ``src * n + dst`` (n <= ~3e9 keeps the keys in int64).
    """
    keep = u != v
    u, v = u[keep], v[keep]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keys = lo * n + hi
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    lo = keys // n
    hi = keys - lo * n
    sym = np.concatenate([keys, hi * n + lo])
    sym.sort()
    src = sym // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, sym - src * n


def csr_check(graph: CSRGraph) -> None:
    """Raise ``ValueError`` with the first violated entry of :data:`CSR_ERRORS`.

    Symmetry compares the multisets of ``(src, dst)`` and ``(dst, src)``
    keys; once the rows are strictly increasing the forward keys are
    already sorted, so only the backward ones are.
    """
    indptr, indices = graph.indptr, graph.indices
    n = graph.num_vertices
    if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
        raise ValueError(CSR_ERRORS[0])
    if np.any(np.diff(indptr) < 0):
        raise ValueError(CSR_ERRORS[1])
    if indices.shape[0] and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(CSR_ERRORS[2])
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if np.any(src == indices):
        raise ValueError(CSR_ERRORS[3])
    same_row = src[1:] == src[:-1]
    if np.any(same_row & (indices[1:] <= indices[:-1])):
        raise ValueError(CSR_ERRORS[4])
    if not np.array_equal(src * n + indices, np.sort(indices * n + src)):
        raise ValueError(CSR_ERRORS[5])
