"""Backend-dispatched compute kernels for the coloring hot paths.

The hot loops of the library are the Greedy First-Fit and one-sided D2
sweeps (:func:`ff_sweep`, :func:`d2_sweep`), Balanced Recoloring's
capacity-constrained sweep (:func:`capacity_sweep`), one pass of the
one-sided D2 balance drain (:func:`d2_drain_pass`), the Sched-Rev move commit
(:func:`sched_commit`), the conflict detectors of the speculation rounds
(:func:`detect_conflicts`, :func:`detect_cross_conflicts`,
:func:`d2_conflicts`), the properness checks behind every verifier
(:func:`count_monochromatic_edges`, :func:`d2_violating_column`) and the
unscheduled-shuffling drain (:func:`shuffle_drain`).  Every graph is
assembled and validated by kernels too (:func:`csr_assemble`,
:func:`csr_check`).

Every kernel has exactly two tiers, with one rule:

* a resolved ``reference`` backend runs the **oracle**, the function of
  the same name in :mod:`repro.kernels.reference`, the one oracle module
  (a Python loop, or a NumPy scan for the D1 detectors, the D1 count and
  the CSR assembly and check);
* any other backend runs the **C loop** of :mod:`repro.kernels.compiled`
  if the library loaded (it is built once with the system C compiler),
  else that same oracle.

Every dispatcher checks its inputs, allocates its scratch and then makes
one call through :func:`_call`, which passes the checked graph arrays and
each array as its pointer, and raises :class:`ValueError` when the C
loop reports an out-of-range graph index.  The argument types of each C
loop are read from its prototype in :data:`repro.kernels.compiled.SOURCE`.

The two tiers are bit-identical, so ``vectorized`` names the fast tier,
not one implementation: a backend chooses how fast a result is computed,
never which result.  Every input is checked before either tier runs.

No kernel takes a backend argument.  Each resolves the tier when it is
called, by :func:`resolve_backend`, strongest first:

1. a name passed to :func:`resolve_backend` itself (how
   :func:`repro.run.execute` reads ``RunConfig.backend``);
2. the innermost :func:`use_backend` scope around the call (a
   :class:`~contextvars.ContextVar`, so concurrent threads keep their
   own; :func:`repro.run.execute` runs each job inside one);
3. the default, ``vectorized``.

``CC=false`` (no C compiler) makes every tier run its oracle
process-wide.

Thread-team tasks do not inherit the submitting thread's context, so
the round driver of :mod:`repro.parallel.mp` hands each task the tier
it resolved and the task opens its own scope.

Every properness verifier (:mod:`repro.coloring.verify`,
:func:`repro.resilience.check_invariants`, the partial D2 verifiers of
:mod:`repro.bipartite`) validates its colors with :func:`check_colors`
and then calls :func:`count_monochromatic_edges` (distance 1) or
:func:`d2_violating_column` (one-sided distance 2), under the same
selection.  So do the CSR assembly and validation behind
:func:`repro.graph.from_edge_arrays` and
:meth:`repro.graph.CSRGraph.check`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from ..graph.csr import CSRGraph
from . import reference
# imported with the package, not on the first kernel call: its stdlib
# imports (subprocess, tempfile) cost milliseconds
from . import compiled

__all__ = [
    "BACKENDS",
    "capacity_sweep",
    "check_colors",
    "count_monochromatic_edges",
    "csr_assemble",
    "csr_check",
    "d2_conflicts",
    "d2_drain_pass",
    "d2_sweep",
    "d2_violating_column",
    "detect_conflicts",
    "detect_cross_conflicts",
    "ff_sweep",
    "resolve_backend",
    "sched_commit",
    "shuffle_drain",
    "use_backend",
]

BACKENDS = ("reference", "vectorized")
_scope: ContextVar[str | None] = ContextVar("repro_kernel_backend", default=None)


def _check_name(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"kernel backend must be one of {BACKENDS}, got {name!r}")
    return name


@contextmanager
def use_backend(name: str | None):
    """Run every kernel called in the block on tier *name* (``None``: no change).

    Scopes nest, and each thread and task sees only its own.  An unknown
    name raises :class:`ValueError`.
    """
    if name is None:
        yield
        return
    token = _scope.set(_check_name(name))
    try:
        yield
    finally:
        _scope.reset(token)


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend name: explicit arg > scope > ``vectorized``."""
    if backend is not None:
        return _check_name(backend)
    return _scope.get() or "vectorized"


# ----------------------------------------------------------------------
# dispatched kernels
# ----------------------------------------------------------------------
def check_colors(colors, length: int, *, unit: str = "vertices",
                 floor: int | None = None) -> np.ndarray:
    """*colors* as a contiguous int64 array, checked for a kernel or verifier.

    Raises :class:`ValueError` unless *colors* is a 1-D integer array
    (an empty one may have any dtype) with *length* entries, none below
    *floor* when one is given.  Nothing is truncated or reinterpreted: a
    float color or a ``-2`` never reaches a check that would read it as a
    color or as uncolored.
    """
    colors = np.asarray(colors)
    if colors.ndim != 1 or (colors.size and colors.dtype.kind not in "iu"):
        raise ValueError(f"colors must be a 1-D integer array, got "
                         f"{colors.dtype} of shape {colors.shape}")
    if colors.shape[0] != length:
        raise ValueError(f"coloring covers {colors.shape[0]} {unit}, graph has "
                         f"{length}")
    colors = np.ascontiguousarray(colors, dtype=np.int64)
    if floor is not None and colors.size and colors.min() < floor:
        raise ValueError(f"colors must be >= {floor}, got {int(colors.min())}")
    return colors


def _item_inputs(work, colors, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked int64 *work* ids in ``[0, bound)`` (default: all) and
    contiguous int64 *colors* of that length (default: all uncolored)."""
    if work is None:
        work = np.arange(bound, dtype=np.int64)
    else:
        work = _check_ids("work", work, bound)
    if colors is None:
        return work, np.full(bound, -1, dtype=np.int64)
    return work, check_colors(colors, bound, unit="items")


def ff_sweep(
    graph: CSRGraph,
    work: np.ndarray | None = None,
    base_colors: np.ndarray | None = None,
) -> np.ndarray:
    """First-Fit sweep over *work* (default: all vertices in id order).

    Returns a full colors array: a copy of *base_colors* (default: all
    uncolored) in which every work vertex, in order, got the smallest
    color not held by any neighbor at its processing time.  *work* ids
    must lie in ``[0, n)`` and *base_colors* must have length n, else
    :class:`ValueError`.  Both tiers produce bit-identical output.
    """
    n = graph.num_vertices
    work, base = _item_inputs(work, base_colors, n)
    lib = _compiled()
    if lib is None:
        return reference.ff_sweep(graph, work, base)
    out = np.array(base, dtype=np.int64)
    stamp = np.zeros(int(graph.degrees[work].max(initial=0)) + 1, dtype=np.int64)
    _call(lib.ff_sweep, out, work, work.shape[0], stamp, stamp.shape[0], graph=graph)
    return out


def capacity_sweep(
    graph: CSRGraph,
    order: np.ndarray,
    capacity: float,
) -> tuple[np.ndarray, int]:
    """First-Fit sweep over *order* under the per-bin capacity γ = *capacity*.

    Every vertex starts uncolored; each vertex of *order*, in turn, takes
    the smallest color no neighbor holds whose bin holds fewer than
    *capacity* vertices, opening colors past the current count when it
    must.  Returns ``(colors, num_colors)``; vertices not in *order* stay
    ``-1``.  *order* must list ids in ``[0, n)``, each at most once, and
    *capacity* must be positive when *order* is not empty, else
    :class:`ValueError`.  Both tiers produce bit-identical output.
    """
    n = graph.num_vertices
    order = _check_ids("order", order, n)
    capacity = float(capacity)
    if order.size:
        if not capacity > 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if np.bincount(order, minlength=n).max() > 1:
            raise ValueError("order must list each vertex at most once")
    lib = _compiled()
    if lib is None:
        return reference.capacity_sweep(graph, order, capacity)
    colors = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(n + 1, dtype=np.int64)
    forbidden = np.full(n + 1, -1, dtype=np.int64)
    num_colors = _call(lib.capacity_sweep, colors, order, order.shape[0], capacity,
                       sizes, forbidden, n + 1, graph=graph)
    return colors, num_colors


def _check_num_rows(graph: CSRGraph, num_rows: int) -> int:
    if not 0 < num_rows <= graph.num_vertices:
        raise ValueError(
            f"num_rows must be in [1, {graph.num_vertices}], got {num_rows}"
        )
    return int(num_rows)


def d2_sweep(
    graph: CSRGraph,
    num_rows: int,
    work: np.ndarray | None = None,
    base_colors: np.ndarray | None = None,
) -> np.ndarray:
    """One-sided distance-2 First-Fit sweep over a bipartite incidence graph.

    *graph* must be bipartite with the row side on vertices
    ``[0, num_rows)`` (see :class:`repro.bipartite.BipartiteGraph`); only
    rows are colored.  *work* defaults to all rows in id order,
    *base_colors* (length ``num_rows``) to all uncolored; work ids outside
    ``[0, num_rows)`` or a base of another length raise
    :class:`ValueError`.  Each work row, in order, gets the smallest color
    not held by any other row within two hops (i.e. sharing a column) at
    its processing time.  Both tiers produce bit-identical output.
    """
    nr = _check_num_rows(graph, num_rows)
    work, base = _item_inputs(work, base_colors, nr)
    lib = _compiled()
    if lib is None:
        return reference.d2_sweep(graph, nr, work, base)
    out = np.array(base, dtype=np.int64)
    stamp = np.zeros(nr + 1, dtype=np.int64)
    _call(lib.d2_sweep, nr, out, work, work.shape[0], stamp, graph=graph,
          message=_not_incidence(nr))
    return out


def d2_conflicts(
    graph: CSRGraph,
    num_rows: int,
    colors: np.ndarray,
    work: np.ndarray | None = None,
    *,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Distance-2 conflict detection over a bipartite incidence graph.

    Returns the sorted unique *work* rows (default: all rows) that must be
    recolored: within every monochromatic group of rows sharing a column,
    all in-work rows except the minimum id lose, and the minimum loses too
    when a finalized row holds the same color.  Put row by row, a colored
    work row is retried when a row sharing a column holds its color and
    has a lower id or is not in *work*.  Every path produces the identical
    retry set.  *colors* must be an integer array of length *num_rows*,
    *work* ids must lie in ``[0, num_rows)``, else :class:`ValueError`.

    Both tiers decide per column, the way Taş & Kaya detect per net: the
    oracle groups each column's rows by color, and the C loop makes two
    passes over each column's rows (the lowest row and any finalized row
    per color, then the losers), so a round costs Σ deg(column) over the
    columns it visits instead of each work row's whole two-hop
    neighbourhood.  Sparse color ids are ranked before the C loop sizes
    its per-color scratch.

    *cols* restricts the scan to the given column vertex ids (in
    ``[num_rows, n)``).  The default is the columns adjacent to the work
    rows — an exact restriction, since a column no work row touches can
    never yield a retry.  Per-column decisions are independent, so
    disjoint *cols* subsets can be scanned in parallel and unioned; the
    benchmark's modeled detection threads rely on exactly that.
    """
    nr = _check_num_rows(graph, num_rows)
    work, colors = _item_inputs(work, colors, nr)
    if cols is not None:
        cols = _check_ids("cols", cols, graph.num_vertices, low=nr)
    if work.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    lib = _compiled()
    if lib is None:
        return reference.d2_conflicts(graph, nr, colors, work, cols)
    colors = _ranked_colors(colors, nr)
    top = int(colors.max(initial=-1)) + 1
    at, first = np.full(top, -1, dtype=np.int64), np.empty(top, dtype=np.int64)
    seen = np.zeros(graph.num_vertices - nr, dtype=np.uint8) if cols is None else None
    mark = np.zeros(nr, dtype=np.uint8)
    out = np.empty(work.shape[0], dtype=np.int64)
    count = _call(lib.d2_conflicts, nr, colors, work, work.shape[0], cols,
                  0 if cols is None else cols.shape[0], seen, at, first, mark, out,
                  graph=graph, message=_not_incidence(nr))
    return np.sort(out[:count])


def detect_conflicts(
    graph: CSRGraph,
    colors: np.ndarray,
    work_list: np.ndarray,
) -> np.ndarray:
    """Higher-id endpoints of monochromatic edges incident on *work_list*.

    This is the resolution rule of the speculation protocol (Çatalyürek et
    al.): of every monochromatic edge whose higher endpoint speculated this
    round, the higher-id endpoint loses and is retried.  Put vertex by
    vertex, a colored work vertex is retried when a lower-id neighbor
    holds its color.  Returns a sorted, deduplicated vertex array,
    identical on every path.  *colors* must be an integer array of length
    n and *work_list* ids must lie in ``[0, n)``, else :class:`ValueError`.
    """
    return _d1_conflicts(graph, colors, work_list, cross=False)


def detect_cross_conflicts(
    graph: CSRGraph,
    colors: np.ndarray,
    work_list: np.ndarray,
) -> np.ndarray:
    """Conflict detection that survives stale-snapshot proposals.

    The classic resolution rule (:func:`detect_conflicts`) retries the
    higher-id endpoint of each monochromatic edge *when that endpoint
    speculated this round*.  A worker fed a stale snapshot can also
    collide with an already-finalized higher-id neighbor — impossible in
    the fault-free protocol (the snapshot shows every finalized color), so
    the classic rule misses it and the improper edge would survive to the
    final coloring.  Here the speculating endpoint is retried in that case
    too; the finalized neighbor keeps its color.  On fault-free rounds the
    extra case never arises, so results stay bit-identical to the classic
    rule.  Put vertex by vertex, a colored work vertex is retried when a
    neighbor holding its color has a lower id or is not in *work_list*.

    The C loop reads only the rows of *work_list*, so a round with little
    work costs little and an out-of-core graph is read only where the
    work is.  Returns a sorted, deduplicated vertex array, identical on
    every path; inputs are checked like :func:`detect_conflicts`.
    """
    return _d1_conflicts(graph, colors, work_list, cross=True)


def _d1_conflicts(graph, colors, work_list, *, cross: bool) -> np.ndarray:
    n = graph.num_vertices
    work, colors = _item_inputs(work_list, colors, n)
    lib = _compiled()
    if lib is None:
        scan = reference.detect_cross_conflicts if cross else reference.detect_conflicts
        return scan(graph, colors, work)
    mark = np.zeros(n, dtype=np.uint8)
    out = np.empty(work.shape[0], dtype=np.int64)
    count = _call(lib.conflicts, colors, work, work.shape[0], int(cross), mark, out,
                  graph=graph)
    return np.sort(out[:count])


def count_monochromatic_edges(graph: CSRGraph, colors: np.ndarray) -> int:
    """Number of edges whose endpoints hold the same color ``>= 0``.

    An uncolored (negative) vertex never conflicts.  *colors* must pass
    :func:`check_colors` for length n.  The C loop walks the CSR rows
    once, reading a memory-mapped graph in place; the oracle streams
    :meth:`~repro.graph.csr.CSRGraph.edge_chunks`.  Both tiers return the
    same count.
    """
    n = graph.num_vertices
    colors = check_colors(colors, n)
    lib = _compiled()
    if lib is None:
        return reference.count_monochromatic_edges(graph, colors)
    return _call(lib.verify, n, colors, 1, None, graph=graph)


def d2_violating_column(graph: CSRGraph, num_rows: int, colors: np.ndarray) -> int:
    """First column holding two colored rows of the same color, or ``-1``.

    *graph* is a bipartite incidence graph with rows on ``[0, num_rows)``
    and columns on ``[num_rows, n)``; the column is counted from 0.
    Uncolored (``-1``) rows never conflict.  *colors* must pass
    :func:`check_colors` for length *num_rows* with floor ``-1``.  The C
    loop stamps each column's colors in one pass over its rows; the
    oracle runs the per-column loop of
    :func:`repro.kernels.reference.d2_violating_column`.  Both tiers
    return the same column.
    """
    nr = _check_num_rows(graph, num_rows)
    colors = check_colors(colors, nr, unit="rows", floor=-1)
    lib = _compiled()
    if lib is None:
        return reference.d2_violating_column(graph, nr, colors)
    colors = _ranked_colors(colors, nr)
    stamp = np.full(int(colors.max(initial=-1)) + 1, -1, dtype=np.int64)
    # -1 is a result here ("no violating column"), so an error is -2
    return _call(lib.verify, nr, colors, 2, stamp, graph=graph, floor=-1,
                 message=_not_incidence(nr))


def shuffle_drain(
    graph: CSRGraph,
    colors: np.ndarray,
    sizes: np.ndarray,
    g: float,
    *,
    choice: str,
    traversal: str,
    vertex_w: np.ndarray,
    recorder=None,
) -> int:
    """The paper's unscheduled-shuffling pass toward γ = *g*, in place;
    returns the move count.

    The candidates are the vertices of the bins over γ when the pass
    starts, in the groups of :func:`repro.kernels.reference.shuffle_groups`:
    one per over-full bin in increasing index for ``traversal="color"``,
    one interleaving all bins for ``"vertex"``.  Each candidate, in
    vertex-id order, leaves its bin while that bin is still over γ, for
    the first (``choice="ff"``) or first least-used (``"lu"``) bin under
    γ that no neighbor holds, moving its weight ``vertex_w[v]`` between
    the bin *sizes*.  Both tiers give bit-identical colors, sizes and
    moves.

    ``recorder`` (optional :class:`repro.obs.Recorder`) receives one
    ``drain_round`` event per group: its source bin (``-1`` for the vertex
    traversal), its moves and the live RSD of the bin sizes.  Purely
    observational.

    *sizes* must be a writeable contiguous float64 array (length C),
    *colors* a writeable contiguous int64 array of length n with values in
    ``[0, C)``, *vertex_w* a float64 array of length n, sizes and weights
    finite, *g* a finite number, *choice* ``"ff"`` or ``"lu"`` and
    *traversal* ``"vertex"`` or ``"color"``, else :class:`ValueError`.
    """
    if choice not in ("ff", "lu"):
        raise ValueError(f"choice must be 'ff' or 'lu', got {choice!r}")
    if traversal not in ("vertex", "color"):
        raise ValueError(f"traversal must be 'vertex' or 'color', got {traversal!r}")
    n = graph.num_vertices
    _graph_arrays(graph)  # checked on both tiers
    C = _check_inout("sizes", sizes, np.float64, None).shape[0]
    _check_inout("colors", colors, np.int64, n)
    if n and (colors.min() < 0 or colors.max() >= C):
        raise ValueError(f"colors must lie in [0, {C})")
    vertex_w = np.asarray(vertex_w)
    if vertex_w.dtype != np.float64 or vertex_w.shape != (n,):
        raise ValueError(f"vertex_w must be a 1-D float64 array of length {n}")
    vertex_w = np.ascontiguousarray(vertex_w)
    g = float(g)
    if not (np.isfinite(g) and np.isfinite(sizes).all() and np.isfinite(vertex_w).all()):
        raise ValueError("g, sizes and vertex_w must be finite")
    from ..obs import as_recorder

    recorder = as_recorder(recorder)
    lib = _compiled()
    stamp = np.zeros(C, dtype=np.int64)
    moves = seen = 0
    for source, group in reference.shuffle_groups(colors, sizes, g, traversal):
        if lib is None:
            group_moves = reference.shuffle_drain(graph, colors, sizes, g, group,
                                                  choice, vertex_w)
        else:
            group_moves = _call(lib.shuffle_drain, colors, sizes, C, g, vertex_w, group,
                                group.shape[0], int(choice == "lu"), stamp, seen,
                                graph=graph)
        seen += group.shape[0]
        moves += group_moves
        if recorder.enabled:
            mean = sizes.mean() if C else 0.0
            recorder.event("drain_round", source_bin=source, moves=group_moves,
                           rsd_percent=float(100.0 * sizes.std() / mean) if mean else 0.0)
    return moves


# ----------------------------------------------------------------------
# the two tiers: C when it loads, else the oracle
# ----------------------------------------------------------------------
def _compiled():
    """The compiled library, or ``None`` when the oracle must run.

    A resolved ``reference`` backend always runs the oracle; any other
    resolution runs C if it loaded.
    """
    if resolve_backend() == "reference":
        return None
    return compiled.load()


def _call(kernel, *args, graph: CSRGraph | None = None, floor: int = 0,
          message: str = "graph is not a valid CSR") -> int:
    """Run the C loop *kernel* on *args*; returns what it returns.

    With *graph*, the checked ``(indptr, indices, n, nnz)`` of *graph* go
    first.  Each array is passed as its data pointer (*args* holds it for
    the length of the call) and ``None`` as a NULL pointer.  A return
    below *floor* (how the loops report an out-of-range graph index)
    raises ``ValueError(message)``.
    """
    if graph is not None:
        indptr, indices = _graph_arrays(graph)
        args = (indptr, indices, graph.num_vertices, indices.shape[0], *args)
    result = kernel(*[a.ctypes.data if isinstance(a, np.ndarray) else a for a in args])
    if result < floor:
        raise ValueError(message)
    return result


def _not_incidence(num_rows: int) -> str:
    return f"graph is not a valid incidence CSR with rows [0, {num_rows})"


def _graph_arrays(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    indptr, indices = graph.indptr, graph.indices
    for name, arr in (("indptr", indptr), ("indices", indices)):
        if arr.dtype != np.int64 or arr.ndim != 1 or not arr.flags.c_contiguous:
            raise ValueError(f"graph {name} must be a contiguous 1-D int64 array")
    return indptr, indices


def _check_inout(name: str, arr, dtype, length: int | None) -> np.ndarray:
    """*arr* is mutated in place, so it must already be exactly right."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == 1
            and arr.flags.c_contiguous and arr.flags.writeable
            and length in (None, arr.shape[0])):
        raise ValueError(f"{name} must be a writeable contiguous 1-D "
                         f"{np.dtype(dtype).name} array"
                         + ("" if length is None else f" of length {length}"))
    return arr


def _check_ids(name: str, ids, bound: int | None, low: int = 0) -> np.ndarray:
    ids = np.asarray(ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a 1-D integer array")
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < low or (bound is not None and ids.max() >= bound)):
        raise ValueError(f"{name} must lie in [{low}, {bound})" if bound is not None
                         else f"{name} must be >= {low}")
    return ids


def _ranked_colors(colors: np.ndarray, size: int) -> np.ndarray:
    """*colors* (checked, length *size*) as they are when no color exceeds
    *size*; else the colors >= 0 replaced by their ranks and every negative
    one by -1.  Either way per-color scratch needs at most ``size + 1``
    entries."""
    if int(colors.max(initial=-1)) <= size:
        return colors
    ids, ranks = np.unique(colors, return_inverse=True)
    ranks = ranks.reshape(-1) - np.searchsorted(ids, 0)
    return np.ascontiguousarray(np.maximum(ranks, -1), dtype=np.int64)


def d2_drain_pass(
    graph: CSRGraph,
    num_rows: int,
    colors: np.ndarray,
    sizes: np.ndarray,
    under: np.ndarray,
    g: float,
    candidates: np.ndarray,
    *,
    choice: str,
    cache: dict | None = None,
) -> int:
    """One pass of the one-sided D2 balance drain, in place; returns the moves.

    *graph* is a bipartite incidence graph with rows on ``[0, num_rows)``.
    *colors* (int64, length ``num_rows``, ``-1`` = uncolored), *sizes*
    (float64 class sizes, length C) and *under* (bool, length C+1, the
    ``sizes < g`` mask with slot C False) are mutated in place.  Each
    colored row of *candidates*, in order, leaves its class j while that
    class is over γ = *g*, for the first (``choice="ff"``) or first
    smallest (``"lu"``) under-full class k with ``sizes[k] + 1 < sizes[j]``
    that no row sharing a column with it holds.  Both paths agree bit for bit.

    The Python loop walks a two-hop list; pass the same *cache* dict to
    every pass of one drain so it is built at most once (the C loop walks
    the incidence CSR directly and never builds it).
    """
    nr = _check_num_rows(graph, num_rows)
    if choice not in ("ff", "lu"):
        raise ValueError(f"choice must be 'ff' or 'lu', got {choice!r}")
    _graph_arrays(graph)  # checked on both tiers
    C = _check_inout("sizes", sizes, np.float64, None).shape[0]
    _check_inout("colors", colors, np.int64, nr)
    _check_inout("under", under, np.bool_, C + 1)
    if colors.min() < -1 or colors.max() >= C:
        raise ValueError(f"colors must lie in [-1, {C})")
    candidates = _check_ids("candidates", candidates, nr)
    if candidates.size == 0:
        return 0
    if colors[candidates].min() < 0:
        raise ValueError("every candidate must be a colored row")
    g = float(g)
    lib = _compiled()
    if lib is None:
        cache = {} if cache is None else cache
        if "two_hop" not in cache:
            cache["two_hop"] = reference.two_hop_rows(graph, nr)
        ptr, nbr = cache["two_hop"]
        return reference.d2_drain_pass(ptr, nbr, colors, sizes, under, g,
                                       candidates, choice)
    stamp = np.zeros(C, dtype=np.int64)
    return _call(lib.d2_drain_pass, nr, colors, sizes, under, C, g, candidates,
                 candidates.shape[0], int(choice == "lu"), stamp, graph=graph,
                 message=_not_incidence(nr))


def sched_commit(
    graph: CSRGraph,
    colors: np.ndarray,
    vertices: np.ndarray,
    targets: np.ndarray,
) -> int:
    """Sched-Rev's move phase, in place; returns the number of commits.

    Attempts each planned move ``vertices[i] → targets[i]`` once, in
    order: it commits only if no neighbor holds the target in the live
    *colors* (int64, length n).  A negative target, which would uncolor
    its vertex, raises :class:`ValueError`.  Both paths give
    bit-identical results.
    """
    n = graph.num_vertices
    _graph_arrays(graph)  # checked on both tiers
    _check_inout("colors", colors, np.int64, n)
    vertices = _check_ids("vertices", vertices, n)
    targets = _check_ids("targets", targets, None)
    if targets.shape[0] != vertices.shape[0]:
        raise ValueError(f"{vertices.shape[0]} vertices but "
                         f"{targets.shape[0]} targets")
    lib = _compiled()
    if lib is None:
        return reference.sched_commit(graph, colors, vertices, targets)
    return _call(lib.sched_commit, colors, vertices, targets, vertices.shape[0],
                 graph=graph)


def csr_assemble(u, v, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the simple graph with edges ``{u[i], v[i]}``
    over *num_vertices* vertices: self-loops dropped, duplicates collapsed,
    both directions stored, each row's neighbors in increasing order.

    The CSR of a simple graph is canonical, so both tiers give the same
    arrays.  *u* and *v* must be 1-D integer arrays of one length with ids
    in ``[0, num_vertices)``, else :class:`ValueError`.
    """
    u, v = np.asarray(u), np.asarray(v)
    for arr in (u, v):
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError("endpoints must be 1-D integer arrays")
    u = np.ascontiguousarray(u, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError(f"endpoint arrays differ in length: {u.shape} vs {v.shape}")
    if u.size and (u.min() < 0 or v.min() < 0):
        raise ValueError("vertex ids must be non-negative")
    n = int(num_vertices)
    if n < 0:
        raise ValueError(f"num_vertices must be >= 0, got {n}")
    if u.size and max(u.max(), v.max()) >= n:
        raise ValueError("vertex id exceeds num_vertices")
    lib = _compiled()
    if lib is None:
        return reference.csr_assemble(u, v, n)
    m = u.shape[0]
    indptr, pos = np.zeros(n + 1, dtype=np.int64), np.empty(n, dtype=np.int64)
    tmp, indices = np.empty(2 * m, dtype=np.int64), np.empty(2 * m, dtype=np.int64)
    kept = _call(lib.csr_assemble, u, v, m, n, indptr, pos, tmp, indices,
                 message="vertex id exceeds num_vertices")
    # self-loops and duplicates leave slack: copy so the graph does not pin it
    return indptr, indices if kept == 2 * m else indices[:kept].copy()


def csr_check(graph: CSRGraph) -> None:
    """Validate *graph*'s CSR; raise :class:`ValueError` on a violation.

    The invariants of :data:`repro.kernels.reference.CSR_ERRORS` are tested
    in order (monotone indptr with matching endpoints, index bounds, no
    self-loops, strictly increasing rows, symmetry), and the first one
    violated names the error on both tiers.  The C loop reads the arrays in
    place, so a memory-mapped graph is checked without copying it.
    """
    indptr, _ = _graph_arrays(graph)
    if indptr.shape[0] == 0:
        raise ValueError("indptr must have at least one entry")
    lib = _compiled()
    if lib is None:
        return reference.csr_check(graph)
    # returns 0, or the number of the first invariant violated
    failed = _call(lib.csr_check, np.empty(graph.num_vertices, dtype=np.int64),
                   graph=graph)
    if failed:
        raise ValueError(reference.CSR_ERRORS[failed - 1])
