"""Backend-dispatched compute kernels for the coloring hot paths.

The hot loops of the library — the Greedy First-Fit sweep, the
unscheduled-shuffling drain, and the bulk conflict/bin accounting shared
by the speculation-and-iteration algorithms — are available as two
backends:

``reference``
    The original per-vertex Python loops (:mod:`repro.kernels.reference`).
    Semantic ground truth: the oracle every other form is tested against.
``vectorized``
    The fast tier.  The First-Fit and one-sided D2 sweeps run as compiled
    C loops (:mod:`repro.kernels.compiled`) when the library loads, else
    as whole-array NumPy rounds (:mod:`repro.kernels.vectorized`) built
    on the paper's own speculate-and-resolve structure; every form is
    bit-identical to the reference.  The shuffle drain runs NumPy rounds
    that reach the same balance regime through round-synchronous batched
    moves.

Backend selection, strongest first:

1. an explicit ``backend=`` argument on the public API
   (:func:`repro.coloring.greedy_coloring`,
   :func:`repro.coloring.shuffle_balance`,
   :func:`repro.coloring.iterated_greedy`,
   :func:`repro.parallel.mp.mp_greedy_ff`, ...);
2. a process-wide override installed with :func:`set_default_backend`;
3. the ``REPRO_KERNEL_BACKEND`` environment variable;
4. the call site's default: ``vectorized`` wherever the backends are
   bit-identical (the sweeps), ``reference`` where they are only
   statistically equivalent (the shuffle drain), so that the paper-pinned
   golden results stay reproducible unless a backend is requested.

The sequential loops have a Python form in :mod:`repro.kernels.reference`
and a bit-identical C form in :mod:`repro.kernels.compiled`, compiled
once with the system C compiler: the sweeps (:func:`ff_sweep`,
:func:`d2_sweep`) and two loops with no whole-array form, one pass of the
one-sided D2 balance drain (:func:`d2_drain_pass`) and the Sched-Rev move
commit (:func:`sched_commit`).  A resolved ``reference`` backend runs the
Python loop, which stays the oracle.  Any other resolution runs C if the
library loaded, else the NumPy rounds (sweeps) or the Python loop (drain
pass, commit).
"""

from __future__ import annotations

import os

import numpy as np

from ..graph.csr import CSRGraph
# imported with the package, not on the first kernel call: its stdlib
# imports (subprocess, tempfile) cost milliseconds
from . import compiled
from .conflicts import (
    bin_sizes,
    count_monochromatic_edges,
    detect_conflicts,
    monochromatic_edges,
)

__all__ = [
    "BACKENDS",
    "available_backends",
    "bin_sizes",
    "count_monochromatic_edges",
    "d2_conflicts",
    "d2_drain_pass",
    "d2_sweep",
    "detect_conflicts",
    "ff_sweep",
    "get_default_backend",
    "monochromatic_edges",
    "resolve_backend",
    "sched_commit",
    "set_default_backend",
    "shuffle_drain",
]

BACKENDS = ("reference", "vectorized")
_ENV_VAR = "REPRO_KERNEL_BACKEND"
_override: str | None = None


def available_backends() -> tuple[str, ...]:
    """Names of the selectable kernel backends."""
    return BACKENDS


def _check_name(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"kernel backend must be one of {BACKENDS}, got {name!r}")
    return name


def set_default_backend(name: str | None) -> None:
    """Install a process-wide backend override (``None`` removes it)."""
    global _override
    _override = None if name is None else _check_name(name)


def get_default_backend() -> str | None:
    """The override or environment selection, or ``None`` if neither is set."""
    if _override is not None:
        return _override
    env = os.environ.get(_ENV_VAR, "").strip().lower()
    if env:
        if env not in BACKENDS:
            raise ValueError(
                f"{_ENV_VAR} must be one of {BACKENDS}, got {env!r}"
            )
        return env
    return None


def resolve_backend(backend: str | None = None, *, default: str = "vectorized") -> str:
    """Resolve a backend name: explicit arg > override > env var > *default*."""
    if backend is not None:
        return _check_name(backend)
    selected = get_default_backend()
    if selected is not None:
        return selected
    return _check_name(default)


# ----------------------------------------------------------------------
# dispatched kernels
# ----------------------------------------------------------------------
def _sweep_inputs(work, base_colors, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked int64 *work* ids in ``[0, bound)`` and *base_colors* of that length."""
    if work is None:
        work = np.arange(bound, dtype=np.int64)
    else:
        work = _check_ids("work", work, bound)
    if base_colors is None:
        return work, np.full(bound, -1, dtype=np.int64)
    base = np.asarray(base_colors)
    if base.shape != (bound,) or (bound and base.dtype.kind not in "iu"):
        raise ValueError(f"base_colors must be a 1-D integer array of length {bound}")
    return work, base.astype(np.int64, copy=False)


def ff_sweep(
    graph: CSRGraph,
    work: np.ndarray | None = None,
    base_colors: np.ndarray | None = None,
    *,
    backend: str | None = None,
) -> np.ndarray:
    """First-Fit sweep over *work* (default: all vertices in id order).

    Returns a full colors array: a copy of *base_colors* (default: all
    uncolored) in which every work vertex, in order, got the smallest
    color not held by any neighbor at its processing time.  *work* ids
    must lie in ``[0, n)`` and *base_colors* must have length n, else
    :class:`ValueError`.  Every path produces bit-identical output; see
    the backend modules for semantics.
    """
    name = resolve_backend(backend)
    n = graph.num_vertices
    work, base = _sweep_inputs(work, base_colors, n)
    lib = _compiled(name)
    if lib is None:
        return _sweep_fallback(name).ff_sweep(graph, work, base)
    indptr, indices = _graph_arrays(graph)
    out = np.array(base, dtype=np.int64)
    if work.shape[0] == 0:
        return out
    stamp = np.zeros(int(graph.degrees[work].max()) + 1, dtype=np.int64)
    if lib.ff_sweep(indptr.ctypes.data, indices.ctypes.data, n, indices.shape[0],
                    out.ctypes.data, work.ctypes.data, work.shape[0],
                    stamp.ctypes.data, stamp.shape[0]) < 0:
        raise ValueError("graph is not a valid CSR")
    return out


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
    *,
    backend: str | None = None,
) -> np.ndarray:
    """One-sided distance-2 First-Fit sweep over a bipartite incidence graph.

    *graph* must be bipartite with the row side on vertices
    ``[0, num_rows)`` (see :class:`repro.bipartite.BipartiteGraph`); only
    rows are colored.  *work* defaults to all rows in id order,
    *base_colors* (length ``num_rows``) to all uncolored; work ids outside
    ``[0, num_rows)`` or a base of another length raise
    :class:`ValueError`.  Each work row, in order, gets the smallest color
    not held by any other row within two hops (i.e. sharing a column) at
    its processing time.  Every path produces bit-identical output.
    """
    name = resolve_backend(backend)
    nr = _check_num_rows(graph, num_rows)
    work, base = _sweep_inputs(work, base_colors, nr)
    lib = _compiled(name)
    if lib is None:
        return _sweep_fallback(name).d2_sweep(graph, nr, work, base)
    indptr, indices = _graph_arrays(graph)
    out = np.array(base, dtype=np.int64)
    if work.shape[0] == 0:
        return out
    stamp = np.zeros(nr + 1, dtype=np.int64)
    if lib.d2_sweep(indptr.ctypes.data, indices.ctypes.data, graph.num_vertices,
                    indices.shape[0], nr, out.ctypes.data, work.ctypes.data,
                    work.shape[0], stamp.ctypes.data) < 0:
        raise ValueError(f"graph is not a valid incidence CSR with rows [0, {nr})")
    return out


def d2_conflicts(
    graph: CSRGraph,
    num_rows: int,
    colors: np.ndarray,
    work: np.ndarray | None = None,
    *,
    cols: np.ndarray | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Distance-2 conflict detection over a bipartite incidence graph.

    Returns the sorted unique *work* rows (default: all rows) that must be
    recolored: within every monochromatic group of rows sharing a column,
    all in-work rows except the minimum id lose, and the minimum loses too
    when a finalized row holds the same color.  Both backends produce the
    identical retry set.

    *cols* restricts the scan to the given column vertex ids.  The
    default is the columns adjacent to the work rows — an exact
    restriction, since a column no work row touches can never yield a
    retry.  Per-column decisions are independent, so disjoint *cols*
    subsets can be scanned in parallel and unioned; the benchmark's
    modeled detection threads rely on exactly that.
    """
    name = resolve_backend(backend)
    nr = _check_num_rows(graph, num_rows)
    if work is None:
        work = np.arange(nr, dtype=np.int64)
    else:
        work = np.asarray(work, dtype=np.int64)
    if work.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    colors = np.asarray(colors, dtype=np.int64)
    if cols is None:
        starts, lens = graph.indptr[work], np.diff(graph.indptr)[work]
        total = int(lens.sum())
        offs = np.repeat(
            starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens
        ) + np.arange(total, dtype=np.int64)
        cols = np.unique(graph.indices[offs])
    else:
        cols = np.asarray(cols, dtype=np.int64)
    from . import reference, vectorized

    impl = vectorized.d2_conflicts if name == "vectorized" else reference.d2_conflicts
    return impl(graph, nr, colors, work, cols)


def shuffle_drain(
    graph: CSRGraph,
    colors: np.ndarray,
    sizes: np.ndarray,
    g: float,
    *,
    choice: str,
    traversal: str,
    vertex_w: np.ndarray,
    backend: str | None = None,
    recorder=None,
) -> int:
    """Drain over-full bins toward γ in place; returns the move count.

    The ``reference`` backend performs the paper's sequential single pass;
    ``vectorized`` performs round-synchronous batched moves until no move
    commits.  Both produce proper colorings with unchanged color count and
    strictly reduced imbalance; move-for-move traces differ, which is why
    this kernel defaults to ``reference`` (golden reproducibility) unless
    a backend is requested.

    ``recorder`` (optional :class:`repro.obs.Recorder`) receives one
    ``drain_round`` event per drain round — moves committed, the source
    bin (``-1`` for the reference vertex traversal's single interleaved
    pass), and the live RSD of the bin sizes.  Purely observational.
    """
    name = resolve_backend(backend, default="reference")
    from ..obs import as_recorder
    from . import reference, vectorized

    impl = vectorized.shuffle_drain if name == "vectorized" else reference.shuffle_drain
    return impl(
        graph, colors, sizes, g, choice=choice, traversal=traversal,
        vertex_w=vertex_w, recorder=as_recorder(recorder),
    )


# ----------------------------------------------------------------------
# compiled sequential loops (C when it loads, else the fallback)
# ----------------------------------------------------------------------
def _compiled(backend: str | None):
    """The compiled library, or ``None`` when a Python or NumPy path must run.

    A resolved ``reference`` backend always runs the Python loop (it is
    the oracle); any other resolution runs C if it loaded.
    """
    if resolve_backend(backend) == "reference":
        return None
    return compiled.load()


def _graph_arrays(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    indptr, indices = graph.indptr, graph.indices
    for name, arr in (("indptr", indptr), ("indices", indices)):
        if arr.dtype != np.int64 or arr.ndim != 1 or not arr.flags.c_contiguous:
            raise ValueError(f"graph {name} must be a contiguous 1-D int64 array")
    return indptr, indices


def _sweep_fallback(name: str):
    """The Python oracle for ``reference``, else the NumPy rounds."""
    if name == "reference":
        from . import reference

        return reference
    from . import vectorized

    return vectorized


def _check_inout(name: str, arr, dtype, length: int | None) -> np.ndarray:
    """*arr* is mutated in place, so it must already be exactly right."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == 1
            and arr.flags.c_contiguous and arr.flags.writeable
            and length in (None, arr.shape[0])):
        raise ValueError(f"{name} must be a writeable contiguous 1-D "
                         f"{np.dtype(dtype).name} array"
                         + ("" if length is None else f" of length {length}"))
    return arr


def _check_ids(name: str, ids, bound: int | None) -> np.ndarray:
    ids = np.asarray(ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a 1-D integer array")
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if bound is not None and ids.size and (ids.min() < 0 or ids.max() >= bound):
        raise ValueError(f"{name} must lie in [0, {bound})")
    return ids


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
    backend: str | None = None,
) -> int:
    """One pass of the one-sided D2 balance drain, in place; returns the moves.

    *graph* is a bipartite incidence graph with rows on ``[0, num_rows)``.
    *colors* (int64, length ``num_rows``, ``-1`` = uncolored), *sizes*
    (float64 class sizes, length C) and *under* (bool, length C+1, the
    ``sizes < g`` mask with slot C False) are mutated in place.  Each
    colored row of *candidates*, in order, leaves its class while that
    class is over γ = *g*, for the first (``choice="ff"``) or first
    smallest (``"lu"``) under-full class that no row sharing a column with
    it holds.  Both paths give bit-identical results.

    The Python loop walks a two-hop list; pass the same *cache* dict to
    every pass of one drain so it is built at most once (the C loop walks
    the incidence CSR directly and never builds it).
    """
    nr = _check_num_rows(graph, num_rows)
    if choice not in ("ff", "lu"):
        raise ValueError(f"choice must be 'ff' or 'lu', got {choice!r}")
    indptr, indices = _graph_arrays(graph)
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
    lib = _compiled(backend)
    if lib is None:
        from . import reference

        cache = {} if cache is None else cache
        if "two_hop" not in cache:
            cache["two_hop"] = reference.two_hop_rows(graph, nr)
        ptr, nbr = cache["two_hop"]
        return reference.d2_drain_pass(ptr, nbr, colors, sizes, under, g,
                                       candidates, choice)
    stamp = np.zeros(C, dtype=np.int64)
    moves = lib.d2_drain_pass(
        indptr.ctypes.data, indices.ctypes.data, graph.num_vertices,
        indices.shape[0], nr, colors.ctypes.data, sizes.ctypes.data,
        under.ctypes.data, C, g, candidates.ctypes.data, candidates.shape[0],
        int(choice == "lu"), stamp.ctypes.data)
    if moves < 0:
        raise ValueError("graph is not a valid incidence CSR with rows "
                         f"[0, {nr})")
    return moves


def sched_commit(
    graph: CSRGraph,
    colors: np.ndarray,
    vertices: np.ndarray,
    targets: np.ndarray,
    *,
    backend: str | None = None,
) -> int:
    """Sched-Rev's move phase, in place; returns the number of commits.

    Attempts each planned move ``vertices[i] → targets[i]`` once, in
    order: it commits only if no neighbor holds the target in the live
    *colors* (int64, length n).  Both paths give bit-identical results.
    """
    n = graph.num_vertices
    indptr, indices = _graph_arrays(graph)
    _check_inout("colors", colors, np.int64, n)
    vertices = _check_ids("vertices", vertices, n)
    targets = _check_ids("targets", targets, None)
    if targets.shape[0] != vertices.shape[0]:
        raise ValueError(f"{vertices.shape[0]} vertices but "
                         f"{targets.shape[0]} targets")
    lib = _compiled(backend)
    if lib is None:
        from . import reference

        return reference.sched_commit(graph, colors, vertices, targets)
    committed = lib.sched_commit(
        indptr.ctypes.data, indices.ctypes.data, n, indices.shape[0],
        colors.ctypes.data, vertices.ctypes.data, targets.ctypes.data,
        vertices.shape[0])
    if committed < 0:
        raise ValueError("graph is not a valid CSR")
    return committed
