"""Bulk conflict detection and bin-size accounting.

These whole-array kernels are the shared machinery of every
speculate-and-resolve loop in the library: the tick-machine parallel
Greedy-FF, the multiprocessing backend and parallel Recoloring all (a)
detect monochromatic edges against the current colors array in one
vectorized pass and (b) maintain per-bin size counters.  The two
detection scans (:func:`detect_conflicts`,
:func:`detect_cross_conflicts`) and the edge count
(:func:`count_monochromatic_edges`) are the oracles of the dispatchers
of the same names in :mod:`repro.kernels`, which run C instead when the
library loads; the rest are backend-independent, and every backend uses
them directly.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "bin_sizes",
    "count_monochromatic_edges",
    "detect_conflicts",
    "detect_cross_conflicts",
    "monochromatic_edges",
]


def monochromatic_edges(graph: CSRGraph, colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays ``(u, v)`` (u < v) of edges with equal, assigned colors.

    Vertices with color ``-1`` (uncolored) never conflict.  Edges stream
    through :meth:`~repro.graph.csr.CSRGraph.edge_chunks`, so only the
    (normally tiny) conflicting subset is ever materialized at once —
    an out-of-core graph is scanned in bounded memory.
    """
    us, vs = [], []
    for u, v in graph.edge_chunks():
        mask = (colors[u] == colors[v]) & (colors[u] >= 0)
        us.append(u[mask])
        vs.append(v[mask])
    if not us:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(us), np.concatenate(vs)


def count_monochromatic_edges(graph: CSRGraph, colors: np.ndarray) -> int:
    """Number of monochromatic edges under *colors* (streamed).

    Uncolored (``-1``) vertices never conflict.  The oracle of
    :func:`repro.kernels.count_monochromatic_edges`.
    """
    return sum(
        int(np.count_nonzero((colors[u] == colors[v]) & (colors[u] >= 0)))
        for u, v in graph.edge_chunks()
    )


def detect_conflicts(
    graph: CSRGraph, colors: np.ndarray, work_list: np.ndarray
) -> np.ndarray:
    """Higher-id endpoints of monochromatic edges incident on *work_list*.

    This is the resolution rule of the speculation protocol (Çatalyürek et
    al.): of every monochromatic edge whose higher endpoint speculated this
    round, the higher-id endpoint loses and is retried.  Returns a sorted,
    deduplicated vertex array.  Streams :meth:`edge_chunks` like the
    other scanners here.
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
    :meth:`edge_chunks` like the other scanners here.
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


def bin_sizes(colors: np.ndarray, num_bins: int) -> np.ndarray:
    """Size of each color bin (uncolored ``-1`` entries ignored), as int64."""
    colored = colors[colors >= 0]
    return np.bincount(colored, minlength=num_bins).astype(np.int64)
