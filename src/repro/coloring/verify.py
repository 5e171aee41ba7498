"""Coloring validity checks.

Used by the test-suite on every strategy's output, by the serving
backends on every result they return, and by the benchmarks.  Every check
validates its colors with :func:`repro.kernels.check_colors` (a 1-D
integer array with one entry per vertex, else :class:`ValueError`) and
counts monochromatic edges with the dispatched
:func:`repro.kernels.count_monochromatic_edges`: one compiled pass over
the CSR rows when the C library loads, else an
:meth:`~repro.graph.csr.CSRGraph.edge_chunks` scan.  An uncolored
(negative) vertex never conflicts.  Only an improper coloring pays for a
second scan, to name what is wrong.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..graph.csr import CSRGraph
from .types import Coloring

__all__ = ["is_proper", "assert_proper", "count_conflicts", "conflicting_vertices"]


def _raw(coloring: Coloring | np.ndarray) -> np.ndarray:
    return coloring.colors if isinstance(coloring, Coloring) else np.asarray(coloring)


def _color_array(graph: CSRGraph, coloring: Coloring | np.ndarray) -> np.ndarray:
    return kernels.check_colors(_raw(coloring), graph.num_vertices)


def count_conflicts(graph: CSRGraph, coloring: Coloring | np.ndarray) -> int:
    """Number of edges whose endpoints share a color ``>= 0`` (0 for proper).

    Uncolored vertices never conflict; colors that are not a 1-D integer
    array of length n raise :class:`ValueError`.
    """
    return kernels.count_monochromatic_edges(graph, _color_array(graph, coloring))


def is_proper(graph: CSRGraph, coloring: Coloring | np.ndarray) -> bool:
    """True iff no edge is monochromatic and every vertex is colored."""
    colors = _color_array(graph, coloring)
    if colors.size and colors.min() < 0:
        return False
    return kernels.count_monochromatic_edges(graph, colors) == 0


def assert_proper(graph: CSRGraph, coloring: Coloring | np.ndarray) -> None:
    """Raise ``AssertionError`` naming a violating edge if improper.

    A 1-D coloring of the wrong length is an ``AssertionError`` too; any
    other malformed coloring raises :class:`ValueError`.
    """
    raw = _raw(coloring)
    if raw.ndim == 1 and raw.shape[0] != graph.num_vertices:
        raise AssertionError(
            f"coloring covers {raw.shape[0]} vertices, graph has {graph.num_vertices}"
        )
    colors = _color_array(graph, raw)
    if colors.size and colors.min() < 0:
        v = int(np.argmin(colors))
        raise AssertionError(f"vertex {v} is uncolored")
    total = kernels.count_monochromatic_edges(graph, colors)
    if total == 0:
        return
    for u, v in graph.edge_chunks():
        bad = np.nonzero(colors[u] == colors[v])[0]
        if bad.size:
            i = int(bad[0])
            raise AssertionError(
                f"edge ({int(u[i])}, {int(v[i])}) is monochromatic with color "
                f"{int(colors[u[i]])} ({total} conflicting edges total)"
            )


def conflicting_vertices(graph: CSRGraph, colors: np.ndarray) -> np.ndarray:
    """Vertices that lose the paper's tie-break on a monochromatic edge.

    Algorithm 2/5 re-process the *higher-id* endpoint of each conflict
    (``color[w] == color[v] >= 0 and v > w``); this returns exactly that
    set, sorted: the retry set of :func:`repro.kernels.detect_conflicts`
    with every vertex in the work list.
    """
    colors = _color_array(graph, colors)
    return kernels.detect_conflicts(
        graph, colors, np.arange(graph.num_vertices, dtype=np.int64))
