"""Balanced recoloring after graph churn.

A mutated graph (see :mod:`repro.graph.delta`) keeps the vertex ids of
its base, and appends new vertices at the tail.  The ``incremental``
strategy re-colors it from the base coloring in two steps:

1. **Carry-forward** (:func:`carry_forward`): surviving vertices keep
   their base color; appended vertices are FF-seeded sequentially in id
   order.  Removing edges never creates a conflict, so after this step
   the only possible conflicts sit on *added* edges.
2. **Full re-color**: :func:`~repro.coloring.recolor.balanced_recoloring`
   of the carried-forward coloring, which is exactly what a from-scratch
   caller would run on the mutated graph.  It re-colors every vertex, so
   every conflict is gone and the balance is Recoloring's.

The full re-color runs even for a tiny delta: with the capacity sweep in
C it is faster than repairing and draining only the dirty region
(DESIGN.md §13 has the measurements).
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..graph.csr import CSRGraph
from ..obs import as_recorder
from .recolor import balanced_recoloring
from .types import Coloring

__all__ = ["carry_forward", "incremental_recolor"]


def carry_forward(graph: CSRGraph, base: Coloring) -> Coloring:
    """Extend *base* to *graph*: old vertices keep colors, new ones FF-seed.

    *graph* must have at least as many vertices as *base* colored (vertex
    ids are stable under mutation — appended vertices take the tail ids).
    New vertices are seeded sequentially in increasing id with the
    smallest color no neighbor holds, which may extend the palette.  The
    result is **not** guaranteed proper on added edges between old
    vertices, but every vertex has a valid color, so it is a well-formed
    :class:`Coloring`.
    """
    n = graph.num_vertices
    n_old = base.num_vertices
    if n_old > n:
        raise ValueError(
            f"base coloring has {n_old} vertices but mutated graph has {n}"
        )
    carried = np.full(n, -1, dtype=np.int64)
    carried[:n_old] = base.colors
    colors = kernels.ff_sweep(graph, np.arange(n_old, n, dtype=np.int64), carried)
    num_colors = max(base.num_colors, int(colors[n_old:].max(initial=-1)) + 1)
    return Coloring(colors, num_colors, strategy="carry-forward",
                    meta={"base_strategy": base.strategy,
                          "seeded_vertices": n - n_old})


def incremental_recolor(
    graph: CSRGraph,
    base: Coloring,
    *,
    recorder=None,
) -> Coloring:
    """Re-color the mutated *graph* starting from *base*.

    Returns ``balanced_recoloring(graph, carry_forward(graph, base))``
    with strategy ``incremental``; its ``meta`` adds ``seeded`` (the
    appended vertices).
    """
    rec = as_recorder(recorder)
    with rec.phase("incremental"):
        seeded = carry_forward(graph, base)
        result = balanced_recoloring(graph, seeded, recorder=recorder)
    return Coloring(result.colors, result.num_colors, strategy="incremental",
                    meta={**result.meta, "base_strategy": base.strategy,
                          "seeded": seeded.meta["seeded_vertices"]})
