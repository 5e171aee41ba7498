"""Recoloring-based balancing and Culberson's Iterated Greedy.

**Iterated Greedy** (Culberson): if vertices are re-processed grouped by
their current color classes, Greedy-FF is guaranteed to use no more colors
than before; listing the classes in *reverse* order tends to strictly
reduce the count.  :func:`iterated_greedy` applies this, and the tests
verify the never-more-colors guarantee as a property.

**Balanced Recoloring** (Table I, Algorithm 5 sequential form) extends the
same reverse-class sweep with a capacity constraint: a vertex takes the
smallest permissible color whose bin holds fewer than γ = |V|/C vertices,
opening colors beyond C when everything below is full or hostile — which is
why Recoloring may exceed C slightly (Table III reports e.g. 943 → 945 for
uk-2002).  The sweep is :func:`repro.kernels.capacity_sweep`: a C loop, or
its Python oracle under the ``reference`` backend, bit-identical.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..graph.csr import CSRGraph
from ..obs import as_recorder
from .balance import gamma as _gamma
from .balance import relative_std_dev
from .types import Coloring

__all__ = ["balanced_recoloring", "iterated_greedy", "reverse_class_order"]


def reverse_class_order(coloring: Coloring) -> np.ndarray:
    """Vertices grouped by color class, highest color first.

    Within a class, vertices appear in increasing id.  This is the ordered
    set W = {V(C), V(C-1), ..., V(1)} of the paper.
    """
    # argsort on negated color is stable, so ids stay ascending within class
    return np.argsort(-coloring.colors, kind="stable").astype(np.int64)


def iterated_greedy(
    graph: CSRGraph,
    initial: Coloring,
    *,
    iterations: int = 1,
    recorder=None,
) -> Coloring:
    """Culberson's Iterated Greedy: reverse-class FF sweeps.

    Each sweep is guaranteed to use no more colors than the previous
    coloring; iterating drives the count toward (but not provably to) the
    optimum.  Each sweep is :func:`repro.kernels.ff_sweep` on the tier in
    scope (see :mod:`repro.kernels`).  ``recorder``
    (optional :class:`repro.obs.Recorder`) gets one ``iteration`` event
    per sweep — color count before/after — inside an ``iterated-greedy``
    phase timer; attaching one never changes the result.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    rec = as_recorder(recorder)
    resolved = kernels.resolve_backend()
    current = initial
    with rec.phase("iterated-greedy"):
        for i in range(iterations):
            before = current.num_colors
            order = reverse_class_order(current)
            colors = kernels.ff_sweep(graph, order)
            num_colors = int(colors.max(initial=-1)) + 1
            current = Coloring(colors, num_colors, strategy="iterated-greedy")
            if rec.enabled:
                rec.event("iteration", index=i, colors_before=before,
                          colors_after=num_colors, backend=resolved)
    if rec.enabled:
        rec.event("coloring", strategy="iterated-greedy",
                  num_vertices=current.num_vertices,
                  num_colors=current.num_colors,
                  rsd_percent=relative_std_dev(current.class_sizes()),
                  backend=resolved)
        rec.gauge("iterated-greedy.num_colors", current.num_colors)
    return current.with_meta(
        iterations=iterations, initial_strategy=initial.strategy, backend=resolved
    )


def balanced_recoloring(graph: CSRGraph, initial: Coloring, *,
                        recorder=None) -> Coloring:
    """Balanced Recoloring (sequential Algorithm 5).

    Re-colors every vertex in reverse-class order under the capacity
    γ = |V| / C_initial; may open colors beyond C_initial when necessary.
    The sweep is :func:`repro.kernels.capacity_sweep` on the tier in
    scope (see :mod:`repro.kernels`), named in ``meta["backend"]``.
    """
    resolved = kernels.resolve_backend()
    if initial.num_vertices != graph.num_vertices:
        raise ValueError("coloring does not match graph")
    rec = as_recorder(recorder)
    g = _gamma(initial.num_vertices, initial.num_colors) if initial.num_colors else 0.0
    with rec.phase("recoloring/sweep"):
        order = reverse_class_order(initial)
        colors, num_colors = kernels.capacity_sweep(graph, order, g)
    result = Coloring(
        colors,
        num_colors,
        strategy="recoloring",
        meta={"gamma": g, "initial_colors": initial.num_colors,
              "initial_strategy": initial.strategy, "backend": resolved},
    )
    if rec.enabled:
        rec.event("coloring", strategy="recoloring",
                  num_vertices=result.num_vertices, num_colors=num_colors,
                  rsd_percent=relative_std_dev(result.class_sizes()),
                  gamma=g, initial_colors=initial.num_colors, backend=resolved)
        rec.gauge("recoloring.num_colors", num_colors)
    return result
