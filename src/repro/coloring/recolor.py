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
uk-2002).
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


def _capacity_ff_sweep(
    graph: CSRGraph,
    order: np.ndarray,
    capacity: float,
) -> tuple[np.ndarray, int]:
    """One FF sweep over *order* under a per-bin capacity (γ).

    Returns (colors, num_colors).  The capacity constraint couples every
    placement to the live bin sizes, so this sweep is inherently
    sequential; the unconstrained Iterated-Greedy step dispatches to
    :func:`repro.kernels.ff_sweep` instead.
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
                raise RuntimeError("no permissible bin found within palette limit")
            window_len = min(window_len * 2, limit)
        colors[v] = k
        sizes[k] += 1
        if k >= num_colors:
            num_colors = k + 1
    return colors, num_colors


def iterated_greedy(
    graph: CSRGraph,
    initial: Coloring,
    *,
    iterations: int = 1,
    backend: str | None = None,
    recorder=None,
) -> Coloring:
    """Culberson's Iterated Greedy: reverse-class FF sweeps.

    Each sweep is guaranteed to use no more colors than the previous
    coloring; iterating drives the count toward (but not provably to) the
    optimum.  ``backend`` selects the FF-sweep kernel (see
    :mod:`repro.kernels`); both backends are bit-identical.  ``recorder``
    (optional :class:`repro.obs.Recorder`) gets one ``iteration`` event
    per sweep — color count before/after — inside an ``iterated-greedy``
    phase timer; attaching one never changes the result.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    rec = as_recorder(recorder)
    resolved = kernels.resolve_backend(backend)
    current = initial
    with rec.phase("iterated-greedy"):
        for i in range(iterations):
            before = current.num_colors
            order = reverse_class_order(current)
            colors = kernels.ff_sweep(graph, order, backend=resolved)
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


def balanced_recoloring(
    graph: CSRGraph, initial: Coloring, *, backend: str | None = None,
    recorder=None,
) -> Coloring:
    """Balanced Recoloring (sequential Algorithm 5).

    Re-colors every vertex in reverse-class order under the capacity
    γ = |V| / C_initial; may open colors beyond C_initial when necessary.
    ``backend`` is accepted for API uniformity and validated, but the
    capacity-constrained sweep has only the reference implementation —
    each placement depends on the live bin sizes, so the sweep cannot be
    batched without changing results.
    """
    if backend is not None:
        kernels.resolve_backend(backend)
    if initial.num_vertices != graph.num_vertices:
        raise ValueError("coloring does not match graph")
    rec = as_recorder(recorder)
    g = _gamma(initial.num_vertices, initial.num_colors) if initial.num_colors else 0.0
    with rec.phase("recoloring/sweep"):
        order = reverse_class_order(initial)
        colors, num_colors = _capacity_ff_sweep(graph, order, capacity=g)
    result = Coloring(
        colors,
        num_colors,
        strategy="recoloring",
        meta={"gamma": g, "initial_colors": initial.num_colors,
              "initial_strategy": initial.strategy, "backend": "reference"},
    )
    if rec.enabled:
        rec.event("coloring", strategy="recoloring",
                  num_vertices=result.num_vertices, num_colors=num_colors,
                  rsd_percent=relative_std_dev(result.class_sizes()),
                  gamma=g, initial_colors=initial.num_colors)
        rec.gauge("recoloring.num_colors", num_colors)
    return result
