"""Sequential Greedy coloring (Algorithm 1 of the paper).

One sweep over the vertices in a chosen order; each vertex receives a color
not used by any neighbor, where the *choice rule* distinguishes the
variants studied in the paper:

- ``"ff"`` — First-Fit: the smallest permissible color.  Bounded by Δ+1
  colors for any order, K+1 for the smallest-last order.  Produces the
  heavily skewed class sizes that motivate balancing (Fig. 1a).
- ``"lu"`` — Least-Used (ab initio *Greedy-LU*): the permissible color with
  the smallest current class among colors opened so far; a new color is
  opened only when no existing color is permissible.
- ``"random"`` — ab initio *Greedy-Random*: a uniform choice among
  permissible colors within a fixed palette of ``B = Δ + 1`` colors.

The inner loop follows the classic O(n + m) "stamping" scheme: a scratch
array ``forbidden`` records, per color, the id of the last vertex that saw
that color on a neighbor, so clearing between vertices is free.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..graph.csr import CSRGraph
from ..graph.orderings import vertex_order
from ..obs import as_recorder
from ..util import as_rng, check_permutation
from .balance import relative_std_dev
from .types import Coloring

__all__ = ["greedy_coloring"]

_CHOICES = ("ff", "lu", "random")


def greedy_coloring(
    graph: CSRGraph,
    *,
    choice: str = "ff",
    ordering: str | np.ndarray = "natural",
    seed=None,
    palette_bound: int | None = None,
    recorder=None,
) -> Coloring:
    """Color *graph* with Algorithm 1 and the given color-choice rule.

    Parameters
    ----------
    graph:
        Input graph.
    choice:
        ``"ff"``, ``"lu"``, or ``"random"`` (see module docstring).
    ordering:
        Name of a vertex ordering (see :func:`repro.graph.vertex_order`) or
        an explicit permutation array.
    seed:
        RNG seed used by ``"random"`` choice and the ``"random"`` ordering.
    palette_bound:
        Palette size ``B`` for ``"random"`` choice; defaults to ``Δ + 1``
        (the paper's easy-to-compute bound).  Tighter bounds are allowed —
        e.g. the Greedy-FF color count, which reproduces the paper's
        reported Greedy-Random color counts — and when a vertex finds no
        permissible color within B it falls back to the smallest
        permissible color beyond B (so the coloring always completes).
    recorder:
        Optional :class:`repro.obs.Recorder`.  Emits ``order``/``sweep``
        phase timers and a final ``coloring`` event (colors, RSD, backend).
        Purely observational — the result is identical with or without it.

    Returns
    -------
    Coloring
        A proper coloring; ``strategy`` is ``greedy-<choice>``.

    First-Fit runs :func:`repro.kernels.ff_sweep` on the tier in scope
    (see :mod:`repro.kernels`), and ``meta["backend"]`` names it.
    ``"lu"`` and ``"random"`` always run the sequential Python loop: their
    choice rules thread per-vertex state (live bin sizes, the RNG stream)
    through the sweep, and no kernel implements them.
    """
    if choice not in _CHOICES:
        raise ValueError(f"choice must be one of {_CHOICES}, got {choice!r}")
    rec = as_recorder(recorder)
    n = graph.num_vertices
    with rec.phase(f"greedy-{choice}/order"):
        if isinstance(ordering, str):
            order = vertex_order(graph, ordering, seed=seed)
        else:
            order = check_permutation("ordering", ordering, n)

    ordering_meta = ordering if isinstance(ordering, str) else "explicit"
    if choice == "ff":
        resolved = kernels.resolve_backend()
        with rec.phase("greedy-ff/sweep"):
            colors = kernels.ff_sweep(graph, order)
        num_colors = int(colors.max(initial=-1)) + 1
        result = Coloring(
            colors,
            num_colors,
            strategy="greedy-ff",
            meta={"ordering": ordering_meta, "backend": resolved},
        )
        _emit_coloring(rec, result)
        return result

    rng = as_rng(seed) if choice == "random" else None
    max_deg = graph.max_degree
    if choice == "random":
        bound = palette_bound if palette_bound is not None else max_deg + 1
        if bound < 1:
            raise ValueError(f"palette_bound must be >= 1, got {bound}")
    else:
        bound = max_deg + 1

    colors = np.full(n, -1, dtype=np.int64)
    # overflow headroom past the palette: random choice with a tight bound
    # may need the smallest permissible color beyond B
    limit = bound + max_deg + 2
    sizes = np.zeros(limit, dtype=np.int64)
    forbidden = np.full(limit, -1, dtype=np.int64)  # stamp = current vertex
    indptr, indices = graph.indptr, graph.indices
    num_colors = 0

    with rec.phase(f"greedy-{choice}/sweep"):
        for v in order:
            v = int(v)
            nbr_colors = colors[indices[indptr[v] : indptr[v + 1]]]
            nbr_colors = nbr_colors[nbr_colors >= 0]
            forbidden[nbr_colors] = v

            if choice == "lu":
                if num_colors == 0:
                    k = 0
                else:
                    open_mask = forbidden[:num_colors] != v
                    if open_mask.any():
                        permissible = np.nonzero(open_mask)[0]
                        k = int(permissible[np.argmin(sizes[permissible])])
                    else:
                        k = num_colors  # open a new color
            else:  # random
                open_mask = forbidden[:bound] != v
                permissible = np.nonzero(open_mask)[0]
                if permissible.shape[0]:
                    k = int(permissible[rng.integers(permissible.shape[0])])
                else:
                    # palette exhausted: smallest permissible color beyond B
                    window = forbidden[bound : bound + nbr_colors.shape[0] + 1]
                    k = bound + int(np.argmax(window != v))

            colors[v] = k
            sizes[k] += 1
            if k >= num_colors:
                num_colors = k + 1

    result = Coloring(
        colors,
        num_colors,
        strategy=f"greedy-{choice}",
        meta={"ordering": ordering_meta, "backend": "reference"},
    )
    _emit_coloring(rec, result)
    return result


def _emit_coloring(rec, coloring: Coloring) -> None:
    """Emit the final ``coloring`` event and quality gauges (if recording)."""
    if not rec.enabled:
        return
    sizes = coloring.class_sizes()
    rsd = relative_std_dev(sizes)
    rec.event(
        "coloring",
        strategy=coloring.strategy,
        num_vertices=coloring.num_vertices,
        num_colors=coloring.num_colors,
        rsd_percent=rsd,
        backend=coloring.meta.get("backend"),
    )
    rec.gauge(f"{coloring.strategy}.num_colors", coloring.num_colors)
    rec.gauge(f"{coloring.strategy}.rsd_percent", rsd)
