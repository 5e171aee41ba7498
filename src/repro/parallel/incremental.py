"""Superstep balanced recoloring after graph churn.

The parallel counterpart of
:func:`repro.coloring.incremental.incremental_recolor`: the base coloring
is carried forward to the mutated graph (:func:`carry_forward`), then
re-colored in full by the speculative
:func:`~repro.parallel.recolor.parallel_recoloring`.  With
``num_threads=1`` the result is bit-identical to the sequential strategy.
"""

from __future__ import annotations

from ..coloring.incremental import carry_forward
from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from .recolor import parallel_recoloring

__all__ = ["parallel_incremental_recolor"]


def parallel_incremental_recolor(
    graph: CSRGraph,
    base: Coloring,
    *,
    num_threads: int = 1,
    max_rounds: int = 100,
    recorder=None,
) -> Coloring:
    """``parallel_recoloring(graph, carry_forward(graph, base))`` with
    strategy ``incremental-parallel``."""
    seeded = carry_forward(graph, base)
    result = parallel_recoloring(graph, seeded, num_threads=num_threads,
                                 max_rounds=max_rounds, recorder=recorder)
    return Coloring(result.colors, result.num_colors,
                    strategy="incremental-parallel",
                    meta={**result.meta, "base_strategy": base.strategy,
                          "seeded": seeded.meta["seeded_vertices"]})
