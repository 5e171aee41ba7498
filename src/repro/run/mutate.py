"""One-call mutation pipeline: apply a delta, then re-color from the base.

:func:`mutate` is the run-layer front door for graph churn, mirroring
:func:`~repro.run.pipeline.execute` for the static case.  It applies a
:class:`~repro.graph.delta.MutationBatch` to a base graph, builds the
``incremental``-strategy :class:`~repro.run.config.RunConfig` (the dirty
set travels in ``strategy_kwargs``, so the config stays
JSON-round-trippable and the serving layer can fingerprint it), and runs
the standard pipeline with the base coloring as the carried-forward
initial.  The serve layer's ``POST /mutate`` is this function behind a
job queue.
"""

from __future__ import annotations

from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from ..graph.delta import MutationBatch, apply_delta
from .config import RunConfig, RunResult
from .pipeline import execute

__all__ = ["mutate", "mutation_config"]


def mutation_config(
    dirty,
    *,
    mode: str = "sequential",
    threads: int = 1,
    backend: str | None = None,
    machine: str | None = None,
    on_failure: str = "raise",
) -> RunConfig:
    """The canonical ``incremental`` RunConfig for a mutation.

    ``dirty`` is stored as a plain list of ints so ``config.to_dict()``
    stays JSON-serializable — the property the serving layer's
    content-addressed keys depend on.
    """
    return RunConfig(
        "incremental",
        mode=mode,
        threads=threads,
        backend=backend,
        machine=machine,
        on_failure=on_failure,
        strategy_kwargs={"dirty": [int(v) for v in dirty]},
    )


def mutate(
    graph: CSRGraph,
    coloring: Coloring,
    batch: MutationBatch,
    *,
    mode: str = "sequential",
    threads: int = 1,
    backend: str | None = None,
    machine: str | None = None,
    on_failure: str = "raise",
    recorder=None,
) -> tuple[CSRGraph, RunResult]:
    """Apply *batch* to *graph* and re-color it from *coloring*.

    Returns ``(mutated_graph, result)`` where ``result`` is a full
    :class:`RunResult` of the ``incremental`` strategy on the mutated
    graph (so balance stats, traces, and healing policy all behave
    exactly as for any other run).  *graph* and *coloring* are untouched.
    """
    mutated, dirty = apply_delta(graph, batch)
    config = mutation_config(dirty, mode=mode, threads=threads, backend=backend,
                             machine=machine, on_failure=on_failure)
    result = execute(mutated, config, initial=coloring, recorder=recorder)
    return mutated, result
