"""One-call mutation pipeline: apply a delta, then re-color from the base.

:func:`mutate` is the run-layer front door for graph churn, mirroring
:func:`~repro.run.pipeline.execute` for the static case.  It applies a
:class:`~repro.graph.delta.MutationBatch` to a base graph, builds the
``incremental``-strategy :class:`~repro.run.config.RunConfig`, and runs
the standard pipeline with the base coloring as the carried-forward
initial.  The config does not name the delta: the serving layer keys a
mutation job by its base job and the delta's digest
(:func:`~repro.serve.fingerprint.mutation_job_key`).  The serve layer's ``POST /mutate`` is this function behind a
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
    *,
    mode: str = "sequential",
    threads: int = 1,
    backend: str | None = None,
    machine: str | None = None,
    on_failure: str = "raise",
) -> RunConfig:
    """The canonical ``incremental`` RunConfig for a mutation."""
    return RunConfig(
        "incremental",
        mode=mode,
        threads=threads,
        backend=backend,
        machine=machine,
        on_failure=on_failure,
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
    mutated, _ = apply_delta(graph, batch)
    config = mutation_config(mode=mode, threads=threads, backend=backend,
                             machine=machine, on_failure=on_failure)
    result = execute(mutated, config, initial=coloring, recorder=recorder)
    return mutated, result
