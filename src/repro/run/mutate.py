"""The ``incremental`` RunConfig a graph mutation re-colors with.

A mutation is :func:`~repro.graph.delta.apply_delta` followed by
:func:`~repro.run.pipeline.execute` of :func:`mutation_config` with the
base coloring as the carried-forward initial; the CLI's ``--mutate``
and the serve layer's ``POST /mutate`` both run it that way.  The config
does not name the delta: the serving layer keys a mutation job by its
base job and the delta's digest
(:func:`~repro.serve.fingerprint.mutation_job_key`).  perfbench's tracer
patches this module by name, so it stays a module of its own until
perfbench next changes.
"""

from __future__ import annotations

from .config import RunConfig

__all__ = ["mutation_config"]


def mutation_config(
    *,
    mode: str = "sequential",
    threads: int = 1,
    machine: str | None = None,
    on_failure: str = "raise",
) -> RunConfig:
    """The canonical ``incremental`` RunConfig for a mutation."""
    return RunConfig(
        "incremental",
        mode=mode,
        threads=threads,
        machine=machine,
        on_failure=on_failure,
    )
