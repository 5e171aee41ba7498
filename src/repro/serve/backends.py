"""How an admitted job runs: one :func:`repro.run.execute` call.

The scheduler decides *when* a job runs (cache, dedup, batching);
:class:`InlineBackend` runs it, on the scheduler's worker thread,
exactly as configured.  Parallel execution is the job's own business:
an ``mp`` or ``superstep`` config speculates and repairs inside
``execute`` (see :func:`repro.parallel.mp.run_rounds`), so every job
key has one execution path and one coloring.
"""

from __future__ import annotations

from ..run import execute  # module attr: tests monkeypatch backends.execute

__all__ = ["InlineBackend"]


class InlineBackend:
    """One ``execute`` call, exactly as configured.

    ``run`` may raise; the scheduler catches it and fails the job.
    """

    def run(self, job):
        return execute(job.graph, job.config, initial=job.initial)
