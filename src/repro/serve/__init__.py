"""Coloring-as-a-service: durable store, scheduler, cache, supervisor.

The serving subsystem turns :func:`repro.run.execute` into a front door
for many concurrent clients without paying the full coloring cost for
every request.  It is layered bottom-up:

- :mod:`repro.serve.store` — the durable state layer: a narrow
  :class:`JobStore` interface (monotonic ids, atomic status
  transitions, results read back by key) with an in-memory
  implementation and a sqlite-backed :class:`SqliteStore` that survives
  restarts — a computed job's ``done`` row holds its coloring, the one
  durable copy of the result;
- :mod:`repro.serve.fingerprint` — content-addressed job identity
  (full-graph digest × canonical config serialization);
- :mod:`repro.serve.cache` — :class:`ResultCache`, a memory-only LRU
  under a byte budget;
- :mod:`repro.serve.backends` — :class:`InlineBackend`, the one
  execution path: a job is one ``execute`` call under its own config;
- :mod:`repro.serve.queue` — :class:`SubmissionQueue` with admission
  control, two-class priorities, per-tenant quotas, and
  reject-with-reason backpressure;
- :mod:`repro.serve.scheduler` — :class:`BatchScheduler`: per-round
  lookup (cache, then store), in-flight dedup, compatible grouping, worker-pool
  dispatch under the job's resilience policy;
- :mod:`repro.serve.supervisor` — :class:`Supervisor`, a background
  deadline sweep;
- :mod:`repro.serve.service` — :class:`ColoringService`, the in-process
  façade (``submit`` / ``mutate`` / ``result`` / ``stats`` /
  ``healthz``) with restart recovery on durable stores;
- :mod:`repro.serve.api` — the stdlib HTTP front and the
  ``python -m repro submit`` client helpers.

Everything is drivable in-process with no sockets, and identical
submissions produce bit-identical colorings whether computed, deduped,
served from cache, or recovered from a store.  See DESIGN.md §11/§14::

    from repro.serve import ColoringService
    from repro.run import RunConfig

    svc = ColoringService(store="var/serve")
    job = svc.submit(graph, RunConfig("vff", seed=0))
    svc.process()
    print(svc.result(job.id).result.summary(), svc.stats()["store"])
"""

from .backends import InlineBackend
from .cache import DEFAULT_MAX_BYTES, ResultCache
from .fingerprint import (
    config_fingerprint,
    graph_fingerprint,
    job_key,
    mutation_job_key,
)
from .queue import (
    DEFAULT_MAX_PENDING,
    JOB_STATES,
    PRIORITIES,
    AdmissionError,
    Job,
    SubmissionQueue,
)
from .scheduler import BatchScheduler
from .service import ColoringService, MutationError
from .store import (
    ChaosStore,
    JobStore,
    MemoryStore,
    SqliteStore,
    StoreError,
    open_store,
)
from .supervisor import Supervisor

__all__ = [
    "AdmissionError",
    "BatchScheduler",
    "ChaosStore",
    "ColoringService",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_PENDING",
    "InlineBackend",
    "JOB_STATES",
    "Job",
    "JobStore",
    "MemoryStore",
    "MutationError",
    "PRIORITIES",
    "ResultCache",
    "SqliteStore",
    "StoreError",
    "SubmissionQueue",
    "Supervisor",
    "config_fingerprint",
    "graph_fingerprint",
    "job_key",
    "mutation_job_key",
    "open_store",
]
