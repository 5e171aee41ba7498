"""Coloring-as-a-service: durable store, sharded backends, scheduler, cache.

The serving subsystem turns :func:`repro.run.execute` into a front door
for many concurrent clients without paying the full coloring cost for
every request.  It is layered bottom-up:

- :mod:`repro.serve.store` — the durable state layer: a narrow
  :class:`JobStore` interface (monotonic ids, atomic status
  transitions) with an in-memory implementation and a sqlite-backed
  :class:`SqliteStore` that survives restarts;
- :mod:`repro.serve.fingerprint` — content-addressed job identity
  (full-graph digest × canonical config serialization);
- :mod:`repro.serve.cache` — :class:`ResultCache`, an in-memory LRU
  under a byte budget with ``.npz`` disk spill (write-through on
  durable services, so published results survive a crash);
- :mod:`repro.serve.backends` — the execution layer:
  :class:`InlineBackend` (plain ``execute``) and
  :class:`ShardedBackend` (partition the graph, fan the shards across
  the mp thread team, repair cross-shard conflicts, verify);
- :mod:`repro.serve.queue` — :class:`SubmissionQueue` with admission
  control, two-class priorities, per-tenant quotas, and
  reject-with-reason backpressure;
- :mod:`repro.serve.scheduler` — :class:`BatchScheduler`: per-round
  cache lookup, in-flight dedup, compatible grouping, worker-pool
  dispatch under the job's resilience policy;
- :mod:`repro.serve.supervisor` — the robustness layer:
  :class:`Supervisor` (deadline sweeps and pump restarts),
  :class:`DegradingBackend` (the breaker-driven degradation ladder
  ``sharded → inline → sequential``), and
  :class:`CircuitBreaker`;
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

    svc = ColoringService(store="var/serve", backend=4)
    job = svc.submit(graph, RunConfig("vff", seed=0))
    svc.process()
    print(svc.result(job.id).result.summary(), svc.stats()["store"])
"""

from .backends import (
    ExecutionBackend,
    InlineBackend,
    ShardedBackend,
    resolve_backend,
    shard_rounds,
)
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
from .supervisor import (
    CircuitBreaker,
    DegradingBackend,
    SequentialBackend,
    Supervisor,
)

__all__ = [
    "AdmissionError",
    "BatchScheduler",
    "ChaosStore",
    "CircuitBreaker",
    "ColoringService",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_PENDING",
    "DegradingBackend",
    "ExecutionBackend",
    "InlineBackend",
    "JOB_STATES",
    "Job",
    "JobStore",
    "MemoryStore",
    "MutationError",
    "PRIORITIES",
    "ResultCache",
    "SequentialBackend",
    "ShardedBackend",
    "SqliteStore",
    "StoreError",
    "SubmissionQueue",
    "Supervisor",
    "config_fingerprint",
    "graph_fingerprint",
    "job_key",
    "mutation_job_key",
    "open_store",
    "resolve_backend",
    "shard_rounds",
]
