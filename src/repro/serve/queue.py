"""Job admission: the bounded submission queue in front of the scheduler.

A :class:`Job` is one client request — a (graph, config) pair plus its
content-addressed key and lifecycle state.  The :class:`SubmissionQueue`
is the only way jobs enter the system, and it enforces *admission
control*: structurally invalid requests (unknown strategy, unsupported
(strategy, mode) pair), overload (more pending jobs than the bound), and
per-tenant quota exhaustion are rejected **at submit time** with a
human-readable reason carried by :class:`AdmissionError` — backpressure
is an explicit, countable signal, never a silent drop or an unbounded
backlog.  A request that passes admission may still skip the line:
:meth:`SubmissionQueue.submit` asks an optional *probe* (the result
cache, in memory) for its key, and a job the probe answers is counted
in flight but never queued; the submitting thread finishes it (see
:meth:`repro.serve.scheduler.BatchScheduler.admit`).

Lifecycle state lives in two places on purpose: the in-memory
:class:`Job` object is the hot copy the scheduler and the ``/result``
endpoint touch, and every id allocation and status transition is written
through the :class:`~repro.serve.store.JobStore` — in-memory by default
(bit-for-bit the old behavior), sqlite-backed when the service is
durable.  The ``done`` write of a computed job carries its coloring, so
on a durable service the store row is the result's one durable copy.
Ids always come from the store's monotonic sequence, so a restarted
durable service never reissues an id that an earlier life handed to a
client (chained ``/mutate`` base ids stay unambiguous forever).

Jobs carry an optional ``tenant`` and a ``priority`` class (``"high"``
drains strictly before ``"normal"``; FIFO within a class).  Completion
is observable two ways: poll ``job.finished``, or block on
:meth:`Job.wait` — the completion event is set inside
:meth:`SubmissionQueue.mark_terminal`, so no caller ever needs a
sleep-poll loop.

The queue is thread-safe: the HTTP front end submits from handler
threads while the scheduler drains from its own.  Its admission counts
live in one :class:`repro.obs.Counters` map that :meth:`SubmissionQueue.stats`
reads and the recorder mirrors as ``serve.queue.<stats key>``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from ..coloring.strategies import STRATEGIES
from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from ..obs import Counters, as_recorder
from ..run.config import RunConfig, RunResult
from .fingerprint import job_key
from .store import JOB_STATES, JobStore, MemoryStore, StoreError

__all__ = ["AdmissionError", "DEFAULT_MAX_PENDING", "JOB_STATES", "Job",
           "PRIORITIES", "SubmissionQueue"]

#: Default bound on jobs admitted but not yet resolved.
DEFAULT_MAX_PENDING = 1024

#: Priority classes, highest first; the scheduler drains in this order.
PRIORITIES = ("high", "normal")

#: Completed-job latencies remembered for the percentile stats.
_LATENCY_WINDOW = 2048


class AdmissionError(RuntimeError):
    """A submission the queue refused; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class Job:
    """One admitted coloring request and its resolution.

    ``source`` records how the job was ultimately served: ``"computed"``
    (a real ``execute`` call), ``"dedup"`` (attached to an identical
    in-flight job's computation), ``"cache"`` (a result-cache or job-store
    hit by key), or
    ``"store"`` (a terminal job restored from a persistent store after a
    restart).  Exactly one of ``result`` / ``error`` is set once
    ``status`` reaches a terminal state (``done`` / ``failed``).
    """

    id: int
    key: str
    graph: CSRGraph | None
    config: RunConfig
    status: str = "pending"
    source: str | None = None
    result: RunResult | None = None
    error: str | None = None
    #: Precomputed initial coloring handed to ``execute`` (mutation jobs
    #: carry the base coloring here; ``None`` = strategy default).
    initial: Coloring | None = None
    tenant: str | None = None
    priority: str = "normal"
    submitted_at: float = 0.0
    finished_at: float | None = None
    #: Wall-clock budget from submission, in milliseconds; ``None`` means
    #: no deadline.  Expired jobs fail fast with ``reason="deadline"``.
    deadline_ms: float | None = None
    meta: dict = field(default_factory=dict)
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False, compare=False)

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed")

    @property
    def deadline_at(self) -> float | None:
        """Absolute expiry time (epoch seconds), or ``None``."""
        if self.deadline_ms is None:
            return None
        return self.submitted_at + self.deadline_ms / 1e3

    def expired(self, now: float | None = None) -> bool:
        """True when the deadline passed and the job is not yet terminal."""
        at = self.deadline_at
        if at is None or self.finished:
            return False
        return (time.time() if now is None else now) >= at

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True when it finished in time."""
        return self._done.wait(timeout)

    def describe(self) -> dict:
        """JSON-ready lifecycle summary (the ``/result`` endpoint's core)."""
        info = {
            "id": self.id,
            "key": self.key,
            "status": self.status,
            "source": self.source,
            "strategy": self.config.strategy,
            "mode": self.config.mode,
            "priority": self.priority,
        }
        if self.tenant is not None:
            info["tenant"] = self.tenant
        if self.deadline_ms is not None:
            info["deadline_ms"] = self.deadline_ms
        if self.meta.get("reason") is not None:
            info["reason"] = self.meta["reason"]
        if self.meta.get("corrupt"):
            info["corrupt"] = True
        if self.error is not None:
            info["error"] = self.error
        if self.result is not None:
            info["num_colors"] = int(self.result.coloring.num_colors)
            info["num_vertices"] = int(self.result.coloring.num_vertices)
            info["rsd_percent"] = float(self.result.balance.rsd_percent)
        elif self.status == "done":
            # restored from a persistent store without the payload in
            # memory: the summary persisted at finish time still serves
            for name in ("num_colors", "num_vertices", "rsd_percent"):
                if name in self.meta:
                    info[name] = self.meta[name]
        return info


class SubmissionQueue:
    """Bounded two-class priority queue, with by-id lookup of every job.

    Parameters
    ----------
    max_pending:
        Admission bound: jobs admitted but not yet terminal.  A full
        queue rejects with a reason naming both the backlog and the
        limit, so clients can distinguish overload from bad requests.
    store:
        The :class:`~repro.serve.store.JobStore` ids are allocated from
        and transitions are written through (default: a fresh in-memory
        store — the undurable behavior, made explicit).
    tenant_quota:
        Per-tenant cap on jobs in flight, enforced at admission; only
        jobs that carry a ``tenant`` count.  ``None`` disables the quota.
    recorder:
        Observability sink that mirrors each count as
        ``serve.queue.<stats key>`` and receives the job events.
    """

    def __init__(self, *, max_pending: int = DEFAULT_MAX_PENDING,
                 store: JobStore | None = None,
                 tenant_quota: int | None = None, recorder=None):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError(
                f"tenant_quota must be >= 1 or None, got {tenant_quota}")
        self.max_pending = int(max_pending)
        self.store = store if store is not None else MemoryStore()
        self.tenant_quota = tenant_quota
        self._rec = as_recorder(recorder)
        self._lock = threading.RLock()
        self._pending: dict[str, deque[Job]] = {p: deque() for p in PRIORITIES}
        self._jobs: dict[int, Job] = {}
        self._tenant_active: dict[str, int] = {}
        self._latency: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._in_flight = 0  # admitted, not yet terminal
        self._counts = Counters("serve.queue", (
            "submitted", "rejections_full", "rejections_invalid",
            "rejections_quota", "deadline_expired", "store_errors"),
            self._rec)

    # ------------------------------------------------------------------
    def submit(self, graph: CSRGraph, config: RunConfig, *,
               key: Callable[[dict], str] | None = None,
               initial: Coloring | None = None,
               tenant: str | None = None, priority: str = "normal",
               meta: dict | None = None,
               deadline_ms: float | None = None,
               probe: Callable[[str], RunResult | None] | None = None) -> Job:
        """Admit one job or raise :class:`AdmissionError` with a reason.

        Validation happens before the key is computed so malformed
        requests are cheap to refuse; the backlog and quota checks are
        last, so an invalid request never occupies a queue slot.

        *key*, a function of the config's ``to_dict()`` mapping (so the
        config serializes once), overrides the default content key —
        mutation jobs are keyed on (base job, delta, config) rather than
        the mutated graph's own fingerprint (see
        :func:`repro.serve.fingerprint.mutation_job_key`) — and *initial*
        is a precomputed coloring forwarded to ``execute`` (the
        carried-forward base for mutation jobs).  *meta*
        seeds the job's bookkeeping dict and is persisted with the store
        row, so recovery sees it too.  *deadline_ms* is a wall-clock
        budget from submission: once it elapses, the job is failed fast
        with ``reason="deadline"`` instead of occupying a worker.

        *probe* maps the job's key to an already-known result (the result
        cache's in-memory :meth:`~repro.serve.cache.ResultCache.probe`).
        It is asked once the request passed every admission check and its
        row is written.  On a hit the job is in flight but never queued:
        it comes back ``pending`` with ``result`` set, and the caller
        finishes it (:meth:`~repro.serve.scheduler.BatchScheduler.admit`).
        """
        reason, config_dict = self._validate(graph, config)
        if reason is None and initial is not None:
            if not isinstance(initial, Coloring):
                reason = (f"initial must be a Coloring, "
                          f"got {type(initial).__name__}")
        if reason is None and priority not in PRIORITIES:
            reason = (f"priority must be one of {list(PRIORITIES)}, "
                      f"got {priority!r}")
        if reason is None and deadline_ms is not None:
            try:
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError):
                reason = f"deadline_ms must be a number, got {deadline_ms!r}"
            else:
                if deadline_ms <= 0:
                    reason = f"deadline_ms must be > 0, got {deadline_ms}"
        if reason is not None:
            self._counts.add("rejections_invalid")
            raise AdmissionError(reason)
        key = job_key(graph, config_dict) if key is None else key(config_dict)
        with self._lock:
            if self._in_flight >= self.max_pending:
                self._counts.add("rejections_full")
                raise AdmissionError(
                    f"queue full: {self._in_flight} jobs in flight "
                    f"(limit {self.max_pending}); retry later"
                )
            if (self.tenant_quota is not None and tenant is not None
                    and self._tenant_active.get(tenant, 0) >= self.tenant_quota):
                self._counts.add("rejections_quota")
                raise AdmissionError(
                    f"tenant {tenant!r} quota exhausted: "
                    f"{self._tenant_active[tenant]} jobs in flight "
                    f"(limit {self.tenant_quota}); retry later"
                )
            now = time.time()
            stored_meta = dict(meta or {})
            if deadline_ms is not None:
                # persisted so restart recovery re-admits with the same
                # budget (measured from the original submission time)
                stored_meta["deadline_ms"] = deadline_ms
            job_id = self.store.allocate(
                key=key, config=config_dict,
                graph_ref=self.store.persist_graph(graph), tenant=tenant,
                priority=priority, meta=stored_meta, submitted_at=now)
            job = Job(id=job_id, key=key, graph=graph, config=config,
                      initial=initial, tenant=tenant, priority=priority,
                      submitted_at=now, deadline_ms=deadline_ms,
                      meta=stored_meta)
            job.result = probe(key) if probe is not None else None
            self._enqueue_locked(job, queued=job.result is None)
            self._counts.add("submitted")
            return job

    def _enqueue_locked(self, job: Job, *, queued: bool = True) -> None:
        """Count *job* in flight; *queued* also puts it in line for a round."""
        if queued:
            self._pending[job.priority].append(job)
        self._jobs[job.id] = job
        self._in_flight += 1
        if job.tenant is not None:
            self._tenant_active[job.tenant] = \
                self._tenant_active.get(job.tenant, 0) + 1

    def readmit(self, job: Job) -> None:
        """Re-enter a recovered job (one that died mid-flight last life).

        Bypasses the admission bound — recovery must never drop durable
        jobs — and moves the store row back to ``pending``, which is also
        legal from ``pending`` itself (a job that never got dispatched).
        """
        self._safe_transition(job.id, "pending")
        job.status = "pending"
        with self._lock:
            self._enqueue_locked(job)

    def remember(self, job: Job) -> None:
        """Index an already-terminal job restored from the store, so
        later ``/result`` polls (and ``/mutate`` chains) find it without
        re-reading the store."""
        if not job.finished:
            raise ValueError(f"remember() is for terminal jobs; "
                             f"job {job.id} is {job.status!r}")
        job._done.set()
        with self._lock:
            self._jobs.setdefault(job.id, job)

    @staticmethod
    def _validate(graph: CSRGraph,
                  config: RunConfig) -> tuple[str | None, dict | None]:
        """``(reason, None)`` for a refused request, else ``(None, the
        config's to_dict())``: the one serialization the key and the
        store row reuse."""
        if not isinstance(graph, CSRGraph):
            return f"graph must be a CSRGraph, got {type(graph).__name__}", None
        if not isinstance(config, RunConfig):
            return (f"config must be a RunConfig, "
                    f"got {type(config).__name__}"), None
        spec = STRATEGIES.get(config.strategy)
        if spec is None:
            return (f"unknown strategy {config.strategy!r}; choose from "
                    f"{sorted(STRATEGIES)}"), None
        if config.mode not in spec.modes:
            return (f"strategy {config.strategy!r} does not support mode "
                    f"{config.mode!r}; supported: {list(spec.modes)}"), None
        try:
            # a config that cannot serialize has no cache identity
            return None, config.to_dict()
        except ValueError as exc:
            return f"config is not serializable: {exc}", None

    # ------------------------------------------------------------------
    def take_batch(self, limit: int | None = None) -> list[Job]:
        """Pop up to *limit* pending jobs (all of them when ``None``).

        High-priority jobs drain strictly first, FIFO within each class.
        The scheduler calls this once per round; popped jobs stay
        in flight until :meth:`mark_terminal` is called for them.
        """
        batch: list[Job] = []
        with self._lock:
            for priority in PRIORITIES:
                pending = self._pending[priority]
                while pending and (limit is None or len(batch) < limit):
                    batch.append(pending.popleft())
        return batch

    def _safe_transition(self, job_id: int, status: str, **kwargs) -> bool:
        """Write a store transition, swallowing store/IO failures.

        In-memory state is the source of truth for a *live* service; a
        store write that fails (full disk, locked database, injected
        ``storeerr`` chaos) must not take the scheduler down or wedge a
        job — it costs durability for that one row, which is counted
        under ``store_errors`` and surfaced through ``/healthz`` as a
        degraded signal.  Returns True when the write landed.
        """
        try:
            self.store.transition(job_id, status, **kwargs)
            return True
        except (StoreError, OSError) as exc:
            self._counts.add("store_errors")
            self._rec.event("serve_store_error", job=job_id,
                            status=status, error=str(exc))
            return False

    def mark_running(self, job: Job) -> None:
        """Record the dispatch of a primary job (store transition included)."""
        self._safe_transition(job.id, "running")
        job.status = "running"

    def mark_terminal(self, job: Job) -> None:
        """Release the backlog slot of a job that reached done/failed.

        Writes the terminal transition through the store (with the
        result summary a restarted service can serve without the
        payload, and — for the job that computed it — the result
        itself), records end-to-end latency, and sets the job's
        completion event — waiters wake here, never by polling.
        """
        if not job.finished:
            raise ValueError(
                f"job {job.id} is {job.status!r}, not terminal; "
                "set status to 'done' or 'failed' first"
            )
        if job.finished_at is not None:
            # already released: a second terminal mark (racing expiry vs.
            # publish) must not double-decrement the in-flight counters
            raise ValueError(f"job {job.id} was already marked terminal")
        job.finished_at = time.time()
        finish_meta: dict = {}
        if job.result is not None:
            finish_meta = {
                "num_colors": int(job.result.coloring.num_colors),
                "num_vertices": int(job.result.coloring.num_vertices),
                "rsd_percent": float(job.result.balance.rsd_percent),
            }
        self._safe_transition(job.id, job.status, source=job.source,
                              error=job.error, meta=finish_meta,
                              finished_at=job.finished_at,
                              result=job.result if job.source == "computed"
                              else None)
        with self._lock:
            self._in_flight -= 1
            if job.tenant is not None:
                left = self._tenant_active.get(job.tenant, 0) - 1
                if left > 0:
                    self._tenant_active[job.tenant] = left
                else:
                    self._tenant_active.pop(job.tenant, None)
            if job.submitted_at:
                self._latency.append(job.finished_at - job.submitted_at)
        if self._rec.enabled:
            self._rec.event("serve_job_done", job=job.id, status=job.status,
                            source=job.source, priority=job.priority,
                            latency_s=job.finished_at - job.submitted_at
                            if job.submitted_at else None)
        job._done.set()

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------
    def fail_deadline(self, job: Job) -> None:
        """Fail *job* fast because its wall-clock budget elapsed."""
        job.status = "failed"
        job.source = "deadline"
        job.error = (f"deadline: exceeded {job.deadline_ms:g}ms budget"
                     if job.deadline_ms is not None else "deadline: expired")
        job.meta["reason"] = "deadline"
        self._counts.add("deadline_expired")
        self._rec.event("serve_job_deadline", job=job.id,
                        deadline_ms=job.deadline_ms)
        self.mark_terminal(job)

    def expire_deadlines(self, now: float | None = None) -> int:
        """Fail every still-queued job whose deadline has passed.

        Only *pending* jobs are swept here — a job already handed to the
        scheduler is that round's responsibility (it checks before
        dispatch).  Returns how many jobs were expired.  Called by the
        supervisor tick and by the scheduler at round start, so expired
        jobs fail fast even when no worker ever becomes free for them.
        """
        now = time.time() if now is None else now
        expired: list[Job] = []
        with self._lock:
            for priority in PRIORITIES:
                keep: deque[Job] = deque()
                for job in self._pending[priority]:
                    (expired if job.expired(now) else keep).append(job)
                self._pending[priority] = keep
        for job in expired:
            self.fail_deadline(job)
        return len(expired)

    def jobs_in_flight(self) -> list[Job]:
        """Every admitted job not yet terminal (pending *and* dispatched)."""
        with self._lock:
            return [j for j in self._jobs.values() if not j.finished]

    # ------------------------------------------------------------------
    def job(self, job_id: int) -> Job | None:
        """Look up any ever-admitted job by id (``None`` when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    @property
    def pending_count(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._pending.values())

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @staticmethod
    def _percentile(sorted_values: list[float], q: float) -> float:
        """Nearest-rank percentile of an already-sorted sample."""
        rank = max(0, min(len(sorted_values) - 1,
                          round(q * (len(sorted_values) - 1))))
        return sorted_values[rank]

    def stats(self) -> dict:
        """Admission counters, per-priority depth, and latency percentiles."""
        with self._lock:
            sample = sorted(self._latency)
            latency = {"samples": len(sample)}
            if sample:
                latency["p50_ms"] = self._percentile(sample, 0.50) * 1e3
                latency["p95_ms"] = self._percentile(sample, 0.95) * 1e3
            counts = self._counts.snapshot()
            return {
                **counts,
                "pending": sum(len(q) for q in self._pending.values()),
                "pending_by_priority": {p: len(self._pending[p])
                                        for p in PRIORITIES},
                "in_flight": self._in_flight,
                "max_pending": self.max_pending,
                "tenant_quota": self.tenant_quota,
                "tenants_active": len(self._tenant_active),
                "rejections": (counts["rejections_full"]
                               + counts["rejections_invalid"]
                               + counts["rejections_quota"]),
                "latency": latency,
            }
