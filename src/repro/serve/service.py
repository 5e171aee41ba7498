"""The coloring service façade: store + queue + scheduler + cache as one object.

:class:`ColoringService` wires the serving pipeline together and is the
single surface both fronts use — the in-process API the tests and the
CI smoke drive directly (no sockets anywhere), and the stdlib HTTP front
in :mod:`repro.serve.api`:

    service = ColoringService()
    job = service.submit(graph, RunConfig("vff", seed=0))
    service.process()                      # drain synchronously
    result = service.result(job.id).result # a full RunResult

Three layers meet here:

- **durable state** — every job id and status transition goes through a
  :class:`~repro.serve.store.JobStore`.  The default in-memory store
  reproduces the old ephemeral behavior bit-for-bit; pass
  ``store="path"`` (or a :class:`~repro.serve.store.SqliteStore`) and
  the service becomes restartable: on construction it *recovers* —
  jobs that died ``pending``/``running`` are re-admitted and re-run,
  terminal jobs are served straight from the store + the cache's spill
  files, and a job whose result already persisted is **never**
  re-executed (the scheduler's cache check finds the write-through
  spill first).
- **execution backend** — ``backend=`` picks how primary jobs run:
  ``None`` for the inline path, an int or a
  :class:`~repro.serve.backends.ShardedBackend` to cut big graphs
  into blocks that sweep on the mp thread team.
- **job lifecycle** — submit returns immediately with a durable id;
  jobs carry ``tenant``/``priority``; completion is event-based
  (:meth:`Job.wait`), never a sleep-poll.

:meth:`ColoringService.dataset` builds a named dataset stand-in once per
``(input, scale, seed)`` and memoizes it in the result cache's LRU, under
the same byte budget, so a repeated ``/submit`` skips the build.  The job
key is still the graph's content fingerprint.

For a long-running server, :meth:`start` spins one background *pump*
thread that drains the queue whenever jobs are waiting; :meth:`stop`
joins it.  Everything stays deterministic either way: processing order
follows admission order within a priority class, and every job's
coloring is bit-identical to a direct :func:`repro.run.execute` at the
same seed — whether computed, deduplicated against an identical
in-flight job, or served from cache.
"""

from __future__ import annotations

import math
import numbers
import threading

from ..graph import datasets
from ..graph.csr import CSRGraph
from ..graph.delta import MutationBatch, apply_delta
from ..obs import as_recorder
from ..resilience import resolve_fault_plan
from ..run.config import RunConfig
from ..run.mutate import mutation_config
from .backends import resolve_backend
from .cache import DEFAULT_MAX_BYTES, ResultCache
from .fingerprint import mutation_job_key
from .queue import DEFAULT_MAX_PENDING, Job, SubmissionQueue
from .scheduler import BatchScheduler
from .store import ChaosStore, JobStore, SqliteStore, StoreError, open_store
from .supervisor import DegradingBackend, Supervisor

__all__ = ["ColoringService", "MutationError", "dataset_params"]


def dataset_params(scale, seed) -> tuple[float, int]:
    """Normalize a dataset request's ``(scale, seed)``; ValueError if bad.

    *scale* is any finite number > 0 (a numeric string too); *seed* a
    non-negative integer, where an integral float counts but a bool or a
    fractional float does not.  The normalized pair is what the graph
    memo keys on, so ``0.25``/``"0.25"`` and ``3``/``3.0`` share an entry.
    """
    value = math.nan
    if not isinstance(scale, bool):
        try:
            value = float(scale)
        except (TypeError, ValueError):
            pass
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"scale must be a finite number > 0, got {scale!r}")
    number = -1
    if isinstance(seed, str):
        try:
            number = int(seed)
        except ValueError:
            pass
    elif isinstance(seed, float):
        if seed.is_integer():
            number = int(seed)
    elif isinstance(seed, numbers.Integral) and not isinstance(seed, bool):
        number = int(seed)
    if number < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return value, number


class MutationError(RuntimeError):
    """A ``/mutate`` request that cannot run; ``status`` picks the HTTP code.

    ``status`` is 404 for an unknown base job, 409 for a base job that is
    not (successfully) finished yet, and 400 for a malformed delta.
    """

    def __init__(self, reason: str, status: int):
        super().__init__(reason)
        self.reason = reason
        self.status = status


class ColoringService:
    """Submission, scheduling, caching, and introspection in one place.

    Parameters mirror the components': *max_pending* / *tenant_quota*
    bound admission (see :class:`SubmissionQueue`), *max_bytes* /
    *spill_dir* shape the :class:`ResultCache`, *workers* / *batch_size*
    the :class:`BatchScheduler`.  *store* selects the durability layer
    (``None`` = in-memory, a path opens a sqlite store there — whose
    ``spill/`` directory becomes the default *spill_dir*, with
    write-through spilling so results persist at publish time).
    *backend* selects the execution backend (``None`` = inline, an int
    ``n`` = ``ShardedBackend(n)``).  *recover* (default on) re-admits a
    persistent store's interrupted jobs at construction.  *recorder* is
    shared by every component, so one observability sink sees the whole
    ``serve.*`` counter family.

    Robustness knobs: *supervise* wraps the backend in the
    :class:`~repro.serve.supervisor.DegradingBackend` ladder, attaches a
    background :class:`~repro.serve.supervisor.Supervisor` (started with
    the pump).  *fault_plan* is the chaos schedule (a
    :class:`~repro.resilience.FaultPlan` or spec string) whose IO kinds
    are injected into the cache's spill writes and the store's
    transitions.
    """

    def __init__(self, *, max_pending: int = DEFAULT_MAX_PENDING,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 spill_dir=None, workers: int = 1,
                 batch_size: int | None = None, recorder=None,
                 store=None, backend=None, tenant_quota: int | None = None,
                 recover: bool = True, supervise: bool = False,
                 fault_plan=None, supervisor_interval: float = 0.5):
        self.recorder = as_recorder(recorder)
        self.fault_plan = resolve_fault_plan(fault_plan)
        self._owns_store = not isinstance(store, JobStore)
        self.store = open_store(store)
        if spill_dir is None and isinstance(self.store, SqliteStore):
            spill_dir = self.store.spill_dir
        if any(f.kind == "storeerr" for f in self.fault_plan.faults):
            # wrap after the spill_dir probe above: chaos must not hide
            # the concrete store's layout, only fail its transitions
            self.store = ChaosStore(self.store, self.fault_plan)
        self.cache = ResultCache(
            max_bytes=max_bytes, spill_dir=spill_dir,
            write_through=self.store.persistent and spill_dir is not None,
            recorder=self.recorder, fault_plan=self.fault_plan)
        self.queue = SubmissionQueue(max_pending=max_pending,
                                     store=self.store,
                                     tenant_quota=tenant_quota,
                                     recorder=self.recorder)
        self.backend = resolve_backend(backend, recorder=self.recorder)
        if supervise:
            self.backend = DegradingBackend.ladder(self.backend,
                                                   recorder=self.recorder)
        self.scheduler = BatchScheduler(self.queue, self.cache,
                                        workers=workers, batch_size=batch_size,
                                        backend=self.backend,
                                        recorder=self.recorder)
        self.supervisor = (Supervisor(self, interval=supervisor_interval,
                                      recorder=self.recorder)
                           if supervise else None)
        self._pump: threading.Thread | None = None
        self._pump_wanted = False
        self._pump_errors = 0
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self.recovered = {"requeued": 0, "failed": 0, "terminal": 0}
        if recover and self.store.persistent:
            self.recovered = self._recover()

    # ------------------------------------------------------------------
    # restart recovery (persistent stores only)
    # ------------------------------------------------------------------
    def _recover(self) -> dict:
        """Reconcile the reopened store with a fresh in-memory pipeline.

        Terminal rows stay where they are (``result()`` restores them
        lazily).  ``pending``/``running`` rows are jobs a previous life
        admitted but never resolved: each is rebuilt from its persisted
        graph and re-admitted — and if its result actually made it to
        the write-through spill before the crash, the scheduler's cache
        check serves it without re-executing.  A row whose inputs cannot
        be rebuilt (graph never persisted, base coloring gone) is failed
        with the reason recorded rather than silently dropped.
        """
        summary = {"requeued": 0, "failed": 0, "terminal": 0}
        counts = self.store.counts()
        summary["terminal"] = counts["done"] + counts["failed"]
        for row in self.store.by_status("pending", "running"):
            job, reason = self._restore_pending(row)
            if job is None:
                try:
                    self.store.transition(
                        row["id"], "failed", source="recovery",
                        error=f"unrecoverable after restart: {reason}")
                except (StoreError, OSError):
                    pass  # even the quarantine write is best-effort
                summary["failed"] += 1
            else:
                self.queue.readmit(job)
                summary["requeued"] += 1
        if self.recorder.enabled:
            self.recorder.event("serve_recover", **summary)
        return summary

    def _restore_pending(self, row: dict):
        """Rebuild a re-runnable Job from a store row; (job, None) or
        (None, reason)."""
        if not isinstance(row.get("config"), dict):
            # a poisoned sqlite row (see SqliteStore._record): quarantine
            # by failing it with the reason, never crash recovery
            return None, "store row is corrupt (config unparseable)"
        try:
            config = RunConfig.from_dict(row["config"])
        except (ValueError, TypeError, KeyError) as exc:
            return None, f"config does not parse: {exc}"
        if not row["graph_ref"]:
            return None, "graph was not persisted"
        try:
            graph = self.store.load_graph(row["graph_ref"])
        except StoreError as exc:
            return None, str(exc)
        initial = None
        base_key = row["meta"].get("initial_from_key")
        if base_key:
            base_result = self.cache.get(base_key)
            if base_result is None:
                return None, (f"initial coloring (key {base_key[:12]}…) "
                              "is no longer in the cache or spill")
            initial = base_result.coloring
        return Job(id=row["id"], key=row["key"], graph=graph, config=config,
                   initial=initial, tenant=row["tenant"],
                   priority=row["priority"] or "normal",
                   submitted_at=row["submitted_at"] or 0.0,
                   deadline_ms=row["meta"].get("deadline_ms"),
                   meta=dict(row["meta"])), None

    def _restore_terminal(self, row: dict) -> Job:
        """Rebuild a terminal Job for ``/result`` from its store row.

        The result payload comes from the cache (memory or write-through
        spill); when the spill is gone the job still describes itself
        from the summary persisted at finish time.  ``source`` becomes
        ``"store"`` — the original source survives in the meta.
        """
        result = self.cache.get(row["key"]) if row["status"] == "done" else None
        meta = dict(row["meta"])
        if row["source"]:
            meta["original_source"] = row["source"]
        try:
            config = RunConfig.from_dict(row["config"])
        except Exception:  # noqa: BLE001 - row poisoned on disk
            # the job's verdict (status/error) is still worth serving;
            # stand in a placeholder config and say so in the meta
            config = RunConfig("greedy-ff")
            meta["corrupt"] = True
        return Job(id=row["id"], key=row["key"], graph=None,
                   config=config,
                   status=row["status"], source="store", result=result,
                   error=row["error"], tenant=row["tenant"],
                   priority=row["priority"] or "normal",
                   submitted_at=row["submitted_at"] or 0.0,
                   finished_at=row["finished_at"], meta=meta)

    # ------------------------------------------------------------------
    # the four verbs (submit / result / stats / healthz)
    # ------------------------------------------------------------------
    def submit(self, graph: CSRGraph, config: RunConfig, *,
               tenant: str | None = None, priority: str = "normal",
               deadline_ms: float | None = None) -> Job:
        """Admit one job (raises :class:`~repro.serve.queue.AdmissionError`
        with a reason on rejection) and wake the pump if one is running.
        *deadline_ms* bounds the job's wall-clock life from submission."""
        job = self.queue.submit(graph, config, tenant=tenant,
                                priority=priority, deadline_ms=deadline_ms)
        self._wake.set()
        return job

    def dataset(self, name: str, *, scale=1.0, seed=0) -> CSRGraph:
        """The named dataset stand-in, built once per normalized
        ``(name, scale, seed)`` (see :func:`dataset_params`).

        Built graphs live in the result cache's LRU under its byte budget
        and are never spilled; concurrent requests for one unbuilt graph
        build it once, and a build that fails is not memoized.
        """
        scale, seed = dataset_params(scale, seed)
        return self.cache.graph(
            ("dataset", name, scale, seed),
            lambda: datasets.load_dataset(name, scale=scale, seed=seed))

    def mutate(self, base_job_id: int, batch: MutationBatch, *,
               mode: str = "sequential", threads: int = 1,
               tenant: str | None = None, priority: str = "normal",
               deadline_ms: float | None = None) -> Job:
        """Admit a re-color of a finished job's mutated graph.

        The base job must be ``done``: its graph is the mutation target
        and its result coloring is carried forward as the incremental
        strategy's starting point.  The new job's key is
        ``(base key, delta digest, config)`` — see
        :func:`~repro.serve.fingerprint.mutation_job_key` — so repeating
        the same mutation of the same base is a cache hit, while a
        different delta (a different dirty region) keys separately:
        cached results invalidate per-region, never per-graph.

        Mutation jobs are ordinary jobs downstream (scheduler, cache,
        ``/result``), and chain naturally: the returned job's id can be
        the next call's ``base_job_id`` — including across a restart,
        because ids are store-monotonic and the base coloring is
        recoverable through the base job's key.
        """
        base = self.result(base_job_id)
        if base is None:
            raise MutationError(f"unknown base job {base_job_id}", status=404)
        if not base.finished or base.result is None:
            raise MutationError(
                f"base job {base_job_id} is {base.status!r}; mutation needs a "
                "finished job with a result", status=409)
        if not isinstance(batch, MutationBatch):
            raise MutationError(
                f"delta must be a MutationBatch, got {type(batch).__name__}",
                status=400)
        if base.graph is None:
            # terminal job restored from the store: reopen its graph
            row = self.store.get(base_job_id)
            if not row or not row.get("graph_ref"):
                raise MutationError(
                    f"base job {base_job_id} predates this service life and "
                    "its graph was not persisted", status=409)
            try:
                base.graph = self.store.load_graph(row["graph_ref"])
            except StoreError as exc:
                raise MutationError(str(exc), status=409) from None
        try:
            mutated, dirty = apply_delta(base.graph, batch)
        except ValueError as exc:
            raise MutationError(f"invalid delta: {exc}", status=400) from None
        config = mutation_config(mode=mode, threads=threads,
                                 on_failure=base.config.on_failure)
        key = mutation_job_key(base.key, batch.digest(), config)
        meta = {"base_job_id": base_job_id, "delta_digest": batch.digest(),
                "dirty_vertices": int(dirty.size),
                "initial_from_key": base.key}
        job = self.queue.submit(mutated, config, key=key,
                                initial=base.result.coloring, meta=meta,
                                tenant=tenant, priority=priority,
                                deadline_ms=deadline_ms)
        if self.recorder.enabled:
            self.recorder.event("serve_mutate", base_job=base_job_id,
                                job=job.id, dirty=int(dirty.size),
                                changes=batch.num_changes)
        self._wake.set()
        return job

    def result(self, job_id: int) -> Job | None:
        """The job (with ``result``/``error`` once terminal), or ``None``.

        On a durable service a terminal job from a previous life is
        restored from the store (result payload from the write-through
        spill) and remembered, so repeated polls — and ``/mutate``
        chains onto old base ids — keep working across restarts.
        """
        job = self.queue.job(job_id)
        if job is not None:
            return job
        if not self.store.persistent:
            return None
        row = self.store.get(job_id)
        if row is None or row["status"] not in ("done", "failed"):
            return None
        try:
            job = self._restore_terminal(row)
        except Exception:  # noqa: BLE001 - a poisoned row is a 404, not a 500
            return None
        self.queue.remember(job)
        return job

    def stats(self) -> dict:
        """One JSON-ready dict: queue, scheduler, cache, store, and mp
        thread-team counters (store depth by status, per-priority queue depth, and
        job latency percentiles included)."""
        from ..shm import warm_pool

        store_info = self.store.describe()
        store_info["recovered"] = dict(self.recovered)
        out = {
            "queue": self.queue.stats(),
            "scheduler": self.scheduler.stats(),
            "cache": self.cache.stats(),
            "store": store_info,
            "pool": warm_pool().stats(),
            "pump_errors": self._pump_errors,
        }
        if self.supervisor is not None:
            out["supervisor"] = self.supervisor.stats()
        return out

    def healthz(self) -> dict:
        """Health summary for load balancers: three-state status + backlog.

        ``status`` is ``"live"`` (process up, pump not running — e.g.
        a synchronously-driven service), ``"ready"`` (pump running,
        nothing degraded), or ``"degraded"`` (serving, but something is
        limping: the cache fell back to memory-only, a ladder rung's
        breaker is open, or store writes have been failing).
        ``degraded_reasons`` names each cause; ``live`` is always True
        when this answered at all.
        """
        q = self.queue.stats()
        reasons: list[str] = []
        if self.cache.degraded:
            reasons.append("cache: spill disabled after repeated "
                           "write failures (memory-only)")
        if isinstance(self.backend, DegradingBackend) and self.backend.degraded:
            open_rungs = [b.name for b in self.backend.breakers
                          if b.state != "closed"]
            reasons.append(f"backend: breaker open for {open_rungs}")
        if q["store_errors"]:
            reasons.append(f"store: {q['store_errors']} failed transitions "
                           "(durability is best-effort)")
        pump = self.pump_alive
        if reasons:
            status = "degraded"
        elif pump:
            status = "ready"
        else:
            status = "live"
        return {
            "status": status,
            "live": True,
            "ready": pump and not reasons,
            "degraded": bool(reasons),
            "degraded_reasons": reasons,
            "pending": q["pending"],
            "in_flight": q["in_flight"],
            "durable": self.store.persistent,
            "pump": pump,
        }

    # ------------------------------------------------------------------
    # in-process driving (tests, CI smoke, benchmarks)
    # ------------------------------------------------------------------
    def process(self, max_rounds: int | None = None) -> int:
        """Drain the queue on the calling thread; return jobs resolved."""
        return self.scheduler.run_until_idle(max_rounds)

    def _drain_to(self, job: Job) -> Job:
        """Drain cooperatively until *job* is terminal (no sleep-polling:
        the completion event set in ``mark_terminal`` wakes the waiter)."""
        while not job.finished:
            if self.process() == 0 and not job.finished:
                # pump thread got the batch first; block on its finish
                self._wake.set()
                job.wait(0.05)
        return job

    def submit_and_wait(self, graph: CSRGraph, config: RunConfig,
                        **kwargs) -> Job:
        """Convenience one-shot: submit, drain, return the terminal job.

        With the pump running the drain is cooperative (whichever thread
        gets there first resolves the batch); without it, this is the
        purely synchronous single-threaded path.
        """
        return self._drain_to(self.submit(graph, config, **kwargs))

    def mutate_and_wait(self, base_job_id: int, batch: MutationBatch,
                        **kwargs) -> Job:
        """Convenience one-shot mutation: admit, drain, return terminal job."""
        return self._drain_to(self.mutate(base_job_id, batch, **kwargs))

    # ------------------------------------------------------------------
    # background pump (the HTTP server's scheduling thread)
    # ------------------------------------------------------------------
    @property
    def pump_alive(self) -> bool:
        """Whether the background pump thread is currently running."""
        pump = self._pump
        return pump is not None and pump.is_alive()

    def start(self) -> None:
        """Start the background pump thread (idempotent).

        On a supervised service the :class:`Supervisor` starts here too;
        from then on a pump that dies is restarted by the next tick.
        """
        self._pump_wanted = True
        if self.supervisor is not None:
            self.supervisor.start()
        if self.pump_alive:
            return
        self._stopping.clear()
        self._pump = threading.Thread(target=self._pump_loop,
                                      name="repro-serve-pump", daemon=True)
        self._pump.start()

    def stop(self, timeout: float = 5.0, *, purge_spill: bool = False) -> dict:
        """Signal the pump to exit after the current round and join it.

        The graph memo is released.  Jobs still in flight are not silently
        dropped: they are counted, and on a durable store every
        dispatched-but-unfinished job's row is moved back to ``pending``
        with ``meta["interrupted"]`` set, so the next life's recovery
        re-admits exactly what this shutdown interrupted.  Returns
        ``{"interrupted": n, "pump_joined": bool}``.

        ``purge_spill=True`` additionally clears the cache *including*
        its on-disk spill files — shutdown-means-gone for ephemeral
        services (tests, one-shot CLI serves) whose spill directory must
        not resurrect results into a later run.  A store the service
        opened itself (from a path) is closed here; an injected store
        instance stays open, its owner decides.
        """
        self._pump_wanted = False
        if self.supervisor is not None:
            self.supervisor.stop(timeout)
        self._stopping.set()
        self._wake.set()
        joined = True
        if self._pump is not None:
            self._pump.join(timeout)
            joined = not self._pump.is_alive()
            self._pump = None
        interrupted = self.queue.jobs_in_flight()
        if interrupted:
            if self.store.persistent:
                for job in interrupted:
                    if job.status != "running":
                        continue  # pending rows already recover as-is
                    try:
                        self.store.transition(job.id, "pending",
                                              meta={"interrupted": True})
                    except (StoreError, OSError):
                        pass  # best-effort: recovery handles running too
            self.recorder.event("serve_stop_interrupted",
                                count=len(interrupted),
                                jobs=[j.id for j in interrupted],
                                pump_joined=joined)
        if purge_spill:
            self.cache.clear(purge_spill=True)
        else:
            self.cache.drop_graphs()
        if self._owns_store:
            self.store.close()
        return {"interrupted": len(interrupted), "pump_joined": joined}

    def _pump_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                busy = self.scheduler.run_round() > 0
            except Exception as exc:  # noqa: BLE001 - the pump must survive
                # a round that blows up (chaos, backend bug) costs that
                # batch's jobs nothing durable — they are still in the
                # store — but the pump itself must keep draining
                self._pump_errors += 1
                self.recorder.event(
                    "serve_pump_error",
                    error=f"{type(exc).__name__}: {exc}")
                busy = False
            if not busy:
                # nothing queued: sleep until a submit wakes us
                self._wake.wait(timeout=0.05)
                self._wake.clear()
