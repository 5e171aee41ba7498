"""Batching scheduler: cache lookup, in-flight dedup, grouped dispatch.

Each scheduling *round* drains a batch from the submission queue and
resolves every job in it through a fixed funnel:

1. **cache** — jobs whose content key hits the :class:`ResultCache`
   (memory or disk) finish immediately without touching a worker;
2. **dedup** — remaining jobs are grouped by key: the first job of each
   key becomes the *primary*, identical jobs become *followers* that
   share the primary's computation (two identical submissions in one
   round cost one ``execute`` call);
3. **grouping** — primaries are batched into compatible dispatch groups
   by ``(mode, threads)`` so one round's pool has a uniform shape;
4. **dispatch** — each group runs through the worker pool, every job via
   the configured :class:`~repro.serve.backends.ExecutionBackend`
   (inline ``execute`` by default, the sharded shard-and-repair path
   when the service is built with one) under its own config — including
   its ``on_failure`` resilience policy, so a degraded-but-healed run is
   a normal ``done`` job while an unhealable one fails with the error
   recorded;
5. **publish** — successes enter the cache; primaries and followers are
   marked terminal and their queue slots released.

Determinism: every backend is deterministic for a fixed seed, jobs are
independent, and batch order is preserved everywhere, so the same
submissions yield bit-identical colorings whether a job was computed,
deduplicated, or served from cache — the test-suite asserts this.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from ..obs import as_recorder
from .backends import ExecutionBackend, InlineBackend
from .cache import ResultCache
from .queue import Job, SubmissionQueue

__all__ = ["BatchScheduler"]


class BatchScheduler:
    """Drain the queue in rounds; dedup, batch, dispatch, cache.

    Parameters
    ----------
    queue / cache:
        The submission queue to drain and the result cache to consult
        and publish into.
    workers:
        Worker-pool width for dispatch groups (1 = run jobs inline,
        sequentially — the fully deterministic default).
    batch_size:
        Max jobs drained per round (``None`` = everything queued).
    backend:
        The :class:`~repro.serve.backends.ExecutionBackend` primaries run
        on (default: a fresh :class:`~repro.serve.backends.InlineBackend`).
    recorder:
        Observability sink for the ``serve.scheduler.*`` counters.
    """

    def __init__(self, queue: SubmissionQueue, cache: ResultCache, *,
                 workers: int = 1, batch_size: int | None = None,
                 backend: ExecutionBackend | None = None,
                 recorder=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.queue = queue
        self.cache = cache
        self.backend = backend if backend is not None else InlineBackend()
        self.workers = int(workers)
        self.batch_size = batch_size
        self._rec = as_recorder(recorder)
        self._lock = threading.RLock()
        self._rounds = 0
        self._executed = 0
        self._cache_hits = 0
        self._dedup_hits = 0
        self._failures = 0
        self._resolved = 0
        self._deadline_failed = 0

    # ------------------------------------------------------------------
    def run_round(self) -> int:
        """Process one batch; return the number of jobs resolved."""
        batch = self.queue.take_batch(self.batch_size)
        if not batch:
            return 0
        with self._lock:
            self._rounds += 1
        self._rec.count("serve.scheduler.rounds")

        # 0. deadlines: a job whose budget elapsed while queued fails
        # fast here, before it can occupy a cache probe or a worker
        live: list[Job] = []
        for job in batch:
            if job.expired():
                with self._lock:
                    self._deadline_failed += 1
                self.queue.fail_deadline(job)
            else:
                live.append(job)

        # 1. cache lookup (memory, then disk spill)
        misses: list[Job] = []
        for job in live:
            cached = self.cache.get(job.key)
            if cached is not None:
                self._finish(job, source="cache", result=cached)
            else:
                misses.append(job)

        # 2. in-flight dedup: one primary per key, followers ride along
        primaries: list[Job] = []
        followers: dict[str, list[Job]] = {}
        by_key: dict[str, Job] = {}
        for job in misses:
            if job.key in by_key:
                followers.setdefault(job.key, []).append(job)
            else:
                by_key[job.key] = job
                primaries.append(job)

        # 3.+4. compatible groups, dispatched through the pool
        groups: dict[tuple[str, int], list[Job]] = {}
        for job in primaries:
            groups.setdefault((job.config.mode, job.config.threads), []).append(job)
        for group in groups.values():
            width = min(self.workers, len(group))
            for job, (result, error) in zip(group, self._dispatch(group, width)):
                kin = [job] + followers.get(job.key, [])
                if error is not None:
                    for j in kin:
                        self._finish(j, source="computed" if j is job else "dedup",
                                     error=error)
                else:
                    # 5. publish before resolving so a concurrent round
                    # observing "done" also observes the cache entry
                    if not job.meta.get("no_cache"):
                        self.cache.put(job.key, result)
                    for j in kin:
                        self._finish(j, source="computed" if j is job else "dedup",
                                     result=result)
        return len(batch)

    def run_until_idle(self, max_rounds: int | None = None) -> int:
        """Run rounds until the queue is empty; return total jobs resolved."""
        total = 0
        rounds = 0
        while True:
            done = self.run_round()
            if done == 0:
                return total
            total += done
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                return total

    # ------------------------------------------------------------------
    def _dispatch(self, group: list[Job], width: int) -> list[tuple]:
        """Run one group's jobs; (result, error) per job, in order."""
        if width == 1 or len(group) == 1:
            return [self._run_one(job) for job in group]
        with ThreadPoolExecutor(max_workers=width) as pool:
            return list(pool.map(self._run_one, group))

    def _run_one(self, job: Job) -> tuple:
        """Execute one primary: ``(result, None)`` or ``(None, error)``."""
        self.queue.mark_running(job)
        with self._lock:
            self._executed += 1
        self._rec.count("serve.scheduler.executed")
        try:
            return self.backend.run(job), None
        except Exception as exc:  # noqa: BLE001 - a bad job must not kill the service
            return None, f"{type(exc).__name__}: {exc}"

    def _finish(self, job: Job, *, source: str, result=None, error=None) -> None:
        job.source = source
        if error is not None:
            job.status = "failed"
            job.error = error
            with self._lock:
                self._failures += 1
            self._rec.count("serve.scheduler.failures")
        else:
            job.status = "done"
            job.result = result
            if source == "cache":
                with self._lock:
                    self._cache_hits += 1
                self._rec.count("serve.scheduler.cache_hits")
            elif source == "dedup":
                with self._lock:
                    self._dedup_hits += 1
                self._rec.count("serve.scheduler.dedup_hits")
        with self._lock:
            self._resolved += 1
        self.queue.mark_terminal(job)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Scheduler counters: rounds, executions, hit/dedup/failure mix."""
        with self._lock:
            return {
                "rounds": self._rounds,
                "resolved": self._resolved,
                "executed": self._executed,
                "cache_hits": self._cache_hits,
                "dedup_hits": self._dedup_hits,
                "failures": self._failures,
                "readmitted": 0,  # perfbench reads it; goes when perfbench next changes
                "deadline_failed": self._deadline_failed,
                "workers": self.workers,
                **self.backend.stats(),
            }
