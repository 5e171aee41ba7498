"""Batching scheduler: cache lookup, in-flight dedup, grouped dispatch.

A repeat whose result is in the memory cache never reaches a round:
:meth:`BatchScheduler.admit` hands the queue a probe of the
:class:`ResultCache`, and a hit is finished on the submitting thread
through the same finish path a round uses (same row, same counts).

Each scheduling *round* drains a batch from the submission queue and
resolves every job in it through a fixed funnel:

1. **cache** — jobs whose content key hits the :class:`ResultCache`,
   or else the job store (:meth:`BatchScheduler.lookup`), finish
   immediately without touching a worker.  These are the misses of the
   admission probe: jobs whose key was published while they waited
   (a twin computed in an earlier round), and results only the store
   holds (after a restart or an eviction);
2. **dedup** — remaining jobs are grouped by key: the first job of each
   key becomes the *primary*, identical jobs become *followers* that
   share the primary's computation (two identical submissions in one
   round cost one ``execute`` call);
3. **grouping** — primaries are batched into compatible dispatch groups
   by ``(mode, threads)`` so one round's pool has a uniform shape;
4. **dispatch** — each group runs through the worker pool, every job as
   one :class:`~repro.serve.backends.InlineBackend` ``execute`` call
   under its own config — including its ``on_failure`` resilience
   policy, so a degraded-but-healed run is a normal ``done`` job while
   an unhealable one fails with the error recorded;
5. **publish** — successes enter the cache; primaries and followers are
   marked terminal (the primary's ``done`` store write carries the
   result) and their queue slots released.

Determinism: ``execute`` is deterministic for a fixed seed, jobs are
independent, and batch order is preserved everywhere, so the same
submissions yield bit-identical colorings whether a job was computed,
deduplicated, or served from cache — the test-suite asserts this.

The round counts live in one :class:`repro.obs.Counters` map that
:meth:`BatchScheduler.stats` reads and the recorder mirrors as
``serve.scheduler.<stats key>``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..obs import Counters
from .backends import InlineBackend
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
    recorder:
        Observability sink that mirrors each count as
        ``serve.scheduler.<stats key>``.
    """

    def __init__(self, queue: SubmissionQueue, cache: ResultCache, *,
                 workers: int = 1, batch_size: int | None = None,
                 recorder=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.queue = queue
        self.cache = cache
        self.backend = InlineBackend()
        self.workers = int(workers)
        self.batch_size = batch_size
        self._counts = Counters("serve.scheduler", (
            "rounds", "resolved", "executed", "cache_hits", "store_hits",
            "dedup_hits", "failures", "deadline_failed"), recorder)

    # ------------------------------------------------------------------
    def run_round(self) -> int:
        """Process one batch; return the number of jobs resolved."""
        batch = self.queue.take_batch(self.batch_size)
        if not batch:
            return 0
        self._counts.add("rounds")

        # 0. deadlines: a job whose budget elapsed while queued fails
        # fast here, before it can occupy a cache probe or a worker
        live: list[Job] = []
        for job in batch:
            if job.expired():
                self._counts.add("deadline_failed")
                self.queue.fail_deadline(job)
            else:
                live.append(job)

        # 1. result lookup (memory, then the job store)
        misses: list[Job] = []
        for job in live:
            cached = self.lookup(job.key)
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

    def admit(self, graph, config, **kwargs) -> Job:
        """Admit one job through the queue; answer a memory hit right here.

        The queue probes the result cache, in memory only, once the
        request passed validation, the backlog bound and the quota (see
        :meth:`SubmissionQueue.submit`).  A hit is finished on the calling
        thread through the round's own path, so its row, its counts and
        its ``source="cache"`` are a round-time hit's; it is never queued
        and needs no round.  A miss is queued, and its round looks the key
        up again (cache, then the job store).  *kwargs* go to the queue.
        """
        job = self.queue.submit(graph, config, probe=self.cache.probe,
                                **kwargs)
        if job.result is not None:
            self._finish(job, source="cache", result=job.result)
        return job

    def lookup(self, key: str):
        """The result stored under *key*: the cache first, then the job
        store, whose hit is put into the cache; ``None`` when neither has
        it."""
        result = self.cache.get(key)
        if result is None:
            result = self.queue.store.result(key)
            if result is not None:
                self._counts.add("store_hits")
                self.cache.put(key, result)
        return result

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
        self._counts.add("executed")
        try:
            return self.backend.run(job), None
        except Exception as exc:  # noqa: BLE001 - a bad job must not kill the service
            return None, f"{type(exc).__name__}: {exc}"

    def _finish(self, job: Job, *, source: str, result=None, error=None) -> None:
        job.source = source
        if error is not None:
            job.status = "failed"
            job.error = error
            self._counts.add("failures")
        else:
            job.status = "done"
            job.result = result
            if source == "cache":
                self._counts.add("cache_hits")
            elif source == "dedup":
                self._counts.add("dedup_hits")
        self._counts.add("resolved")
        self.queue.mark_terminal(job)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Scheduler counters: rounds, executions, hit/dedup/failure mix."""
        return {
            **self._counts.snapshot(),
            "readmitted": 0,  # perfbench reads it; goes when perfbench next changes
            "workers": self.workers,
        }
