"""A persistent, process-wide warm worker pool.

The legacy mp backend built a fresh ``fork`` Pool per job: every
``execute()`` paid process start-up, and spawn-only platforms (macOS,
Windows, some hardened Linux configurations) did not work at all because
the workers relied on copy-on-write globals.  This module provides the
replacement substrate:

- :func:`pick_context` selects a start method — ``fork`` where the
  platform offers it (cheapest), otherwise ``spawn`` — overridable with
  the ``REPRO_MP_CONTEXT`` environment variable.  Workers receive their
  data exclusively through :mod:`repro.shm.segments` descriptors, so
  every start method behaves identically; nothing depends on
  copy-on-write.
- :class:`WarmPool` wraps one ``multiprocessing.Pool`` that is created
  on first use and *reused* across rounds and jobs.  ``ensure(n)``
  grows the pool when a job needs more workers and counts
  reuse/cold-start events; ``multiprocessing.Pool`` itself respawns a
  worker that dies mid-task (the ``kill`` fault), and the respawned
  worker re-attaches to segments lazily from task descriptors, so a
  worker death never poisons the pool or leaks a segment.
- :func:`warm_pool` is the process-wide singleton the mp backend and the
  serving layer share — spawned once per process/service, exactly the
  shape ROADMAP item 3 asks for.  :func:`shutdown_warm_pool` tears it
  down (tests, interpreter exit).

Determinism is unaffected: the pool only runs block-coloring tasks whose
results are merged in block order, so *which* worker computes a block
never influences the coloring.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import multiprocessing.pool as mp_pool
import os
import threading

from ..kernels import compiled

__all__ = [
    "PoolUnavailableError",
    "WarmPool",
    "pick_context",
    "shutdown_warm_pool",
    "warm_pool",
]

#: ``multiprocessing.Pool``'s internal "accepting tasks" state marker.
_POOL_RUN = getattr(mp_pool, "RUN", "RUN")


class PoolUnavailableError(RuntimeError):
    """The warm pool cannot accept tasks right now (not ensured, or its
    inner pool was closed/terminated mid-flight).  The serving scheduler
    treats this as *retryable*: the job is re-admitted through the
    ``running → pending`` recovery edge instead of failing, and the next
    ``ensure`` (or a supervisor respawn) rebuilds the pool."""


def _pool_ping() -> int:
    """No-op heartbeat task: round-trips the worker's pid."""
    return os.getpid()


def _reap(pool, timeout: float = 5.0) -> bool:
    """Terminate *pool* with a bounded wait; True once fully joined.

    ``Pool.terminate`` can block forever on a pool whose worker was
    SIGKILLed mid-``get``: the dead worker held the shared task-queue
    lock and ``_help_stuff_finish`` waits to acquire it (bpo-22393).
    A pool being reaped is garbage either way, so its workers are killed
    directly first (nothing in its queue is worth draining) and the
    terminate/join runs on a daemon thread with a bounded wait.  If even
    that wedges, the pool object is abandoned — its handler threads are
    daemons and die with the process — and the caller records the leak.
    """
    for proc in list(getattr(pool, "_pool", None) or []):
        try:
            proc.kill()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass
    done = threading.Event()

    def _terminate() -> None:
        try:
            pool.terminate()
            pool.join()
        finally:
            done.set()

    threading.Thread(target=_terminate, name="repro-pool-reaper",
                     daemon=True).start()
    return done.wait(timeout)

#: Environment override for the start method (``fork`` / ``spawn`` /
#: ``forkserver``).  Unset picks ``fork`` when available, else ``spawn``.
ENV_CONTEXT = "REPRO_MP_CONTEXT"


def pick_context(method: str | None = None):
    """Resolve a multiprocessing context: arg > env > fork-else-spawn."""
    available = mp.get_all_start_methods()
    name = method or os.environ.get(ENV_CONTEXT, "").strip() or None
    if name is None:
        name = "fork" if "fork" in available else "spawn"
    if name not in available:
        raise ValueError(
            f"start method {name!r} not available on this platform; "
            f"choose from {available}"
        )
    return mp.get_context(name)


class WarmPool:
    """One lazily created, persistently reused multiprocessing pool.

    The pool is sized to the largest worker count any job has asked for;
    a job that needs fewer workers simply leaves the extras idle (they
    hold no per-job state — tasks carry segment descriptors).  Shrinking
    is deliberately not supported: pools are cheap to keep and expensive
    to rebuild.
    """

    def __init__(self, *, context: str | None = None):
        self._method = context
        self._pool = None
        self._processes = 0
        self._retired: list = []
        self._lock = threading.RLock()
        self._stats = {"cold_starts": 0, "reused": 0, "jobs": 0,
                       "grown": 0, "retired": 0, "respawns": 0,
                       "leaked": 0}

    # ------------------------------------------------------------------
    def ensure(self, processes: int, *, context: str | None = None) -> bool:
        """Make the pool usable with *processes* workers; True on reuse.

        Creates the pool on first call (a *cold start*), grows it when a
        job asks for more workers than it has (counted under ``grown`` —
        still a cold start for latency purposes), and otherwise reuses
        it untouched.  ``context`` only matters for the call that
        creates the pool; it cannot change afterwards.
        """
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        with self._lock:
            self._stats["jobs"] += 1
            if self._pool is not None and not self._healthy_locked():
                # a closed/terminated inner pool can never run tasks
                # again (chaos, or an external terminate): drop it and
                # cold-start a replacement instead of handing out a pool
                # that rejects every submit
                dead, self._pool = self._pool, None
                self._processes = 0
                self._retired.append(dead)
                self._stats["retired"] += 1
                self._stats["respawns"] += 1
            if self._pool is not None and processes <= self._processes:
                self._stats["reused"] += 1
                return True
            grown = self._pool is not None
            if grown:
                self._stats["grown"] += 1
                self._retire_locked()
            ctx = pick_context(context or self._method)
            self._method = ctx.get_start_method()
            # load the compiled kernels first: forked workers (and the
            # ones the pool respawns) inherit the loaded library instead
            # of each building or opening it on their first task
            compiled.load()
            # no initializer/initargs: workers are stateless until the
            # first task hands them segment descriptors to attach
            self._pool = ctx.Pool(processes=processes)
            self._processes = processes
            self._stats["cold_starts"] += 1
            return False

    def apply_async(self, fn, args: tuple):
        """Submit one task; the pool must have been ``ensure``-d first.

        Raises :class:`PoolUnavailableError` when the pool cannot take
        tasks — never ensured, or its inner pool died between ``ensure``
        and this submit (mid-flight chaos).  Callers in the serving
        stack treat that as a retryable condition, not a job failure.
        """
        with self._lock:
            if self._pool is None:
                raise PoolUnavailableError(
                    "WarmPool.ensure() must run before submit")
            try:
                return self._pool.apply_async(fn, args)
            except (ValueError, AssertionError) as exc:
                # mp.Pool raises ValueError("Pool not running") once
                # closed/terminated (AssertionError on older pythons)
                raise PoolUnavailableError(
                    f"warm pool cannot accept tasks: {exc}") from exc

    def _healthy_locked(self) -> bool:
        """Whether the inner pool still accepts tasks (caller holds lock)."""
        if self._pool is None:
            return False
        return getattr(self._pool, "_state", _POOL_RUN) == _POOL_RUN

    # ------------------------------------------------------------------
    # supervision surface: heartbeats, liveness, respawn
    # ------------------------------------------------------------------
    def worker_pids(self) -> list[int]:
        """Pids of the current worker processes ([] before first ensure)."""
        with self._lock:
            if self._pool is None:
                return []
            return [p.pid for p in self._pool._pool]  # noqa: SLF001

    def heartbeat(self) -> dict:
        """Cheap liveness snapshot: worker pids and which are dead.

        ``multiprocessing.Pool`` replaces a worker that dies mid-task on
        its own, so a dead pid here is transient — the supervisor uses
        pid-set changes across heartbeats to *count* worker deaths and
        :meth:`ping` to decide whether the pool as a whole is wedged.
        """
        with self._lock:
            if self._pool is None:
                return {"processes": 0, "pids": [], "dead": [],
                        "healthy": False, "context": self._method}
            workers = list(self._pool._pool)  # noqa: SLF001
            return {
                "processes": self._processes,
                "pids": [p.pid for p in workers],
                "dead": [p.pid for p in workers if not p.is_alive()],
                "healthy": self._healthy_locked(),
                "context": self._method,
            }

    def ping(self, timeout: float = 5.0) -> bool:
        """Round-trip one no-op task through the pool within *timeout*.

        True means at least one worker is alive and draining the task
        queue; False means the pool is terminated, wedged, or so far
        behind that *timeout* elapsed — the supervisor's respawn signal.
        A pool that was never ensured trivially passes (nothing to probe).
        """
        with self._lock:
            if self._pool is None:
                return True
        try:
            handle = self.apply_async(_pool_ping, ())
            return bool(handle.get(timeout=timeout))
        except PoolUnavailableError:
            return False
        except mp.TimeoutError:
            return False
        except Exception:  # noqa: BLE001 - any transport failure means unhealthy
            return False

    def respawn(self, processes: int | None = None) -> int:
        """Replace the worker pool with a fresh one; returns the new width.

        The supervisor's recovery path: a pool being respawned is
        presumed sick, so the old one is *reaped* — workers killed, then
        a bounded terminate (``close()`` on a wedged pool would never
        drain, and a plain ``terminate()`` can block forever on a
        poisoned task-queue lock) — then a fresh pool of the same width
        (or *processes*) is built.  In-flight ``AsyncResult`` handles
        against the old pool time out and retry through the guarded
        rounds, which submit against the new pool.  A no-op returning 0
        when no pool was ever ensured.
        """
        with self._lock:
            width = int(processes or self._processes)
            if width < 1:
                return 0
            old, self._pool = self._pool, None
            if old is not None:
                if not _reap(old, timeout=2.0):
                    self._stats["leaked"] += 1
                self._stats["retired"] += 1
            ctx = pick_context(self._method)
            self._method = ctx.get_start_method()
            self._pool = ctx.Pool(processes=width)
            self._processes = width
            self._stats["cold_starts"] += 1
            self._stats["respawns"] += 1
            return width

    # ------------------------------------------------------------------
    @property
    def processes(self) -> int:
        """Current pool width (0 before the first ``ensure``)."""
        return self._processes

    @property
    def context(self) -> str | None:
        """The start method in use, once the pool exists."""
        return self._method

    def stats(self) -> dict:
        """Reuse/cold-start counters plus the pool's current shape."""
        with self._lock:
            return {**self._stats, "processes": self._processes,
                    "context": self._method}

    def _retire_locked(self) -> None:
        """Replace the pool without killing its in-flight tasks.

        The serving layer shares this pool across concurrent scheduler
        threads: one job can be mid-round (holding ``AsyncResult``
        handles) while another's ``ensure`` grows the pool.  Terminating
        here would abort the first job's tasks and force its guarded
        rounds through timeout/retry, so the old pool is *retired*
        instead: ``close()`` lets queued tasks drain (its worker
        processes exit on their own once the queue empties) and the
        handle is kept so shutdown can still join it.
        """
        pool, self._pool = self._pool, None
        self._processes = 0
        if pool is not None:
            pool.close()
            self._retired.append(pool)
            self._stats["retired"] += 1

    def _teardown(self) -> None:
        pool, self._pool = self._pool, None
        self._processes = 0
        retired, self._retired = self._retired, []
        if pool is not None:
            retired.append(pool)
        for old in retired:
            if not _reap(old, timeout=5.0):
                self._stats["leaked"] += 1

    def shutdown(self) -> None:
        """Terminate the workers (idempotent); counters survive."""
        with self._lock:
            self._teardown()


# ----------------------------------------------------------------------
# process-wide singleton
# ----------------------------------------------------------------------
_SINGLETON: WarmPool | None = None
_SINGLETON_LOCK = threading.Lock()


def warm_pool() -> WarmPool:
    """The process-wide :class:`WarmPool`, created on first use."""
    global _SINGLETON
    with _SINGLETON_LOCK:
        if _SINGLETON is None:
            _SINGLETON = WarmPool()
        return _SINGLETON


def shutdown_warm_pool() -> None:
    """Tear down the singleton's workers (kept: counters reset too)."""
    global _SINGLETON
    with _SINGLETON_LOCK:
        if _SINGLETON is not None:
            _SINGLETON.shutdown()
            _SINGLETON = None


atexit.register(shutdown_warm_pool)
