"""The process-wide thread team that mp rounds sweep their blocks on.

Every block sweep is one ``ctypes`` call into the compiled kernels,
which releases the GIL for the whole call, so a team of threads inside
this process runs the paper's speculate-and-iterate rounds the way its
OpenMP threads do: each block reads the shared round-start snapshot and
writes its own output array.  :class:`WarmPool` is that team.
``ensure(n)`` widens it to at least *n* threads and ``submit`` queues a
block; :func:`warm_pool` is the singleton every mp job and the serving
layer share.

perfbench imports ``WarmPool``, ``warm_pool``, ``shutdown_warm_pool``
and ``pick_context`` from here by name; when perfbench next changes the
team moves into :mod:`repro.parallel.mp` and this package goes.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = ["WarmPool", "pick_context", "shutdown_warm_pool", "warm_pool"]


def pick_context():  # perfbench imports it; goes when perfbench next changes
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


class WarmPool:
    """A lazily created thread team that only ever widens.

    A job that needs fewer threads than the team has leaves the extras
    idle.  Widening starts a wider team and lets the old one finish the
    blocks already queued on it, so a job in flight never loses one.
    """

    def __init__(self):
        self._team: ThreadPoolExecutor | None = None
        self._threads = 0
        self._lock = threading.Lock()
        self._stats = {"cold_starts": 0, "reused": 0}

    def ensure(self, threads: int) -> bool:
        """Make the team at least *threads* wide; True when it already was."""
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        with self._lock:
            if self._team is not None and threads <= self._threads:
                self._stats["reused"] += 1
                return True
            if self._team is not None:
                self._team.shutdown(wait=False)
            self._team = ThreadPoolExecutor(threads,
                                            thread_name_prefix="repro-mp")
            self._threads = threads
            self._stats["cold_starts"] += 1
            return False

    def submit(self, fn, *args):
        """Queue ``fn(*args)`` on the team; ``ensure`` must have run."""
        with self._lock:
            if self._team is None:
                raise RuntimeError("WarmPool.ensure() must run before submit")
            return self._team.submit(fn, *args)

    @property
    def threads(self) -> int:
        """Current team width (0 before the first ``ensure``)."""
        return self._threads

    def stats(self) -> dict:
        with self._lock:
            return {**self._stats, "threads": self._threads}

    def shutdown(self) -> None:
        """Stop the team once its queued blocks finish (idempotent)."""
        with self._lock:
            team, self._team, self._threads = self._team, None, 0
        if team is not None:
            team.shutdown(wait=True)


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
    """Stop the singleton's threads; the next use starts a fresh team."""
    global _SINGLETON
    with _SINGLETON_LOCK:
        pool, _SINGLETON = _SINGLETON, None
    if pool is not None:
        pool.shutdown()
