"""Tests for the mp thread team (:mod:`repro.shm.pool`).

The team is created lazily, only ever widens (finishing the blocks
already queued), and is reused across jobs and ``execute()`` calls; a
narrower job rides a wider team.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.coloring import assert_proper
from repro.parallel.mp import mp_greedy_ff
from repro.run import RunConfig, execute
from repro.shm import WarmPool, pick_context, shutdown_warm_pool, warm_pool


class TestWarmPool:
    def test_reuse_across_jobs(self, small_cnr):
        pool = warm_pool()
        pool.ensure(2)
        before = pool.stats()
        a = mp_greedy_ff(small_cnr, num_workers=2)
        b = mp_greedy_ff(small_cnr, num_workers=2)
        after = pool.stats()
        assert a.meta["pool_reused"] and b.meta["pool_reused"]
        assert after["cold_starts"] == before["cold_starts"]
        assert after["reused"] == before["reused"] + 2
        assert np.array_equal(a.colors, b.colors)

    def test_reuse_across_execute_calls(self, small_cnr):
        config = RunConfig(strategy="greedy-ff", mode="mp", threads=2, seed=4)
        first = execute(small_cnr, config)
        second = execute(small_cnr, config)
        assert second.coloring.meta["pool_reused"]
        assert np.array_equal(first.coloring.colors, second.coloring.colors)

    def test_grow_then_reuse(self, small_cnr):
        shutdown_warm_pool()  # fresh singleton: earlier tests may have grown it
        pool = warm_pool()
        pool.ensure(2)
        wide = mp_greedy_ff(small_cnr, num_workers=3)
        narrow = mp_greedy_ff(small_cnr, num_workers=2)
        assert not wide.meta["pool_reused"]  # grew: counted as cold
        assert narrow.meta["pool_reused"]  # narrower job rides the wide team
        assert pool.threads == 3
        assert_proper(small_cnr, narrow)

    def test_grow_keeps_blocks_in_flight(self):
        pool, release = WarmPool(), threading.Event()
        try:
            pool.ensure(1)
            handle = pool.submit(lambda: release.wait(30) and 42)
            assert pool.ensure(2) is False  # widens while the block runs
            release.set()
            assert handle.result(timeout=30) == 42  # finished, not dropped
            assert pool.threads == 2 and pool.stats()["cold_starts"] == 2
        finally:
            release.set()
            pool.shutdown()

    def test_pick_context_prefers_fork_else_spawn(self):
        import multiprocessing as mp

        expected = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        assert pick_context().get_start_method() == expected
