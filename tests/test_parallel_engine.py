"""Tests for the tick-synchronous execution engine."""

import numpy as np
import pytest

from repro.obs import Recorder
from repro.parallel.engine import (
    VERTEX_OVERHEAD,
    ExecutionTrace,
    SuperstepRecord,
    TickMachine,
)
from repro.resilience import resolve_fault_plan


class TestTickMachine:
    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            TickMachine(0)

    def test_ticks_batch_sizes(self):
        m = TickMachine(4)
        items = np.arange(10)
        batches = list(m.ticks(items))
        assert [b.shape[0] for _, b in batches] == [4, 4, 2]
        assert batches[0][0] == 0
        assert np.concatenate([b for _, b in batches]).tolist() == list(range(10))

    def test_ticks_single_thread(self):
        m = TickMachine(1)
        batches = list(m.ticks(np.arange(3)))
        assert len(batches) == 3

    def test_charge_accumulates(self):
        m = TickMachine(2)
        r = m.new_superstep()
        m.charge(r, 0, 10)
        m.charge(r, 1, 4)
        m.charge(r, 0, 2)
        assert r.work_per_thread[0] == 12 + 2 * VERTEX_OVERHEAD
        assert r.work_per_thread[1] == 4 + VERTEX_OVERHEAD
        assert r.items == 3

    def test_charge_bulk_even_split(self):
        m = TickMachine(4)
        r = m.new_superstep()
        m.charge_bulk(r, 10)
        assert r.work_per_thread.sum() == 10
        assert r.work_per_thread.max() == 3  # 10 = 3+3+2+2
        assert r.items == 10

    def test_charge_bulk_zero(self):
        m = TickMachine(2)
        r = m.new_superstep()
        m.charge_bulk(r, 0)
        assert r.work_per_thread.sum() == 0

    def test_charge_bulk_negative(self):
        m = TickMachine(2)
        with pytest.raises(ValueError):
            m.charge_bulk(m.new_superstep(), -1)

    def test_charge_serial(self):
        m = TickMachine(2)
        m.charge_serial(100)
        m.charge_serial(50)
        assert m.trace.serial_work == 150

    def test_ticks_width_overrides_thread_count(self):
        batches = list(TickMachine(4).ticks(np.arange(5), 1))
        assert [t for t, _ in batches] == [0, 1, 2, 3, 4]
        assert [b.tolist() for _, b in batches] == [[0], [1], [2], [3], [4]]

    @pytest.mark.parametrize("p", [1, 3, 8])
    @pytest.mark.parametrize("case", ["scan", "degraded", "skip"])
    def test_charge_cyclic_matches_per_vertex_charge(self, p, case):
        degrees = np.random.default_rng(p).integers(0, 50, size=29)
        width = {"scan": None, "degraded": 1, "skip": p}[case]
        if case == "skip":  # full-width ticks with O(1) skips priced at one unit
            degrees[::3] = 1 - VERTEX_OVERHEAD
        m = TickMachine(p)
        want, got = m.new_superstep(), m.new_superstep()
        for i, d in enumerate(degrees):  # item j of each tick on thread j
            m.charge(want, i % (width or p), int(d))
        m.charge_cyclic(got, degrees, width)
        np.testing.assert_array_equal(got.work_per_thread, want.work_per_thread)
        assert got.max_item_work == want.max_item_work
        assert type(got.max_item_work) is type(want.max_item_work)
        assert got.items == want.items

    def test_charge_cyclic_empty_is_noop(self):
        m = TickMachine(3)
        r = m.new_superstep()
        m.charge_cyclic(r, [])
        assert r.items == 0 and r.max_item_work == 0.0
        assert r.work_per_thread.sum() == 0


class TestSpeculate:
    def test_stuck_round_rolls_back_and_cap_drops_to_width_one(self):
        m = TickMachine(4)
        visits = np.zeros(6, dtype=np.int64)
        widths = []

        def tick(batch, record):
            widths.append(batch.shape[0])
            visits[batch] += 1
            return np.zeros(batch.shape[0], dtype=np.int64)

        def detect(work, record):  # every item but the first retries
            return work[1:], np.zeros(work.shape[0], dtype=np.int64)

        rec = Recorder()
        rounds = m.speculate(np.arange(6), tick, detect, rec=rec, max_rounds=2,
                             state=(visits,), plan=resolve_fault_plan("stick@r0:1"))
        assert rounds == 7
        assert widths == [4, 2, 4, 2] + [1] * (5 + 4 + 3 + 2 + 1)
        assert visits.tolist() == [1, 2, 3, 4, 5, 6]  # round 0's visits rolled back
        assert [s.conflicts for s in m.trace.supersteps] == [6, 5, 4, 3, 2, 1, 0]
        assert [e["round"] for e in rec.events if e["kind"] == "fault_injected"] == [0]
        assert m.watchdog_round is None

    def test_watchdog_fires_and_lands_in_meta(self):
        m = TickMachine(2, algorithm="toy")
        seen = []

        def tick(batch, record):
            seen.append(batch.shape[0])
            return np.zeros(batch.shape[0], dtype=np.int64)

        def detect(work, record):  # no progress until the width drops
            return (work if seen[-1] == 2 else work[1:]), work[:0]

        rec = Recorder()
        m.speculate(np.arange(4), tick, detect, rec=rec, max_rounds=100,
                    patience=2, name="toy-parallel")
        meta = m.finish(rec, rounds=0)
        assert meta["watchdog_round"] == m.watchdog_round == 3
        assert meta["trace"] is m.trace and meta["algorithm"] == "toy"
        fired = [e for e in rec.events if e["kind"] == "watchdog_fallback"]
        assert [e["algorithm"] for e in fired] == ["toy-parallel"]


class TestTrace:
    def _record(self, p, work, atomics=0, conflicts=0, reads=0):
        r = SuperstepRecord(work_per_thread=np.asarray(work, dtype=float))
        r.atomic_ops = atomics
        r.conflicts = conflicts
        r.shared_reads = reads
        return r

    def test_totals(self):
        t = ExecutionTrace(num_threads=2)
        t.add(self._record(2, [10, 5], atomics=3, conflicts=1, reads=7))
        t.add(self._record(2, [2, 8], atomics=1, reads=3))
        assert t.num_supersteps == 2
        assert t.total_work == 25
        assert t.critical_path_work == 18
        assert t.total_atomics == 4
        assert t.total_conflicts == 1
        assert t.total_shared_reads == 10
        assert t.total_barriers == 4

    def test_serial_in_critical_path(self):
        t = ExecutionTrace(num_threads=2, serial_work=100)
        assert t.critical_path_work == 100
        assert t.total_work == 100

    def test_summary_keys(self):
        t = ExecutionTrace(num_threads=3, algorithm="x")
        s = t.summary()
        assert s["algorithm"] == "x"
        assert s["threads"] == 3
        assert set(s) >= {"supersteps", "conflicts", "atomics", "work", "critical_path"}

    def test_record_max_work_empty(self):
        r = SuperstepRecord(work_per_thread=np.zeros(2))
        assert r.max_work == 0.0
