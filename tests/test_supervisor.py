"""Tests for the supervision/degradation layer (repro.serve.supervisor).

Covers the circuit breaker's state machine, the degradation ladder,
per-job deadlines, store-error tolerance, spill-failure degradation,
the HTTP 500 boundary, and the supervisor's tick loop —
all in-process and deterministic (chaos comes from seeded FaultPlans or
explicit calls, never from timing luck).
"""

from __future__ import annotations

import time

import pytest

import repro.serve.backends as backends_mod
from repro.graph import erdos_renyi_graph
from repro.resilience import (
    FaultPlan,
    PROCESS_FAULT_KINDS,
    WORKER_FAULT_KINDS,
)
from repro.run import RunConfig, execute
from repro.serve import (
    ChaosStore,
    CircuitBreaker,
    ColoringService,
    DegradingBackend,
    InlineBackend,
    SequentialBackend,
)
from repro.serve.api import dispatch


@pytest.fixture
def graph():
    return erdos_renyi_graph(250, 0.03, seed=3)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# fault-plan chaos grammar
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_chaos_kinds_round_trip(self):
        spec = "spill@r0x3;spillrot@r4;storeerr@r1x2"
        plan = FaultPlan.from_spec(spec)
        assert plan.to_spec() == spec
        assert [f.kind for f in plan.faults] == [
            "spill", "spillrot", "storeerr"]

    def test_for_op_occurrence_window(self):
        plan = FaultPlan.from_spec("spill@r1x2")
        assert plan.for_op("spill", 0) is None
        assert plan.for_op("spill", 1) is not None
        assert plan.for_op("spill", 2) is not None
        assert plan.for_op("spill", 3) is None

    def test_for_op_rejects_worker_kinds(self):
        with pytest.raises(ValueError, match="for_op kind"):
            FaultPlan().for_op("stall", 0)

    def test_chaos_kinds_never_match_worker_tasks(self):
        plan = FaultPlan.from_spec("spill@r0;spillrot@r0;storeerr@r0")
        assert plan.for_task(0, 0) is None
        assert set(PROCESS_FAULT_KINDS).isdisjoint(WORKER_FAULT_KINDS)

    def test_worker_kinds_still_require_worker(self):
        with pytest.raises(ValueError, match="needs a worker"):
            FaultPlan.from_spec("stall@r0")
        FaultPlan.from_spec("spill@r0")  # IO kinds do not


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        br = CircuitBreaker("x", fail_threshold=3, cooldown_s=10, clock=clock)
        assert br.state == "closed" and br.allow()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"
        br.record_failure()
        assert br.state == "open" and not br.allow()

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        br = CircuitBreaker("x", fail_threshold=1, cooldown_s=10, clock=clock)
        br.record_failure()
        assert not br.allow()
        clock.now += 10
        assert br.state == "half-open" and br.allow()
        br.record_success()
        assert br.state == "closed"

    def test_half_open_probe_failure_rearms_cooldown(self):
        clock = FakeClock()
        br = CircuitBreaker("x", fail_threshold=1, cooldown_s=10, clock=clock)
        br.record_failure()
        clock.now += 10
        assert br.allow()
        br.record_failure()  # failed probe
        assert br.state == "open" and not br.allow()
        clock.now += 9.9
        assert not br.allow()
        clock.now += 0.2
        assert br.allow()

    def test_success_resets_streak(self):
        br = CircuitBreaker("x", fail_threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
class _Boom(backends_mod.ExecutionBackend):
    name = "boom"

    def __init__(self, exc=RuntimeError("shard blew up")):
        self.exc = exc
        self.calls = 0

    def run(self, job):
        self.calls += 1
        raise self.exc


class TestDegradingBackend:
    def _service(self, backend, **kwargs):
        svc = ColoringService(**kwargs)
        svc.scheduler.backend = backend
        svc.backend = backend
        return svc

    def test_falls_through_to_inline_and_stamps_meta(self, graph):
        boom = _Boom()
        ladder = DegradingBackend.ladder(boom)
        assert [r.name for r in ladder.rungs] == ["boom", "inline",
                                                  "sequential"]
        svc = self._service(ladder)
        job = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert job.status == "done"
        assert job.meta["degraded_to"] == "inline"
        assert job.meta["downgrades"] == ["boom"]
        assert ladder.stats()["downgrades"] == 1
        assert ladder.stats()["breakers"]["boom"]["failures"] == 1

    def test_open_breaker_skips_rung(self, graph):
        boom = _Boom()
        ladder = DegradingBackend.ladder(boom, fail_threshold=1,
                                         cooldown_s=3600)
        svc = self._service(ladder)
        svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert boom.calls == 1 and ladder.degraded
        # different key → second job skips the open boom rung entirely
        svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=1))
        assert boom.calls == 1
        assert ladder.stats()["rung_skips"] >= 1

    def test_last_rung_always_attempted(self, graph, monkeypatch):
        ladder = DegradingBackend([SequentialBackend()], fail_threshold=1,
                                  cooldown_s=3600)
        ladder.breakers[0].record_failure()
        assert not ladder.breakers[0].allow()
        svc = self._service(ladder)
        job = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert job.status == "done"

    def test_all_rungs_fail_surfaces_last_error(self, graph):
        ladder = DegradingBackend([_Boom(), _Boom(ValueError("still bad"))])
        svc = self._service(ladder)
        job = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert job.status == "failed"
        assert "still bad" in job.error

    def test_ladder_passthrough_and_dedup(self):
        ladder = DegradingBackend.ladder(InlineBackend())
        assert [r.name for r in ladder.rungs] == ["inline", "sequential"]
        assert DegradingBackend.ladder(ladder) is ladder

    def test_sequential_rung_result_is_proper_and_uncached(self, graph):
        ladder = DegradingBackend.ladder(_Boom())
        # force straight to the last rung
        ladder.rungs = [ladder.rungs[0], ladder.rungs[2]]
        ladder.breakers = [ladder.breakers[0], ladder.breakers[2]]
        svc = self._service(ladder)
        cfg = RunConfig("greedy-ff", mode="superstep", threads=2, seed=0)
        job = svc.submit_and_wait(graph, cfg)
        assert job.status == "done"
        assert job.meta["degraded_mode"] == "sequential"
        # the degraded result must not be published under the batch-sync key
        assert svc.cache.get(job.key) is None
        expected = execute(graph, cfg.replace(mode="sequential", threads=1))
        assert (job.result.coloring.colors == expected.coloring.colors).all()


# ----------------------------------------------------------------------
# per-job deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_job_fails_fast_without_executing(self, graph,
                                                      counted_execute):
        svc = ColoringService()
        job = svc.submit(graph, RunConfig("greedy-ff", seed=0),
                         deadline_ms=0.01)
        time.sleep(0.002)
        svc.process()
        assert job.status == "failed"
        assert job.source == "deadline"
        assert job.meta["reason"] == "deadline"
        assert "deadline" in job.error
        assert counted_execute == []  # never occupied a worker
        assert svc.queue.stats()["deadline_expired"] == 1
        assert svc.scheduler.stats()["deadline_failed"] == 1

    def test_generous_deadline_completes(self, graph):
        svc = ColoringService()
        job = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0),
                                  deadline_ms=60_000)
        assert job.status == "done"
        assert job.describe()["deadline_ms"] == 60_000

    def test_expire_deadlines_sweeps_queue(self, graph):
        svc = ColoringService()
        jobs = [svc.submit(graph, RunConfig("greedy-ff", seed=s),
                           deadline_ms=0.01) for s in range(3)]
        keep = svc.submit(graph, RunConfig("greedy-ff", seed=9))
        time.sleep(0.002)
        assert svc.queue.expire_deadlines() == 3
        assert all(j.status == "failed" for j in jobs)
        assert keep.status == "pending"
        assert svc.queue.pending_count == 1

    def test_invalid_deadline_rejected(self, graph):
        svc = ColoringService()
        from repro.serve import AdmissionError

        with pytest.raises(AdmissionError, match="deadline_ms"):
            svc.submit(graph, RunConfig("greedy-ff", seed=0), deadline_ms=-5)

    def test_http_deadline_field(self, graph):
        svc = ColoringService()
        body = {"input": "cnr", "scale": 0.05, "seed": 0,
                "config": {"strategy": "greedy-ff", "seed": 0},
                "deadline_ms": 60_000}
        status, reply = dispatch(svc, "POST", "/submit", body)
        assert status == 202
        assert svc.queue.job(reply["job_id"]).deadline_ms == 60_000
        status, reply = dispatch(svc, "POST", "/submit",
                                 dict(body, deadline_ms="soon"))
        assert status == 400 and "deadline_ms" in reply["error"]

    @pytest.fixture
    def counted_execute(self, monkeypatch):
        calls = []
        real = backends_mod.execute

        def counting(graph, config, *, initial=None):
            calls.append(config)
            return real(graph, config, initial=initial)

        monkeypatch.setattr(backends_mod, "execute", counting)
        return calls


# ----------------------------------------------------------------------
# store-error tolerance (storeerr chaos)
# ----------------------------------------------------------------------
class TestStoreErrorTolerance:
    def test_injected_store_error_does_not_fail_job(self, graph):
        # transition #1 is the first mark_running → raises StoreError
        svc = ColoringService(fault_plan="storeerr@r0x2")
        assert isinstance(svc.store, ChaosStore)
        job = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert job.status == "done"
        assert svc.store.injected >= 1
        assert svc.queue.stats()["store_errors"] >= 1
        health = svc.healthz()
        assert health["status"] == "degraded"
        assert any("store" in r for r in health["degraded_reasons"])

    def test_memory_remains_source_of_truth(self, graph):
        svc = ColoringService(fault_plan="storeerr@r0x50")
        job = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert job.status == "done" and job.result is not None
        # the row never left pending, but the client still gets a result
        assert svc.store.get(job.id)["status"] == "pending"
        assert svc.result(job.id).result is job.result


# ----------------------------------------------------------------------
# spill-failure degradation (spill / spillrot chaos)
# ----------------------------------------------------------------------
class TestSpillDegradation:
    def test_enospc_degrades_to_memory_only(self, graph, tmp_path):
        svc = ColoringService(spill_dir=tmp_path / "spill",
                              fault_plan="spill@r0x2")
        jobs = [svc.submit_and_wait(
            graph, RunConfig("greedy-ff", seed=s), ) for s in range(3)]
        assert all(j.status == "done" for j in jobs)
        # force eviction-driven spills by clearing memory only
        stats = svc.cache.stats()
        assert stats["spill_errors"] == 0  # no eviction yet: no writes
        svc.cache.max_bytes = 1
        svc.cache.put(jobs[0].key, jobs[0].result)  # evict+spill → ENOSPC
        svc.cache.put(jobs[1].key, jobs[1].result)
        stats = svc.cache.stats()
        assert stats["spill_errors"] == 2
        assert stats["degraded"] is True
        svc.cache.put(jobs[2].key, jobs[2].result)  # degraded: no attempt
        assert svc.cache.stats()["spill_errors"] == 2
        health = svc.healthz()
        assert health["status"] == "degraded"
        assert any("cache" in r for r in health["degraded_reasons"])
        assert not list((tmp_path / "spill").glob("*.npz"))

    def test_torn_spill_write_quarantined_on_read(self, graph, tmp_path):
        spill = tmp_path / "spill"
        svc = ColoringService(spill_dir=spill, fault_plan="spillrot@r0")
        svc.cache.max_bytes = 1  # every put evicts+spills immediately
        job = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert job.status == "done"
        assert len(list(spill.glob("*.npz"))) == 1  # truncated on disk
        # the read path must quarantine, miss, and recompute — not crash
        assert svc.cache.get(job.key) is None
        assert svc.cache.stats()["spill_corrupt"] == 1
        assert list(spill.glob("*.npz.corrupt"))
        assert not list(spill.glob("*.npz"))
        again = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert again.status == "done" and again.source == "computed"
        assert (again.result.coloring.colors
                == job.result.coloring.colors).all()


# ----------------------------------------------------------------------
# HTTP 500 boundary
# ----------------------------------------------------------------------
class TestHttpErrorBoundary:
    def test_unexpected_exception_becomes_structured_500(self, monkeypatch):
        from repro.obs import Recorder

        svc = ColoringService(recorder=Recorder())
        monkeypatch.setattr(ColoringService, "stats",
                            lambda self: 1 / 0)
        status, payload = dispatch(svc, "GET", "/stats")
        assert status == 500
        assert payload == {"error": "internal error: ZeroDivisionError: "
                                    "division by zero"}
        assert svc.recorder.events_of("serve_http_error")


# ----------------------------------------------------------------------
# the supervisor itself
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_tick_sweeps_deadlines(self, graph):
        svc = ColoringService(supervise=True)
        jobs = [svc.submit(graph, RunConfig("greedy-ff", seed=s),
                           deadline_ms=0.01) for s in range(2)]
        time.sleep(0.002)
        report = svc.supervisor.tick()
        assert report["expired"] == 2
        assert all(j.status == "failed" for j in jobs)
        assert svc.supervisor.stats()["deadline_expired"] == 2

    def test_tick_restarts_dead_pump(self, graph):
        svc = ColoringService(supervise=True)
        try:
            svc.start()
            assert svc.pump_alive
            # simulate a pump crash: kill the thread by stopping it but
            # leaving _pump_wanted set (what an uncaught death looks like)
            svc._stopping.set()
            svc._wake.set()
            svc._pump.join(5)
            assert not svc.pump_alive and svc._pump_wanted
            svc._stopping.clear()
            report = svc.supervisor.tick()
            assert report["pump_restarted"] is True
            assert svc.pump_alive
            job = svc.submit(graph, RunConfig("greedy-ff", seed=0))
            assert job.wait(30) and job.status == "done"
        finally:
            svc.stop()

    def test_supervisor_thread_lifecycle(self):
        svc = ColoringService(supervise=True, supervisor_interval=0.01)
        svc.start()
        try:
            deadline = time.monotonic() + 10
            while svc.supervisor.stats()["ticks"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert svc.supervisor.running
        finally:
            svc.stop()
        assert not svc.supervisor.running

    def test_tick_errors_do_not_kill_loop(self, monkeypatch):
        svc = ColoringService(supervise=True, supervisor_interval=0.01)
        calls = []

        def boom():
            calls.append(1)
            raise RuntimeError("tick exploded")

        monkeypatch.setattr(svc.supervisor, "tick", boom)
        svc.supervisor.start()
        try:
            deadline = time.monotonic() + 10
            while len(calls) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert svc.supervisor.running
            assert svc.supervisor.stats()["supervisor_errors"] >= 1
        finally:
            svc.supervisor.stop()


# ----------------------------------------------------------------------
# stop() drains or marks in-flight jobs
# ----------------------------------------------------------------------
class TestStopInterrupted:
    def test_stop_reports_interrupted_jobs(self, graph, tmp_path):
        svc = ColoringService(store=tmp_path / "store")
        svc.submit(graph, RunConfig("greedy-ff", seed=0))
        running = svc.queue.take_batch(1)[0]
        svc.queue.mark_running(running)  # dispatched, never finished
        summary = svc.stop()
        assert summary["interrupted"] == 1
        assert summary["pump_joined"] is True
        # the row went back to pending with the interruption recorded,
        # so the next life's recovery re-admits it
        svc2 = ColoringService(store=tmp_path / "store")
        assert svc2.recovered["requeued"] == 1
        job = svc2.queue.take_batch(1)[0]
        assert job.meta.get("interrupted") is True
        svc2.stop()

    def test_clean_stop_reports_zero(self, graph):
        svc = ColoringService()
        svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert svc.stop() == {"interrupted": 0, "pump_joined": True}
