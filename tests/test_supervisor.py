"""Tests for the serving layer's robustness (repro.serve.supervisor and
the service's chaos tolerance).

Covers the chaos fault-plan grammar, per-job deadlines, store-error
tolerance, the HTTP 500 boundary, and the
supervisor's deadline-sweep loop — all in-process and deterministic
(chaos comes from seeded FaultPlans or explicit calls, never from
timing luck).
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
from repro.run import RunConfig
from repro.serve import ChaosStore, ColoringService
from repro.serve.api import dispatch


@pytest.fixture
def graph():
    return erdos_renyi_graph(250, 0.03, seed=3)


# ----------------------------------------------------------------------
# fault-plan chaos grammar
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_chaos_kinds_round_trip(self):
        spec = "storeerr@r0x3;storeerr@r4"
        plan = FaultPlan.from_spec(spec)
        assert plan.to_spec() == spec
        assert [f.kind for f in plan.faults] == ["storeerr", "storeerr"]

    def test_for_op_occurrence_window(self):
        plan = FaultPlan.from_spec("storeerr@r1x2")
        assert plan.for_op("storeerr", 0) is None
        assert plan.for_op("storeerr", 1) is not None
        assert plan.for_op("storeerr", 2) is not None
        assert plan.for_op("storeerr", 3) is None

    def test_for_op_rejects_worker_kinds(self):
        with pytest.raises(ValueError, match="for_op kind"):
            FaultPlan().for_op("stall", 0)

    def test_chaos_kinds_never_match_worker_tasks(self):
        plan = FaultPlan.from_spec("storeerr@r0")
        assert plan.for_task(0, 0) is None
        assert set(PROCESS_FAULT_KINDS).isdisjoint(WORKER_FAULT_KINDS)

    def test_worker_kinds_still_require_worker(self):
        with pytest.raises(ValueError, match="needs a worker"):
            FaultPlan.from_spec("stall@r0")
        FaultPlan.from_spec("storeerr@r0")  # IO kinds do not


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
