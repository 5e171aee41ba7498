"""Tests for the durable serving stack (PR 8).

Covers the layers bottom-up: the job store's transition semantics and
restart-surviving ids, and the service-level lifecycle — priorities,
tenant quotas, event-based waits, and crash recovery (interrupted jobs
re-run; persisted results are never re-executed).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.serve.backends as backends_mod
from repro.coloring.verify import assert_proper, is_proper
from repro.graph import erdos_renyi_graph
from repro.graph.delta import MutationBatch
from repro.run import RunConfig, execute
from repro.serve import (
    AdmissionError,
    ColoringService,
    MemoryStore,
    SqliteStore,
    StoreError,
    SubmissionQueue,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def graph():
    return erdos_renyi_graph(300, 0.03, seed=7)


# ----------------------------------------------------------------------
# store layer
# ----------------------------------------------------------------------
class TestJobStore:
    @pytest.fixture(params=["memory", "sqlite"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            yield MemoryStore()
        else:
            st = SqliteStore(tmp_path / "st")
            yield st
            st.close()

    def test_allocate_monotonic_and_pending(self, store):
        a = store.allocate(key="k1", config={"strategy": "vff"})
        b = store.allocate(key="k2", config={"strategy": "vff"})
        assert b > a
        assert store.get(a)["status"] == "pending"
        assert store.counts()["pending"] == 2

    def test_legal_lifecycle(self, store):
        jid = store.allocate(key="k", config={})
        store.transition(jid, "running")
        store.transition(jid, "done", source="computed",
                         meta={"num_colors": 4}, finished_at=1.0)
        rec = store.get(jid)
        assert rec["status"] == "done"
        assert rec["source"] == "computed"
        assert rec["meta"]["num_colors"] == 4
        assert rec["finished_at"] == 1.0

    def test_pending_straight_to_done_is_legal(self, store):
        # cache and dedup hits finish without ever dispatching
        jid = store.allocate(key="k", config={})
        store.transition(jid, "done", source="cache")
        assert store.get(jid)["status"] == "done"

    def test_illegal_transitions_raise(self, store):
        jid = store.allocate(key="k", config={})
        store.transition(jid, "running")
        store.transition(jid, "done")
        with pytest.raises(StoreError, match="cannot transition"):
            store.transition(jid, "running")  # done is final
        with pytest.raises(StoreError, match="cannot transition"):
            store.transition(jid, "failed")  # finishing twice
        with pytest.raises(StoreError, match="unknown job id"):
            store.transition(999, "running")
        with pytest.raises(StoreError, match="unknown target status"):
            store.transition(jid, "exploded")

    def test_recovery_edge_running_back_to_pending(self, store):
        jid = store.allocate(key="k", config={})
        store.transition(jid, "running")
        store.transition(jid, "pending")  # restart re-admission
        store.transition(jid, "pending")  # idempotent for never-dispatched
        assert store.get(jid)["status"] == "pending"

    def test_by_status_in_id_order(self, store):
        ids = [store.allocate(key=f"k{i}", config={}) for i in range(3)]
        store.transition(ids[1], "running")
        recs = store.by_status("pending")
        assert [r["id"] for r in recs] == [ids[0], ids[2]]


class TestSqliteStorePersistence:
    def test_ids_monotonic_across_reopen(self, tmp_path):
        st = SqliteStore(tmp_path / "st")
        a = st.allocate(key="k1", config={})
        st.transition(a, "done")
        st.close()
        st2 = SqliteStore(tmp_path / "st")
        b = st2.allocate(key="k2", config={})
        assert b > a
        assert st2.get(a)["status"] == "done"  # state survived
        st2.close()

    def test_persist_and_reload_graph(self, tmp_path, graph):
        st = SqliteStore(tmp_path / "st")
        ref = st.persist_graph(graph)
        again = st.persist_graph(graph)
        assert again == ref  # content-deduplicated
        loaded = st.load_graph(ref)
        assert np.array_equal(loaded.indptr, graph.indptr)
        assert np.array_equal(loaded.indices, graph.indices)
        with pytest.raises(StoreError, match="unrecoverable"):
            st.load_graph(str(tmp_path / "nowhere"))
        st.close()

    def test_persisted_graph_ref_remembered(self, tmp_path, graph,
                                            monkeypatch):
        import repro.graph.store as graph_store

        st = SqliteStore(tmp_path / "st")
        ref = st.persist_graph(graph)
        checks = []
        real_check = graph_store.is_graph_store

        def disk_touched(*args, **kwargs):
            raise AssertionError("persist_graph touched the disk")

        with monkeypatch.context() as m:
            m.setattr(graph_store, "is_graph_store", disk_touched)
            m.setattr(graph_store, "save_graph", disk_touched)
            assert st.persist_graph(graph) == ref
        st.close()
        # a fresh instance knows nothing yet: it checks the disk, finds
        # the directory and saves nothing
        monkeypatch.setattr(graph_store, "is_graph_store",
                            lambda path: checks.append(path) or real_check(path))
        monkeypatch.setattr(graph_store, "save_graph", disk_touched)
        fresh = SqliteStore(tmp_path / "st")
        assert fresh.persist_graph(graph) == ref
        assert [str(path) for path in checks] == [ref]
        fresh.close()


# ----------------------------------------------------------------------
# queue layer: priorities, quotas, completion events
# ----------------------------------------------------------------------
class TestPrioritiesAndQuota:
    def test_high_drains_before_normal(self, graph):
        q = SubmissionQueue()
        normal = q.submit(graph, RunConfig("vff", seed=1))
        high = q.submit(graph, RunConfig("vff", seed=2), priority="high")
        normal2 = q.submit(graph, RunConfig("vff", seed=3))
        batch = q.take_batch()
        assert [j.id for j in batch] == [high.id, normal.id, normal2.id]
        assert q.stats()["pending_by_priority"] == {"high": 0, "normal": 0}

    def test_bad_priority_rejected(self, graph):
        q = SubmissionQueue()
        with pytest.raises(AdmissionError, match="priority"):
            q.submit(graph, RunConfig("vff"), priority="urgent")

    def test_tenant_quota_enforced_and_released(self, graph):
        q = SubmissionQueue(tenant_quota=2)
        jobs = [q.submit(graph, RunConfig("vff", seed=i), tenant="acme")
                for i in range(2)]
        with pytest.raises(AdmissionError, match="quota exhausted"):
            q.submit(graph, RunConfig("vff", seed=9), tenant="acme")
        # other tenants and anonymous submits are unaffected
        q.submit(graph, RunConfig("vff", seed=10), tenant="other")
        q.submit(graph, RunConfig("vff", seed=11))
        assert q.stats()["rejections_quota"] == 1
        # finishing a job frees the quota slot
        q.take_batch()
        jobs[0].status = "done"
        jobs[0].result = execute(graph, jobs[0].config)
        jobs[0].source = "computed"
        q.mark_terminal(jobs[0])
        q.submit(graph, RunConfig("vff", seed=12), tenant="acme")

    def test_wait_event_set_on_terminal(self, graph):
        q = SubmissionQueue()
        job = q.submit(graph, RunConfig("vff", seed=0))
        assert not job.wait(timeout=0)
        q.take_batch()
        job.status = "failed"
        job.error = "boom"
        q.mark_terminal(job)
        assert job.wait(timeout=0)

    def test_latency_percentiles_in_stats(self, graph):
        svc = ColoringService()
        svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        svc.submit_and_wait(graph, RunConfig("vff", seed=1))
        latency = svc.stats()["queue"]["latency"]
        assert latency["samples"] == 2
        assert 0 <= latency["p50_ms"] <= latency["p95_ms"]


# ----------------------------------------------------------------------
# service: durability and crash recovery
# ----------------------------------------------------------------------
class TestDurableService:
    @pytest.mark.parametrize("strategy",
                             ["greedy-ff", "vff", "cff", "sched-rev"])
    def test_done_served_from_store_after_restart(self, tmp_path, graph,
                                                  strategy):
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        job = svc.submit_and_wait(graph, RunConfig(strategy, seed=0))
        first = job.result
        svc.stop()

        svc2 = ColoringService(store=root)
        assert svc2.recovered == {"requeued": 0, "failed": 0, "terminal": 1}
        restored = svc2.result(job.id)
        assert restored.status == "done" and restored.source == "store"
        got = restored.result
        assert got.config == first.config
        pairs = [(got.coloring, first.coloring)]
        assert (got.initial is None) == (first.initial is None)
        if first.initial is not None:
            pairs.append((got.initial, first.initial))
        for back, original in pairs:
            assert back.colors.tobytes() == original.colors.tobytes()
            assert back.colors.dtype == original.colors.dtype
            assert back.num_colors == original.num_colors
            assert back.strategy == original.strategy
            assert back.meta["served_from"] == "store"
        assert got.balance == first.balance
        assert svc2.stats()["scheduler"]["executed"] == 0  # never re-ran
        svc2.stop()

    def test_interrupted_job_rerun_after_restart(self, tmp_path, graph,
                                                 counted_execute):
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        job = svc.submit(graph, RunConfig("vff", seed=0))
        svc.queue.mark_running(job)  # crash between dispatch and publish
        svc.store.close()

        svc2 = ColoringService(store=root)
        assert svc2.recovered["requeued"] == 1
        svc2.process()
        done = svc2.result(job.id)
        assert done.status == "done" and done.source == "computed"
        assert len(counted_execute) == 1  # exactly the one re-run
        assert_proper(graph, done.result.coloring)
        svc2.stop()

    def test_persisted_result_never_reexecuted(self, tmp_path, graph,
                                               counted_execute):
        # a done row of key K, then a second job of K left pending by a
        # crash: recovery re-admits it, and the lookup by key serves the
        # done row's result instead of recomputing it
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        first = svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        svc.cache.clear()  # a warm cache would finish the repeat at admission
        job = svc.submit(graph, RunConfig("vff", seed=0))
        assert job.key == first.key
        svc.store.close()
        executed_before = len(counted_execute)

        svc2 = ColoringService(store=root)
        assert svc2.recovered["requeued"] == 1
        svc2.process()
        done = svc2.result(job.id)
        assert done.status == "done" and done.source == "cache"
        assert len(counted_execute) == executed_before  # zero new executes
        assert svc2.stats()["scheduler"]["store_hits"] == 1
        assert np.array_equal(done.result.coloring.colors,
                              first.result.coloring.colors)
        svc2.stop()

    def test_cold_cache_after_restart_reads_the_store(self, tmp_path, graph,
                                                       counted_execute):
        # the admission probe is memory-only: after a restart the repeat
        # is queued, and its round finds the done row by key
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        first = svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        svc.stop()

        svc2 = ColoringService(store=root)
        again = svc2.submit(graph, RunConfig("vff", seed=0))
        assert again.status == "pending"
        svc2.process()
        assert again.status == "done" and again.source == "cache"
        sched = svc2.stats()["scheduler"]
        assert (sched["store_hits"], sched["cache_hits"], sched["rounds"]) \
            == (1, 1, 1)
        assert len(counted_execute) == 1
        assert np.array_equal(again.result.coloring.colors,
                              first.result.coloring.colors)
        # the store hit is in memory now: the next repeat needs no round
        assert svc2.submit(graph, RunConfig("vff", seed=0)).source == "cache"
        assert svc2.stats()["scheduler"]["rounds"] == 1
        svc2.stop()

    def test_failed_done_write_reruns_once(self, tmp_path, graph,
                                           counted_execute):
        # transition #0 is the job's running write, #1 its done write:
        # the failed done write leaves the row running and without a
        # result, so the next life re-runs the job exactly once
        root = tmp_path / "st"
        svc = ColoringService(store=root, fault_plan="storeerr@r1")
        job = svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        assert job.status == "done" and svc.store.injected == 1
        assert svc.store.get(job.id)["status"] == "running"
        assert svc.store.result(job.key) is None
        svc.stop()
        executed_before = len(counted_execute)

        svc2 = ColoringService(store=root)
        assert svc2.recovered["requeued"] == 1
        svc2.process()
        again = svc2.result(job.id)
        assert again.status == "done" and again.source == "computed"
        assert len(counted_execute) == executed_before + 1
        assert (again.result.coloring.colors.tobytes()
                == job.result.coloring.colors.tobytes())
        assert svc2.store.result(job.key) is not None
        svc2.stop()

    def test_store_made_before_results_in_rows_opens(self, tmp_path, graph):
        # a store directory from before the result column: it gains the
        # column, and its done rows serve their summary without a payload
        import sqlite3

        root = tmp_path / "st"
        root.mkdir()
        con = sqlite3.connect(root / "jobs.sqlite")
        con.executescript("""
            CREATE TABLE jobs (
                id INTEGER PRIMARY KEY AUTOINCREMENT, key TEXT NOT NULL,
                status TEXT NOT NULL DEFAULT 'pending', config TEXT NOT NULL,
                graph_ref TEXT, tenant TEXT,
                priority TEXT NOT NULL DEFAULT 'normal', source TEXT,
                error TEXT, meta TEXT NOT NULL DEFAULT '{}',
                submitted_at REAL, finished_at REAL);
            CREATE INDEX jobs_by_status ON jobs (status);
        """)
        con.execute(
            "INSERT INTO jobs (key, status, config, source, meta) "
            "VALUES (?, 'done', ?, 'computed', ?)",
            ("ab" * 32, json.dumps(RunConfig("vff", seed=0).to_dict()),
             json.dumps({"num_colors": 7, "num_vertices": 300,
                         "rsd_percent": 1.5})))
        con.commit()
        con.close()

        svc = ColoringService(store=root)
        old = svc.result(1)
        assert old.status == "done" and old.result is None
        assert old.describe()["num_colors"] == 7
        assert "corrupt" not in old.describe()
        job = svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        assert job.id == 2 and job.source == "computed"
        assert svc.store.result(job.key) is not None
        svc.stop()

    def test_unrecoverable_job_failed_with_reason(self, tmp_path, graph):
        import shutil

        root = tmp_path / "st"
        svc = ColoringService(store=root)
        job = svc.submit(graph, RunConfig("vff", seed=0))
        svc.store.close()
        shutil.rmtree(root / "graphs")  # lose the persisted graph

        svc2 = ColoringService(store=root)
        assert svc2.recovered == {"requeued": 0, "failed": 1, "terminal": 0}
        failed = svc2.result(job.id)
        assert failed.status == "failed"
        assert "unrecoverable after restart" in failed.error
        svc2.stop()

    def test_job_ids_monotonic_across_service_restarts(self, tmp_path, graph):
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        first = svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        svc.stop()
        svc2 = ColoringService(store=root)
        second = svc2.submit_and_wait(graph, RunConfig("vff", seed=1))
        assert second.id > first.id
        svc2.stop()

    def test_mutation_chain_across_restart(self, tmp_path, graph):
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        base = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        svc.stop()

        svc2 = ColoringService(store=root)
        batch = MutationBatch.from_edges(add=[(0, 5), (2, 9)])
        job = svc2.mutate_and_wait(base.id, batch)  # base restored from store
        assert job.status == "done"
        assert job.meta["base_job_id"] == base.id
        svc2.stop()

    def test_memory_store_service_behaves_like_before(self, graph):
        # the default service has no durability: ids restart from 1 and
        # nothing survives the instance
        svc = ColoringService()
        job = svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        assert job.id == 1
        assert svc.stats()["store"]["persistent"] is False
        svc.stop()

    def test_stats_expose_store_depth(self, tmp_path, graph):
        svc = ColoringService(store=tmp_path / "st", tenant_quota=8)
        svc.submit_and_wait(graph, RunConfig("vff", seed=0), tenant="acme")
        stats = svc.stats()
        assert stats["store"]["by_status"]["done"] == 1
        assert stats["store"]["persistent"] is True
        assert stats["queue"]["tenant_quota"] == 8
        assert stats["queue"]["pending_by_priority"] == {"high": 0,
                                                         "normal": 0}
        svc.stop()


@pytest.fixture
def counted_execute(monkeypatch):
    calls: list[RunConfig] = []
    real = backends_mod.execute

    def counting(graph, config, *, initial=None):
        calls.append(config)
        return real(graph, config, initial=initial)

    monkeypatch.setattr(backends_mod, "execute", counting)
    return calls


# ----------------------------------------------------------------------
# warm-pool sharing: growing must not kill in-flight work
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# poisoned durable state: recovery must quarantine, never crash
# ----------------------------------------------------------------------
class TestPoisonedDurableState:
    def test_corrupt_store_row_quarantined_not_crashing(self, tmp_path,
                                                        graph):
        import sqlite3

        root = tmp_path / "st"
        svc = ColoringService(store=root)
        bad = svc.submit(graph, RunConfig("vff", seed=0))  # left pending
        good = svc.submit(graph, RunConfig("vff", seed=1))
        svc.store.close()
        con = sqlite3.connect(root / "jobs.sqlite")
        con.execute("UPDATE jobs SET config = ? WHERE id = ?",
                    ("{definitely not json", bad.id))
        con.commit()
        con.close()

        svc2 = ColoringService(store=root)  # _recover() must not raise
        assert svc2.recovered == {"requeued": 1, "failed": 1, "terminal": 0}
        row = svc2.store.get(bad.id)
        assert row["corrupt"] is True and row["config"] is None
        quarantined = svc2.result(bad.id)
        assert quarantined.status == "failed"
        assert "unrecoverable after restart" in quarantined.error
        svc2.process()
        restored = svc2.result(good.id)  # healthy sibling unharmed
        assert restored.status == "done"
        svc2.stop()

    def test_truncated_spill_quarantined_and_recomputed(self, tmp_path,
                                                        graph,
                                                        counted_execute):
        """The durable copy of a result is the done row's result blob.
        When it is torn (half the color bytes reached the disk), recovery
        marks the row corrupt instead of dying in the decoder, the summary
        is still served, and a later job of the same key recomputes."""
        import sqlite3

        from repro.serve.api import dispatch

        root = tmp_path / "st"
        svc = ColoringService(store=root)
        torn = svc.submit_and_wait(graph, RunConfig("vff", seed=2))
        svc.cache.clear()  # a warm cache would finish the repeat at admission
        again = svc.submit(graph, RunConfig("vff", seed=2))  # torn's key
        svc.store.close()
        con = sqlite3.connect(root / "jobs.sqlite")
        con.execute("UPDATE jobs SET result = substr(result, 1, "
                    "length(result) / 2) WHERE id = ?", (torn.id,))
        con.commit()
        con.close()

        svc2 = ColoringService(store=root)  # _recover() must not raise
        assert svc2.recovered == {"requeued": 1, "failed": 0, "terminal": 1}
        assert svc2.store.get(torn.id)["corrupt"] is True
        assert svc2.store.result(torn.key) is None  # never a crash
        status, summary = dispatch(svc2, "GET", f"/result/{torn.id}?colors=1")
        assert status == 200 and summary["status"] == "done"
        assert summary["corrupt"] is True and "colors" not in summary
        assert summary["num_colors"] == torn.result.coloring.num_colors
        executed_before = len(counted_execute)
        svc2.process()
        redone = svc2.result(again.id)
        assert redone.status == "done" and redone.source == "computed"
        assert len(counted_execute) == executed_before + 1
        assert (redone.result.coloring.colors.tobytes()
                == torn.result.coloring.colors.tobytes())
        assert_proper(graph, redone.result.coloring)
        svc2.stop()

    def test_pending_staleness_budget_job_fails_with_reason(self, tmp_path,
                                                           graph):
        """A mutation job persisted before the staleness budget was removed
        still carries it in ``strategy_kwargs``: after a restart it fails
        with the field named, and the pump keeps serving."""
        from repro.graph import apply_delta, random_churn
        from repro.serve.fingerprint import mutation_job_key

        root = tmp_path / "st"
        svc = ColoringService(store=root)
        base = svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        batch = random_churn(graph, 0.01, seed=0)
        mutated, dirty = apply_delta(graph, batch)
        config = RunConfig("incremental", strategy_kwargs={
            "dirty": dirty.tolist(), "staleness_budget": 0.05})
        old = svc.queue.submit(
            mutated, config, key=lambda c: mutation_job_key(base.key, batch.digest(), c),
            initial=base.result.coloring,
            meta={"base_job_id": base.id, "initial_from_key": base.key})
        svc.store.close()  # crash before the pump took it

        svc2 = ColoringService(store=root)
        assert svc2.recovered == {"requeued": 1, "failed": 0, "terminal": 1}
        svc2.start()
        try:
            job = svc2.result(old.id)
            assert job.wait(30)
            assert job.status == "failed"
            assert "staleness_budget" in job.error
            assert svc2.store.get(old.id)["status"] == "failed"
            assert svc2.pump_alive
            fresh = svc2.mutate_and_wait(base.id, batch)
            assert fresh.status == "done"
            assert is_proper(mutated, fresh.result.coloring)
        finally:
            svc2.stop()

    def test_pending_dirty_job_fails_with_reason(self, tmp_path, graph):
        """A mutation job persisted while the incremental strategy still
        took the dirty set carries it in ``strategy_kwargs``: after a
        restart it fails with the field named, and the pump keeps serving."""
        from repro.graph import apply_delta, random_churn
        from repro.serve.fingerprint import mutation_job_key

        root = tmp_path / "st"
        svc = ColoringService(store=root)
        base = svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        batch = random_churn(graph, 0.01, seed=0)
        mutated, dirty = apply_delta(graph, batch)
        config = RunConfig("incremental", strategy_kwargs={"dirty": dirty.tolist()})
        old = svc.queue.submit(
            mutated, config, key=lambda c: mutation_job_key(base.key, batch.digest(), c),
            initial=base.result.coloring,
            meta={"base_job_id": base.id, "initial_from_key": base.key})
        svc.store.close()  # crash before the pump took it

        svc2 = ColoringService(store=root)
        assert svc2.recovered == {"requeued": 1, "failed": 0, "terminal": 1}
        svc2.start()
        try:
            job = svc2.result(old.id)
            assert job.wait(30)
            assert job.status == "failed"
            assert "'dirty'" in job.error
            assert svc2.store.get(old.id)["status"] == "failed"
            assert svc2.pump_alive
            fresh = svc2.mutate_and_wait(base.id, batch)
            assert fresh.status == "done" and fresh.key != old.key
            assert fresh.meta["dirty_vertices"] == dirty.size
            assert is_proper(mutated, fresh.result.coloring)
        finally:
            svc2.stop()

    @pytest.mark.parametrize("field,value", [("shm", False),
                                             ("context", "spawn")])
    def test_pending_removed_mp_kwarg_fails_with_reason(self, tmp_path, graph,
                                                        field, value):
        """An mp job persisted while the worker-process transport still took
        ``shm``/``context`` carries it in ``strategy_kwargs``: after a
        restart it fails with the field named, and the pump keeps serving."""
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        config = RunConfig("greedy-ff", mode="mp", threads=2, seed=0,
                           strategy_kwargs={field: value})
        old = svc.submit(graph, config)
        svc.store.close()  # crash before the pump took it

        svc2 = ColoringService(store=root)
        assert svc2.recovered == {"requeued": 1, "failed": 0, "terminal": 0}
        svc2.start()
        try:
            job = svc2.result(old.id)
            assert job.wait(30)
            assert job.status == "failed"
            assert f"'{field}'" in job.error
            assert svc2.store.get(old.id)["status"] == "failed"
            assert svc2.pump_alive
            fresh = svc2.submit_and_wait(graph, config.replace(
                strategy_kwargs={}))
            assert fresh.status == "done"
            assert is_proper(graph, fresh.result.coloring)
        finally:
            svc2.stop()
