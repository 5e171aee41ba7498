"""Tests for the durable serving stack (PR 8).

Covers the three new layers bottom-up: the job store's transition
semantics and restart-surviving ids, the execution backends' parity and
properness guarantees, and the service-level lifecycle — priorities,
tenant quotas, event-based waits, and crash recovery (interrupted jobs
re-run; persisted results are never re-executed).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.serve.backends as backends_mod
from repro.coloring.verify import assert_proper, is_proper
from repro.graph import erdos_renyi_graph
from repro.graph.delta import MutationBatch
from repro.parallel.mp import mp_greedy_ff
from repro.run import RunConfig, execute
from repro.serve import (
    AdmissionError,
    ColoringService,
    InlineBackend,
    MemoryStore,
    ShardedBackend,
    SqliteStore,
    StoreError,
    SubmissionQueue,
    resolve_backend,
    shard_rounds,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture
def graph():
    return erdos_renyi_graph(300, 0.03, seed=7)


@pytest.fixture
def big_graph():
    # big enough to clear ShardedBackend's default min_vertices checks
    # when we lower them, dense enough to force cross-shard conflicts
    return erdos_renyi_graph(3000, 0.004, seed=2)


def _sharded(shards, **kw):
    kw.setdefault("dispatch", "inline")
    kw.setdefault("min_vertices", 64)
    return ShardedBackend(shards, **kw)


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
# backends: parity and properness
# ----------------------------------------------------------------------
class TestBackends:
    def test_resolve_backend_coercions(self):
        assert isinstance(resolve_backend(None), InlineBackend)
        assert isinstance(resolve_backend(1), InlineBackend)
        sharded = resolve_backend(4)
        assert isinstance(sharded, ShardedBackend) and sharded.shards == 4
        passthrough = ShardedBackend(2)
        assert resolve_backend(passthrough) is passthrough
        with pytest.raises(TypeError):
            resolve_backend(True)
        with pytest.raises(TypeError):
            resolve_backend("four")

    def test_shard_rounds_matches_mp_protocol(self, big_graph):
        run = shard_rounds(big_graph, 4, seed=0)
        via_mp = mp_greedy_ff(big_graph, num_workers=4, seed=0)
        assert np.array_equal(run.coloring.colors, via_mp.colors)
        assert run.coloring.num_colors == via_mp.num_colors
        assert is_proper(big_graph, run.coloring)
        assert run.rounds and run.critical_path_s() <= run.serial_s()

    def test_shards_1_bit_identical_to_inline(self, big_graph):
        cfg = RunConfig("greedy-ff", seed=0)
        ref = execute(big_graph, cfg)
        svc = ColoringService(backend=_sharded(1))
        job = svc.submit_and_wait(big_graph, cfg)
        assert job.meta["backend"] == "inline"
        assert np.array_equal(job.result.coloring.colors,
                              ref.coloring.colors)
        svc.stop()

    def test_sharded_ab_initio_proper_and_balanced(self, big_graph):
        svc = ColoringService(backend=_sharded(4))
        job = svc.submit_and_wait(big_graph, RunConfig("greedy-ff", seed=0))
        assert job.meta["backend"] == "sharded" and job.meta["shards"] == 4
        assert_proper(big_graph, job.result.coloring)
        # the balance invariant checker accepts the report
        assert job.result.balance.num_colors == job.result.coloring.num_colors
        assert job.result.balance.rsd_percent >= 0.0
        stats = svc.stats()["scheduler"]
        assert stats["sharded_jobs"] == 1 and stats["inline_fallbacks"] == 0
        svc.stop()

    def test_sharded_guided_strategy_keeps_semantics(self, big_graph):
        svc = ColoringService(backend=_sharded(4))
        job = svc.submit_and_wait(big_graph, RunConfig("vff", seed=3))
        assert job.meta["backend"] == "sharded"
        assert_proper(big_graph, job.result.coloring)
        assert job.result.initial is not None  # shard protocol fed the init
        svc.stop()

    def test_small_graph_falls_back_inline(self, graph):
        svc = ColoringService(backend=ShardedBackend(4, dispatch="inline"))
        job = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert job.meta["backend"] == "inline"
        assert "too small" in job.meta["fallback_reason"]
        ref = execute(graph, RunConfig("greedy-ff", seed=0))
        assert np.array_equal(job.result.coloring.colors, ref.coloring.colors)
        svc.stop()

    def test_mutation_jobs_fall_back_inline(self, big_graph):
        svc = ColoringService(backend=_sharded(4))
        base = svc.submit_and_wait(big_graph, RunConfig("greedy-ff", seed=0))
        batch = MutationBatch.from_edges(add=[(0, 17), (1, 23)])
        job = svc.mutate_and_wait(base.id, batch)
        assert job.status == "done"
        assert job.meta["backend"] == "inline"
        svc.stop()


# ----------------------------------------------------------------------
# service: durability and crash recovery
# ----------------------------------------------------------------------
class TestDurableService:
    def test_done_served_from_store_after_restart(self, tmp_path, graph):
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        job = svc.submit_and_wait(graph, RunConfig("vff", seed=0))
        colors = job.result.coloring.colors.copy()
        svc.stop()

        svc2 = ColoringService(store=root)
        assert svc2.recovered == {"requeued": 0, "failed": 0, "terminal": 1}
        restored = svc2.result(job.id)
        assert restored.status == "done" and restored.source == "store"
        assert np.array_equal(restored.result.coloring.colors, colors)
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
        # crash after the write-through spill landed but before the
        # terminal transition committed: the row says running, the disk
        # has the result — recovery must serve it, not recompute it
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        job = svc.submit(graph, RunConfig("vff", seed=0))
        svc.queue.mark_running(job)
        svc.cache.put(job.key, svc.backend.run(job))
        svc.store.close()
        executed_before = len(counted_execute)

        svc2 = ColoringService(store=root)
        assert svc2.recovered["requeued"] == 1
        svc2.process()
        done = svc2.result(job.id)
        assert done.status == "done" and done.source == "cache"
        assert len(counted_execute) == executed_before  # zero new executes
        svc2.stop()

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
        assert svc2.recovered["failed"] == 1
        assert svc2.recovered["requeued"] == 1
        row = svc2.store.get(bad.id)
        assert row["corrupt"] is True and row["config"] is None
        quarantined = svc2.result(bad.id)
        assert quarantined.status == "failed"
        assert "unrecoverable after restart" in quarantined.error
        svc2.process()
        restored = svc2.result(good.id)  # healthy sibling unharmed
        assert restored.status == "done"
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
            mutated, config, key=mutation_job_key(base.key, batch.digest(), config),
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
            mutated, config, key=mutation_job_key(base.key, batch.digest(), config),
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

    def test_truncated_spill_quarantined_and_recomputed(self, tmp_path,
                                                        graph,
                                                        counted_execute):
        # crash after the write-through spill landed, then the spill file
        # itself is torn (half-written page, disk corruption): recovery
        # must quarantine the file and recompute, not die in np.load
        root = tmp_path / "st"
        svc = ColoringService(store=root)
        job = svc.submit(graph, RunConfig("vff", seed=0))
        svc.queue.mark_running(job)
        svc.cache.put(job.key, svc.backend.run(job))
        svc.store.close()
        spills = list((root / "spill").glob("*.npz"))
        assert len(spills) == 1
        blob = spills[0].read_bytes()
        spills[0].write_bytes(blob[: len(blob) // 2])
        executed_before = len(counted_execute)

        svc2 = ColoringService(store=root)
        assert svc2.recovered["requeued"] == 1
        svc2.process()
        done = svc2.result(job.id)
        assert done.status == "done" and done.source == "computed"
        assert len(counted_execute) == executed_before + 1
        assert svc2.cache.stats()["spill_corrupt"] == 1
        assert list((root / "spill").glob("*.npz.corrupt"))
        assert_proper(graph, done.result.coloring)
        svc2.stop()
