"""Tests for the serving subsystem (repro.serve).

Everything but ``TestHTTPServer`` (a server on a free port, and the
CLI's ``submit`` client) drives the service in-process, with no sockets,
so results are deterministic: the same jobs at the same seeds must produce
bit-identical colorings whether computed, deduplicated against an
identical in-flight job, or served from the cache (memory or disk).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.serve.backends as backends_mod
from repro.graph import cycle_graph, erdos_renyi_graph, path_graph
from repro.graph.datasets import DATASETS, load_dataset
from repro.run import RunConfig, execute
from repro.serve import (
    AdmissionError,
    ColoringService,
    ResultCache,
    SubmissionQueue,
    config_fingerprint,
    graph_fingerprint,
    job_key,
)
from repro.serve.api import dispatch

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def graph():
    return erdos_renyi_graph(300, 0.03, seed=7)


@pytest.fixture
def counted_execute(monkeypatch):
    """Patch the scheduler's execute with a call-counting wrapper."""
    calls: list[RunConfig] = []
    real = backends_mod.execute

    def counting(graph, config, *, initial=None):
        calls.append(config)
        return real(graph, config, initial=initial)

    monkeypatch.setattr(backends_mod, "execute", counting)
    return calls


# ----------------------------------------------------------------------
# fingerprints and cache keys
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_equal_content_equal_key(self, graph):
        other = erdos_renyi_graph(300, 0.03, seed=7)
        cfg = RunConfig("greedy-ff", seed=1)
        assert graph_fingerprint(graph) == graph_fingerprint(other)
        assert job_key(graph, cfg) == job_key(other, cfg)

    def test_graph_content_changes_key(self, graph):
        other = erdos_renyi_graph(300, 0.03, seed=8)
        assert graph_fingerprint(graph) != graph_fingerprint(other)

    def test_config_changes_key(self, graph):
        a = job_key(graph, RunConfig("greedy-ff", seed=1))
        b = job_key(graph, RunConfig("greedy-ff", seed=2))
        c = job_key(graph, RunConfig("vff", seed=1))
        assert len({a, b, c}) == 3

    def test_config_fingerprint_ignores_kwargs_order(self, graph):
        a = RunConfig("sched-fwd", strategy_kwargs={"fill": "fwd", "rounds": 2})
        b = RunConfig("sched-fwd", strategy_kwargs={"rounds": 2, "fill": "fwd"})
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_stable_across_processes(self):
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.graph import erdos_renyi_graph\n"
            "from repro.run import RunConfig\n"
            "from repro.serve import job_key\n"
            "g = erdos_renyi_graph(300, 0.03, seed=7)\n"
            "print(job_key(g, RunConfig('vff', mode='superstep', threads=4,"
            " seed=3)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=REPO_ROOT, timeout=120, check=True,
        ).stdout.strip()
        g = erdos_renyi_graph(300, 0.03, seed=7)
        here = job_key(g, RunConfig("vff", mode="superstep", threads=4, seed=3))
        assert out == here


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
class TestResultCache:
    @staticmethod
    def _results(n):
        g = path_graph(100)
        return [(job_key(g, RunConfig("greedy-ff", seed=i)),
                 execute(g, RunConfig("greedy-ff", seed=i)))
                for i in range(n)]

    def test_hit_returns_same_object(self):
        (key, result), = self._results(1)
        cache = ResultCache()
        cache.put(key, result)
        assert cache.get(key) is result
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0

    def test_lru_eviction_under_byte_budget(self):
        pairs = self._results(3)
        one_entry = 100 * 8 + 512  # colors + fixed overhead (ab initio: no initial)
        cache = ResultCache(max_bytes=2 * one_entry)
        for key, result in pairs:
            cache.put(key, result)
        assert cache.get(pairs[0][0]) is None  # oldest evicted
        assert cache.get(pairs[1][0]) is not None
        assert cache.get(pairs[2][0]) is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["bytes"] <= cache.max_bytes

    def test_get_refreshes_recency(self):
        pairs = self._results(3)
        one_entry = 100 * 8 + 512
        cache = ResultCache(max_bytes=2 * one_entry)
        cache.put(pairs[0][0], pairs[0][1])
        cache.put(pairs[1][0], pairs[1][1])
        cache.get(pairs[0][0])  # touch: now pairs[1] is LRU
        cache.put(pairs[2][0], pairs[2][1])
        assert cache.get(pairs[0][0]) is not None
        assert cache.get(pairs[1][0]) is None

    def test_miss_counts(self):
        cache = ResultCache()
        assert cache.get("0" * 64) is None
        assert cache.stats()["misses"] == 1

    def test_counters_reach_recorder(self):
        from repro.obs import Recorder

        rec = Recorder()
        (key, result), = self._results(1)
        cache = ResultCache(recorder=rec)
        cache.get(key)
        cache.put(key, result)
        cache.get(key)
        assert rec.counters["serve.cache.misses"] == 1
        assert rec.counters["serve.cache.hits"] == 1

    def test_rejects_non_result(self):
        with pytest.raises(TypeError, match="RunResult"):
            ResultCache().put("k", object())

    def test_bad_budget(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(max_bytes=0)


# ----------------------------------------------------------------------
# admission queue
# ----------------------------------------------------------------------
class TestSubmissionQueue:
    def test_backpressure_rejects_with_reason(self, graph):
        q = SubmissionQueue(max_pending=2)
        q.submit(graph, RunConfig("greedy-ff", seed=0))
        q.submit(graph, RunConfig("greedy-ff", seed=1))
        with pytest.raises(AdmissionError, match="queue full.*limit 2"):
            q.submit(graph, RunConfig("greedy-ff", seed=2))
        stats = q.stats()
        assert stats["rejections"] == 1
        assert stats["rejections_full"] == 1
        assert stats["rejections_invalid"] == 0

    def test_slot_freed_after_terminal(self, graph):
        q = SubmissionQueue(max_pending=1)
        job = q.submit(graph, RunConfig("greedy-ff", seed=0))
        (taken,) = q.take_batch()
        taken.status = "done"
        q.mark_terminal(taken)
        assert job is taken
        q.submit(graph, RunConfig("greedy-ff", seed=1))  # no AdmissionError

    def test_unknown_strategy_rejected(self, graph):
        q = SubmissionQueue()
        with pytest.raises(AdmissionError, match="unknown strategy"):
            q.submit(graph, RunConfig("nope"))
        assert q.stats()["rejections_invalid"] == 1

    def test_unsupported_mode_rejected(self, graph):
        q = SubmissionQueue()
        with pytest.raises(AdmissionError, match="does not support mode"):
            q.submit(graph, RunConfig("kempe", mode="mp", threads=2))

    def test_invalid_submission_takes_no_slot(self, graph):
        q = SubmissionQueue(max_pending=1)
        with pytest.raises(AdmissionError):
            q.submit(graph, RunConfig("nope"))
        q.submit(graph, RunConfig("greedy-ff", seed=0))

    def test_submit_serializes_config_once(self, graph, monkeypatch):
        calls = []
        to_dict = RunConfig.to_dict

        def counting(config):
            calls.append(config)
            return to_dict(config)

        monkeypatch.setattr(RunConfig, "to_dict", counting)
        q = SubmissionQueue()
        configs = [RunConfig("vff", mode="superstep", threads=4, seed=3),
                   RunConfig("greedy-ff", seed=0)]
        jobs = [q.submit(graph, c) for c in configs]
        assert calls == configs  # one to_dict per admitted submit
        # the reused dict gives the same key as serializing afresh, and
        # the key bytes are the ones earlier releases computed
        assert [j.key for j in jobs] == [job_key(graph, c) for c in configs]
        assert jobs[0].key == ("ffb5144fb59d96029d1744d8c31a48dc"
                               "abba0c703695bab9b802b45304f34055")
        assert q.store.get(jobs[0].id)["config"] == to_dict(configs[0])

    def test_unserializable_config_rejected_with_reason(self, graph):
        import dataclasses

        from repro.machine import tilegx36

        custom = dataclasses.replace(tilegx36(), name="bespoke")
        q = SubmissionQueue()
        with pytest.raises(AdmissionError) as exc:
            q.submit(graph, RunConfig("vff", mode="superstep", threads=4,
                                      machine=custom))
        assert exc.value.reason == (
            "config is not serializable: machine 'bespoke' is not a "
            "registry model; a custom MachineModel instance cannot be "
            "serialized — pass its registry name instead")
        assert q.stats()["rejections_invalid"] == 1

    def test_mark_terminal_requires_terminal_status(self, graph):
        q = SubmissionQueue()
        job = q.submit(graph, RunConfig("greedy-ff", seed=0))
        with pytest.raises(ValueError, match="not terminal"):
            q.mark_terminal(job)


# ----------------------------------------------------------------------
# scheduler + service
# ----------------------------------------------------------------------
class TestService:
    def test_dedup_two_identical_jobs_one_execute(self, graph, counted_execute):
        svc = ColoringService()
        cfg = RunConfig("greedy-ff", seed=5)
        j1 = svc.submit(graph, cfg)
        j2 = svc.submit(graph, cfg)
        svc.process()
        assert len(counted_execute) == 1
        assert j1.status == j2.status == "done"
        assert j1.source == "computed" and j2.source == "dedup"
        assert np.array_equal(j1.result.coloring.colors,
                              j2.result.coloring.colors)

    def test_cache_hit_bit_parity_with_fresh_execute(self, graph):
        svc = ColoringService()
        cfg = RunConfig("vff", mode="superstep", threads=4, seed=9)
        first = svc.submit_and_wait(graph, cfg)
        second = svc.submit_and_wait(graph, cfg)
        direct = execute(graph, cfg)
        assert first.source == "computed" and second.source == "cache"
        assert np.array_equal(first.result.coloring.colors,
                              direct.coloring.colors)
        assert np.array_equal(second.result.coloring.colors,
                              direct.coloring.colors)

    def test_dataset_repeat_is_a_cache_hit_the_recorder_counts(self):
        """A repeated dataset job is answered at admission from the
        cache, and the recorder reads the counts ``/stats`` reports."""
        from repro.obs import Recorder

        data = load_dataset("cnr", scale=0.05, seed=0)
        config = RunConfig("vff", mode="superstep", threads=4, seed=0)
        rec = Recorder()
        service = ColoringService(recorder=rec)
        first = service.submit_and_wait(data, config)
        second = service.submit(data, config)  # no process(): a memory hit
        assert second.finished, second.status
        assert first.source == "computed" and second.source == "cache"
        direct = execute(data, config)
        for job in (first, second):
            assert np.array_equal(job.result.coloring.colors,
                                  direct.coloring.colors)
        stats = service.stats()
        assert stats["scheduler"]["executed"] == 1, stats
        assert stats["scheduler"]["rounds"] == 1, stats
        assert stats["cache"]["hits"] == 1, stats
        assert rec.counters["serve.scheduler.executed"] == 1, rec.counters
        assert rec.counters["serve.cache.hits"] == 1, rec.counters

    def test_backend_is_not_part_of_the_job(self, graph, counted_execute):
        """Configs that differ only in the kernel tier are one job."""
        configs = [RunConfig("vff", seed=1, backend=b)
                   for b in ("vectorized", "reference", None)]
        assert len({job_key(graph, c) for c in configs}) == 1
        svc = ColoringService()
        jobs = [svc.submit_and_wait(graph, c) for c in configs]
        assert [j.source for j in jobs] == ["computed", "cache", "cache"]
        assert len(counted_execute) == 1

    def test_disk_cache_hit_bit_parity(self, graph, tmp_path, counted_execute):
        # a one-byte cache evicts every result at once: the repeat is
        # read back from the job store by key, never re-executed
        cfg = RunConfig("greedy-ff", seed=2)
        svc = ColoringService(max_bytes=1, store=tmp_path)
        svc.submit_and_wait(graph, cfg)
        job = svc.submit_and_wait(graph, cfg)
        assert job.source == "cache"
        assert job.result.coloring.meta["served_from"] == "store"
        assert svc.stats()["scheduler"]["store_hits"] == 1
        assert len(counted_execute) == 1
        assert np.array_equal(job.result.coloring.colors,
                              execute(graph, cfg).coloring.colors)
        svc.stop()

    def test_failed_job_reports_error_and_frees_slot(self, graph, monkeypatch):
        def boom(graph, config, *, initial=None):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(backends_mod, "execute", boom)
        svc = ColoringService(max_pending=1)
        job = svc.submit_and_wait(graph, RunConfig("greedy-ff", seed=0))
        assert job.status == "failed"
        assert "worker exploded" in job.error
        assert svc.stats()["scheduler"]["failures"] == 1
        assert svc.queue.in_flight == 0

    def test_failure_not_cached(self, graph, monkeypatch):
        calls = []
        real = backends_mod.execute

        def flaky(graph, config, *, initial=None):
            calls.append(config)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return real(graph, config, initial=initial)

        monkeypatch.setattr(backends_mod, "execute", flaky)
        svc = ColoringService()
        cfg = RunConfig("greedy-ff", seed=0)
        assert svc.submit_and_wait(graph, cfg).status == "failed"
        retry = svc.submit_and_wait(graph, cfg)
        assert retry.status == "done" and retry.source == "computed"

    def test_threaded_pool_matches_sequential(self, graph):
        configs = [RunConfig("greedy-ff", seed=i) for i in range(6)]
        seq = ColoringService(workers=1)
        par = ColoringService(workers=4)
        seq_jobs = [seq.submit(graph, c) for c in configs]
        par_jobs = [par.submit(graph, c) for c in configs]
        seq.process()
        par.process()
        for a, b in zip(seq_jobs, par_jobs):
            assert np.array_equal(a.result.coloring.colors,
                                  b.result.coloring.colors)

    def test_pump_thread_resolves_jobs(self, graph):
        svc = ColoringService()
        svc.start()
        try:
            job = svc.submit(graph, RunConfig("greedy-ff", seed=1))
            for _ in range(2000):
                if job.finished:
                    break
                import time

                time.sleep(0.005)
            assert job.status == "done"
        finally:
            svc.stop()
        assert svc.healthz()["pump"] is False

    def test_pump_survives_a_round_that_raises(self, graph, monkeypatch):
        svc = ColoringService()
        run_round = svc.scheduler.run_round
        calls = []

        def first_round_raises():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("round blew up")
            return run_round()

        monkeypatch.setattr(svc.scheduler, "run_round", first_round_raises)
        svc.start()
        try:
            job = svc.submit(graph, RunConfig("greedy-ff", seed=1))
            assert job.wait(30) and job.status == "done"
            assert svc.pump_alive
            assert svc.stats()["pump_errors"] == 1
        finally:
            svc.stop()

    def test_acceptance_100_jobs_10_pairs(self, counted_execute):
        """The ISSUE acceptance workload: 100 jobs, 10 pairs, 10 executes."""
        graphs = [erdos_renyi_graph(200, 0.04, seed=s) for s in (0, 1)]
        configs = [RunConfig("greedy-ff", seed=s) for s in range(5)]
        pairs = [(g, c) for g in graphs for c in configs]  # 10 distinct
        direct = {job_key(g, c): execute(g, c) for g, c in pairs}

        svc = ColoringService()
        jobs = []
        # 10 waves of the same 10 pairs; process every second wave so both
        # in-flight dedup and cache hits are exercised.
        for wave in range(10):
            for g, c in pairs:
                jobs.append(svc.submit(g, c))
            if wave % 2 == 1:
                svc.process()
        svc.process()

        assert len(jobs) == 100
        assert len(counted_execute) == 10  # exactly one per distinct pair
        for job in jobs:
            assert job.status == "done"
            assert np.array_equal(job.result.coloring.colors,
                                  direct[job.key].coloring.colors)

        stats = svc.stats()
        sched, cache, queue = stats["scheduler"], stats["cache"], stats["queue"]
        assert queue["submitted"] == 100
        assert queue["rejections"] == 0
        assert sched["executed"] == 10
        assert sched["resolved"] == 100
        assert sched["executed"] + sched["cache_hits"] + sched["dedup_hits"] == 100
        # every job probed the cache exactly once: hits resolve as cache
        # hits, misses split into primaries (executed) and dedup followers
        assert cache["hits"] == sched["cache_hits"]
        assert cache["misses"] == sched["executed"] + sched["dedup_hits"]
        assert cache["evictions"] == 0


# ----------------------------------------------------------------------
# HTTP protocol (socketless, via dispatch)
# ----------------------------------------------------------------------
class TestDispatch:
    def _submit_body(self, **config):
        cfg = {"strategy": "greedy-ff", "seed": 0}
        cfg.update(config)
        return {"input": "cnr", "scale": 0.05, "seed": 0, "config": cfg}

    def test_submit_result_stats_healthz(self):
        svc = ColoringService()
        status, reply = dispatch(svc, "POST", "/submit", self._submit_body())
        assert status == 202
        assert reply["status"] == "pending"
        svc.process()
        status, result = dispatch(svc, "GET", f"/result/{reply['job_id']}")
        assert status == 200
        assert result["status"] == "done" and result["source"] == "computed"
        assert result["num_colors"] >= 1
        status, stats = dispatch(svc, "GET", "/stats")
        assert status == 200 and stats["scheduler"]["executed"] == 1
        status, health = dispatch(svc, "GET", "/healthz")
        assert status == 200 and health["status"] == "live"
        assert health["live"] is True and health["degraded"] is False

    def test_result_includes_colors_on_request(self):
        svc = ColoringService()
        _, reply = dispatch(svc, "POST", "/submit", self._submit_body())
        svc.process()
        _, result = dispatch(svc, "GET", f"/result/{reply['job_id']}?colors=1")
        assert isinstance(result["colors"], list)
        assert len(result["colors"]) == result["num_vertices"]

    def test_bad_strategy_is_400(self):
        svc = ColoringService()
        status, reply = dispatch(svc, "POST", "/submit",
                                 self._submit_body(strategy="nope"))
        assert status == 400 and "unknown strategy" in reply["error"]

    def test_unknown_config_field_is_400(self):
        svc = ColoringService()
        status, reply = dispatch(svc, "POST", "/submit",
                                 self._submit_body(bogus=1))
        assert status == 400 and "bogus" in reply["error"]

    def test_unknown_input_is_400(self):
        svc = ColoringService()
        body = self._submit_body()
        body["input"] = "no-such-graph"
        status, reply = dispatch(svc, "POST", "/submit", body)
        assert status == 400 and "no-such-graph" in reply["error"]

    def test_queue_full_is_429(self):
        svc = ColoringService(max_pending=1)
        assert dispatch(svc, "POST", "/submit", self._submit_body())[0] == 202
        status, reply = dispatch(svc, "POST", "/submit", self._submit_body(seed=1))
        assert status == 429 and "queue full" in reply["error"]

    def test_unknown_job_is_404(self):
        assert dispatch(ColoringService(), "GET", "/result/999")[0] == 404

    def test_non_integer_job_id_is_400(self):
        assert dispatch(ColoringService(), "GET", "/result/abc")[0] == 400

    def test_unknown_route_is_404(self):
        assert dispatch(ColoringService(), "GET", "/nope")[0] == 404


# ----------------------------------------------------------------------
# real HTTP server on a free port, and the CLI's submit client
# ----------------------------------------------------------------------
@pytest.fixture
def http_url():
    """A started service behind ``make_server(port=0)``: its base URL."""
    import threading

    from repro.serve.api import make_server

    svc = ColoringService()
    svc.start()
    server = make_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        svc.stop()


def submit_cli(url: str, *args: str) -> int:
    """``python -m repro submit --url URL ARGS`` in process: its exit code."""
    from repro.__main__ import main

    return main(["submit", "--url", url, *args])


class TestHTTPServer:
    def test_end_to_end_roundtrip(self, http_url):
        from repro.serve.api import fetch_json, submit_job, wait_for_result

        body = {"input": "cnr", "scale": 0.05, "seed": 0,
                "config": {"strategy": "greedy-ff", "seed": 0}}
        first = submit_job(http_url, body)
        done = wait_for_result(http_url, first["job_id"], timeout=60)
        assert done["status"] == "done"
        second = submit_job(http_url, body)
        done2 = wait_for_result(http_url, second["job_id"], timeout=60)
        assert done2["source"] == "cache"
        assert fetch_json(http_url, "/healthz")["status"] == "ready"
        assert fetch_json(http_url, "/stats")["scheduler"]["executed"] == 1

    def test_cli_repeat_reuses_the_result_and_the_dataset_graph(
            self, http_url, capsys):
        from repro.serve.api import fetch_json

        for source in ("computed", "cache"):
            assert submit_cli(http_url, "--strategy", "greedy-ff",
                              "--scale", "0.05") == 0
            assert f"done via {source}" in capsys.readouterr().out
        stats = fetch_json(http_url, "/stats")
        cache = stats["cache"]
        assert stats["scheduler"]["executed"] == 1 and cache["hits"] == 1, stats
        assert cache["graph_builds"] == 1 and cache["graph_hits"] == 1, cache

    def test_cli_submits_a_d2_balanced_job(self, http_url, capsys):
        assert submit_cli(http_url, "--strategy", "d2-balanced",
                          "--input", "jacband", "--scale", "0.05") == 0
        assert "done via computed" in capsys.readouterr().out


# ----------------------------------------------------------------------
# batching / grouping behavior
# ----------------------------------------------------------------------
class TestBatching:
    def test_batch_size_limits_round(self, graph):
        svc = ColoringService(batch_size=2)
        for seed in range(5):
            svc.submit(graph, RunConfig("greedy-ff", seed=seed))
        assert svc.scheduler.run_round() == 2
        assert svc.queue.pending_count == 3
        svc.process()
        assert svc.queue.pending_count == 0

    def test_mixed_modes_grouped_and_resolved(self, counted_execute):
        g = cycle_graph(60)
        svc = ColoringService(workers=2)
        configs = [
            RunConfig("greedy-ff", seed=0),
            RunConfig("vff", mode="superstep", threads=2, seed=0),
            RunConfig("greedy-ff", seed=1),
            RunConfig("vff", mode="superstep", threads=4, seed=0),
        ]
        jobs = [svc.submit(g, c) for c in configs]
        svc.process()
        assert [j.status for j in jobs] == ["done"] * 4
        assert len(counted_execute) == 4
        for job, cfg in zip(jobs, configs):
            assert np.array_equal(job.result.coloring.colors,
                                  execute(g, cfg).coloring.colors)


# ----------------------------------------------------------------------
# a memory-cache hit is answered at admission, on the submitting thread
# ----------------------------------------------------------------------
class TestAdmissionHits:
    CFG = RunConfig("vff", seed=4)

    @staticmethod
    def _round_path(svc, monkeypatch):
        """Make *svc* probe nothing at admission: every hit waits for a
        round, as a job queued behind its twin does."""
        monkeypatch.setattr(svc.cache, "probe", lambda key: None)
        return svc

    @staticmethod
    def _rounds(svc):
        return svc.stats()["scheduler"]["rounds"]

    def test_repeat_is_done_when_submit_returns(self, graph, counted_execute):
        svc = ColoringService()
        first = svc.submit_and_wait(graph, self.CFG)
        rounds = self._rounds(svc)
        again = svc.submit(graph, self.CFG)  # no pump, no process()
        assert again.finished and again.wait(0)
        assert again.status == "done" and again.source == "cache"
        assert again.finished_at is not None
        assert self._rounds(svc) == rounds  # no round ran
        assert svc.queue.pending_count == 0 and svc.queue.in_flight == 0
        assert len(counted_execute) == 1
        assert np.array_equal(again.result.coloring.colors,
                              first.result.coloring.colors)
        assert svc.process() == 0

    def test_store_row_equals_a_round_hit(self, graph, tmp_path,
                                          monkeypatch):
        rows = []
        for name, via_round in (("admit", False), ("round", True)):
            svc = ColoringService(store=tmp_path / name)
            if via_round:
                self._round_path(svc, monkeypatch)
            svc.submit_and_wait(graph, self.CFG)
            hit = svc.submit_and_wait(graph, self.CFG)
            assert hit.source == "cache"
            row = svc.store.get(hit.id)
            assert row["finished_at"] >= row["submitted_at"]
            rows.append({k: v for k, v in row.items()
                         if k not in ("submitted_at", "finished_at",
                                      "graph_ref")})
            svc.stop()
        assert rows[0] == rows[1]
        assert rows[0]["status"] == "done" and rows[0]["source"] == "cache"
        assert set(rows[0]["meta"]) == {"num_colors", "num_vertices",
                                        "rsd_percent"}

    def test_stats_equal_a_round_hit_but_rounds(self, graph, monkeypatch):
        stats = []
        for via_round in (False, True):
            svc = ColoringService()
            if via_round:
                self._round_path(svc, monkeypatch)
            svc.submit_and_wait(graph, self.CFG)
            svc.submit_and_wait(graph, self.CFG)
            svc.mutate_and_wait(1, TestMutate._delta(graph))
            svc.mutate_and_wait(1, TestMutate._delta(graph))
            stats.append(svc.stats())
        admit, rounds = stats
        assert (admit["scheduler"]["rounds"], rounds["scheduler"]["rounds"]) \
            == (2, 4)
        for section in (admit, rounds):
            section["scheduler"].pop("rounds")
            section["queue"].pop("latency")
        assert admit == rounds
        assert admit["cache"]["hits"] == admit["scheduler"]["cache_hits"] == 2
        assert admit["cache"]["misses"] == admit["scheduler"]["executed"] == 2

    def test_refusals_come_before_the_probe(self, graph):
        svc = ColoringService(max_pending=1, tenant_quota=1)
        svc.submit_and_wait(graph, self.CFG)
        held = svc.submit(graph, RunConfig("vff", seed=5), tenant="t")
        with pytest.raises(AdmissionError, match="queue full"):
            svc.submit(graph, self.CFG)
        svc.queue.max_pending = 2
        with pytest.raises(AdmissionError, match="quota"):
            svc.submit(graph, self.CFG, tenant="t")
        with pytest.raises(AdmissionError, match="priority"):
            svc.submit(graph, self.CFG, priority="urgent")
        assert svc.stats()["cache"]["hits"] == 0  # no refusal probed
        svc.process()
        assert held.status == "done"
        assert svc.submit(graph, self.CFG, tenant="t").source == "cache"

    def test_repeat_behind_its_twin_resolves_in_a_round(self, graph,
                                                        counted_execute):
        # in one round: the twin's follower
        svc = ColoringService()
        first, twin = svc.submit(graph, self.CFG), svc.submit(graph, self.CFG)
        assert not twin.finished
        svc.process()
        assert (first.source, twin.source) == ("computed", "dedup")
        # a round apart: the lookup finds what the first round published
        svc = ColoringService(batch_size=1)
        first, twin = svc.submit(graph, self.CFG), svc.submit(graph, self.CFG)
        svc.process()
        assert (first.source, twin.source) == ("computed", "cache")
        assert self._rounds(svc) == 2
        assert svc.stats()["cache"]["misses"] == 1
        assert len(counted_execute) == 2

    def test_repeated_mutate_resolves_at_admission(self, graph,
                                                   counted_execute):
        svc = ColoringService()
        base = svc.submit_and_wait(graph, self.CFG)
        first = svc.mutate_and_wait(base.id, TestMutate._delta(graph))
        rounds = self._rounds(svc)
        again = svc.mutate(base.id, TestMutate._delta(graph))
        assert again.status == "done" and again.source == "cache"
        assert again.key == first.key
        assert self._rounds(svc) == rounds
        assert len(counted_execute) == 2
        assert np.array_equal(again.result.coloring.colors,
                              first.result.coloring.colors)

    def test_pump_not_woken_for_a_hit(self, graph):
        svc = ColoringService()
        svc.submit_and_wait(graph, self.CFG)
        svc._wake.clear()
        status, reply = dispatch(svc, "POST", "/submit", {
            "input": "cnr", "scale": 0.05, "seed": 0,
            "config": {"strategy": "greedy-ff", "seed": 0}})
        assert status == 202 and reply["status"] == "pending"
        assert svc._wake.is_set()
        svc.process()
        svc._wake.clear()
        status, reply = dispatch(svc, "POST", "/submit", {
            "input": "cnr", "scale": 0.05, "seed": 0,
            "config": {"strategy": "greedy-ff", "seed": 0}})
        assert status == 202 and reply["status"] == "done"
        assert not svc._wake.is_set()


# ----------------------------------------------------------------------
# POST /mutate: re-color a finished job's mutated graph
# ----------------------------------------------------------------------
class TestMutate:
    @staticmethod
    def _delta(graph, seed=0):
        from repro.graph import random_churn

        return random_churn(graph, 0.01, seed=seed)

    @staticmethod
    def _submit_base(svc, graph):
        job = svc.submit_and_wait(graph, RunConfig("vff", seed=3))
        assert job.status == "done"
        return job

    def test_mutate_produces_proper_coloring(self, graph):
        from repro.coloring import is_proper
        from repro.graph import apply_delta

        svc = ColoringService()
        base = self._submit_base(svc, graph)
        batch = self._delta(graph)
        job = svc.mutate_and_wait(base.id, batch)
        assert job.status == "done"
        mutated, _ = apply_delta(graph, batch)
        assert is_proper(mutated, job.result.coloring)
        assert job.result.config.strategy == "incremental"
        assert job.meta["base_job_id"] == base.id
        assert job.meta["delta_digest"] == batch.digest()

    def test_config_serializes_once_per_job(self, graph, monkeypatch):
        """The key and the store row share one ``to_dict``, on submit and
        on mutate alike."""
        calls, real = [], RunConfig.to_dict
        monkeypatch.setattr(RunConfig, "to_dict", lambda c: calls.append(c.strategy) or real(c))
        svc = ColoringService()
        svc.mutate_and_wait(self._submit_base(svc, graph).id, self._delta(graph))
        assert calls == ["vff", "incremental"]

    def test_same_delta_hits_cache_different_delta_misses(self, graph,
                                                          counted_execute):
        svc = ColoringService()
        base = self._submit_base(svc, graph)
        j1 = svc.mutate_and_wait(base.id, self._delta(graph, seed=0))
        j2 = svc.mutate_and_wait(base.id, self._delta(graph, seed=0))
        j3 = svc.mutate_and_wait(base.id, self._delta(graph, seed=1))
        assert j1.key == j2.key != j3.key
        assert j1.source == "computed" and j2.source == "cache"
        assert j3.source == "computed"
        assert len(counted_execute) == 3  # base + two distinct mutations
        assert np.array_equal(j1.result.coloring.colors,
                              j2.result.coloring.colors)

    def test_unbounded_budget_matches_full_recolor_bitwise(self, graph):
        """Every mutation job is the full re-color an unbounded staleness
        budget used to select."""
        from repro.coloring import balanced_recoloring, carry_forward
        from repro.graph import apply_delta

        svc = ColoringService()
        base = self._submit_base(svc, graph)
        batch = self._delta(graph)
        job = svc.mutate_and_wait(base.id, batch)
        mutated, _ = apply_delta(graph, batch)
        full = balanced_recoloring(
            mutated, carry_forward(mutated, base.result.coloring))
        assert np.array_equal(job.result.coloring.colors, full.colors)

    def test_chained_mutations(self, graph):
        from repro.coloring import is_proper
        from repro.graph import apply_delta

        svc = ColoringService()
        base = self._submit_base(svc, graph)
        b1 = self._delta(graph, seed=0)
        j1 = svc.mutate_and_wait(base.id, b1)
        g1, _ = apply_delta(graph, b1)
        b2 = self._delta(g1, seed=1)
        j2 = svc.mutate_and_wait(j1.id, b2)
        g2, _ = apply_delta(g1, b2)
        assert j2.status == "done"
        assert is_proper(g2, j2.result.coloring)
        assert j2.meta["base_job_id"] == j1.id

    def test_mutate_error_codes(self, graph):
        from repro.serve import MutationError

        svc = ColoringService()
        with pytest.raises(MutationError) as exc:
            svc.mutate(999, self._delta(graph))
        assert exc.value.status == 404
        pending = svc.submit(graph, RunConfig("vff", seed=3))
        with pytest.raises(MutationError) as exc:
            svc.mutate(pending.id, self._delta(graph))
        assert exc.value.status == 409

    def test_dispatch_mutate_end_to_end(self):
        # Full protocol pass through the socketless router.
        svc = ColoringService()
        status, sub = dispatch(svc, "POST", "/submit", {
            "input": "cnr", "scale": 0.05, "seed": 0,
            "config": {"strategy": "vff", "seed": 0}})
        assert status == 202
        svc.process()
        batch = {"add_vertices": 2, "add_edges": [], "remove_edges": []}
        status, rep = dispatch(svc, "POST", "/mutate", {
            "base_job_id": sub["job_id"], "delta": batch})
        assert status == 202
        assert rep["base_job_id"] == sub["job_id"]
        assert rep["dirty_vertices"] == 2
        svc.process()
        status, result = dispatch(svc, "GET", f"/result/{rep['job_id']}")
        assert status == 200 and result["status"] == "done"

    def test_dispatch_mutate_rejects_bad_requests(self, graph):
        svc = ColoringService()
        base = self._submit_base(svc, graph)
        cases = [
            ({"delta": {"add_vertices": 1}}, 400),            # no base id
            ({"base_job_id": 999, "delta": {"add_vertices": 1}}, 404),
            ({"base_job_id": base.id}, 400),                  # no delta
            ({"base_job_id": base.id,
              "delta": {"bogus": 1}}, 400),                   # bad delta field
            ({"base_job_id": base.id, "delta": {"add_vertices": 1},
              "nope": True}, 400),                            # unknown field
            ({"base_job_id": base.id,
              "delta": {"remove_edges": [[0, 299]]}}, 400),   # likely absent
        ]
        for body, want in cases:
            status, payload = dispatch(svc, "POST", "/mutate", body)
            if want == 400 and status == 202:
                continue  # the "likely absent" edge happened to exist
            assert status == want, (body, payload)
            assert "error" in payload


    def test_dispatch_mutate_rejects_staleness_budget(self, graph):
        """The bounded path and its knob are gone: a body that still sends
        ``staleness_budget`` gets the unknown-field reply, and nothing is
        admitted."""
        svc = ColoringService()
        base = self._submit_base(svc, graph)
        for budget in (0.05, None):
            status, payload = dispatch(svc, "POST", "/mutate", {
                "base_job_id": base.id, "delta": {"add_vertices": 1},
                "staleness_budget": budget})
            assert status == 400
            assert "unknown mutate field(s) ['staleness_budget']" in payload["error"]
        assert svc.stats()["queue"]["submitted"] == 1  # the base job only


# ----------------------------------------------------------------------
# graph memo: each served dataset is built once per (input, scale, seed)
# ----------------------------------------------------------------------
def _memo_body(**fields):
    body = {"input": "cnr", "scale": 0.05, "seed": 0,
            "config": {"strategy": "greedy-ff", "seed": 0}}
    body.update(fields)
    return body


def _graph_cost(graph):
    return 512 + graph.indptr.nbytes + graph.indices.nbytes


@pytest.fixture
def counted_build(monkeypatch):
    """Count real dataset builds through the module attribute tracers patch."""
    import repro.graph.datasets as datasets_mod

    calls: list[tuple] = []
    real = datasets_mod.load_dataset

    def counting(name, *, scale=1.0, seed=0):
        calls.append((name, scale, seed))
        return real(name, scale=scale, seed=seed)

    monkeypatch.setattr(datasets_mod, "load_dataset", counting)
    return calls


class TestGraphMemo:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_memo_hit_matches_fresh_build(self, name):
        svc = ColoringService()
        first = svc.dataset(name, scale=0.05, seed=3)
        hit = svc.dataset(name, scale=0.05, seed=3)
        fresh = load_dataset(name, scale=0.05, seed=3)
        assert hit is first
        assert np.array_equal(hit.indptr, fresh.indptr)
        assert np.array_equal(hit.indices, fresh.indices)
        assert hit.fingerprint() == fresh.fingerprint()
        cfg = RunConfig("greedy-ff", seed=1)
        assert job_key(hit, cfg) == job_key(fresh, cfg)
        status, reply = dispatch(svc, "POST", "/submit", _memo_body(
            input=name, seed=3, config={"strategy": "greedy-ff", "seed": 1}))
        assert status == 202 and reply["key"] == job_key(fresh, cfg)
        assert svc.stats()["cache"]["graph_builds"] == 1

    def test_second_submit_reuses_graph_object(self, counted_build):
        from repro.obs import Recorder

        rec = Recorder()
        svc = ColoringService(recorder=rec)
        _, one = dispatch(svc, "POST", "/submit", _memo_body())
        _, two = dispatch(svc, "POST", "/submit", _memo_body(
            config={"strategy": "vff", "seed": 4}))
        assert svc.result(one["job_id"]).graph is svc.result(two["job_id"]).graph
        assert counted_build == [("cnr", 0.05, 0)]
        stats = svc.stats()["cache"]
        assert stats["graph_builds"] == 1 and stats["graph_hits"] == 1
        assert stats["graph_entries"] == 1
        graph = svc.result(one["job_id"]).graph
        assert stats["graph_bytes"] == _graph_cost(graph)
        assert rec.counters["serve.cache.graph_builds"] == 1
        assert rec.counters["serve.cache.graph_hits"] == 1
        assert rec.gauges["serve.cache.graph_bytes"] == stats["graph_bytes"]
        svc.process()
        assert svc.result(two["job_id"]).status == "done"

    def test_normalized_params_share_an_entry(self, counted_build):
        svc = ColoringService()
        for scale, seed in ((0.05, 2), ("0.05", 2.0), (0.05, "2")):
            status, reply = dispatch(svc, "POST", "/submit",
                                     _memo_body(scale=scale, seed=seed))
            assert status == 202, reply
        assert counted_build == [("cnr", 0.05, 2)]

    def test_eviction_shares_budget_with_results(self):
        g = path_graph(100)
        results = [(job_key(g, RunConfig("greedy-ff", seed=i)),
                    execute(g, RunConfig("greedy-ff", seed=i)))
                    for i in range(2)]
        one_result = 100 * 8 + 512
        graph = erdos_renyi_graph(50, 0.1, seed=1)
        cache = ResultCache(max_bytes=_graph_cost(graph) + one_result + 100)
        assert cache.graph(("g",), lambda: graph) is graph
        cache.put(*results[0])  # graph + one result fit
        assert cache.stats()["graph_entries"] == 1
        cache.put(*results[1])  # the LRU graph makes room
        stats = cache.stats()
        assert stats["graph_evictions"] == 1 and stats["evictions"] == 0
        assert stats["graph_entries"] == 0 and stats["graph_bytes"] == 0
        assert stats["entries"] == 2 and stats["bytes"] <= cache.max_bytes
        rebuilt = erdos_renyi_graph(50, 0.1, seed=1)
        assert cache.graph(("g",), lambda: rebuilt) is rebuilt
        stats = cache.stats()  # ... and a rebuilt graph evicts a result
        assert stats["graph_builds"] == 2 and stats["evictions"] == 1
        assert stats["entries"] == 1 and stats["bytes"] <= cache.max_bytes
        assert cache.get(results[0][0]) is None

    def test_over_budget_graph_is_not_pinned(self):
        g = path_graph(100)
        key, result = (job_key(g, RunConfig("greedy-ff")),
                       execute(g, RunConfig("greedy-ff")))
        cache = ResultCache(max_bytes=2000)
        cache.put(key, result)
        big = erdos_renyi_graph(200, 0.1, seed=2)
        assert _graph_cost(big) > cache.max_bytes
        assert cache.graph(("big",), lambda: big) is big
        stats = cache.stats()
        assert stats["graph_entries"] == 0 and stats["graph_bytes"] == 0
        assert stats["evictions"] == 0 and cache.get(key) is result
        cache.graph(("big",), lambda: big)
        assert cache.stats()["graph_builds"] == 2

    def test_concurrent_misses_build_once(self):
        import threading
        import time

        cache = ResultCache()
        started, release = threading.Event(), threading.Event()
        builds = []

        def build():
            builds.append(1)
            started.set()
            release.wait(10)
            return path_graph(10)

        got = []
        threads = [threading.Thread(
            target=lambda: got.append(cache.graph(("k",), build)))
            for _ in range(4)]
        threads[0].start()
        assert started.wait(10)
        for t in threads[1:]:
            t.start()
        time.sleep(0.1)  # let the other three reach the in-flight build
        release.set()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1 and len(got) == 4
        assert all(g is got[0] for g in got)
        stats = cache.stats()
        assert stats["graph_builds"] == 1 and stats["graph_hits"] == 3

    def test_stress_counts_stay_consistent(self):
        import threading

        cache = ResultCache(max_bytes=3 * 600)  # three path_graph(4) entries
        calls, keys, workers = 200, 6, 8

        def worker(k):
            for i in range(calls):
                cache.graph(("g", (i * 7 + k) % keys), lambda: path_graph(4))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        stats = cache.stats()
        assert stats["graph_hits"] + stats["graph_builds"] == workers * calls
        assert (stats["graph_builds"] - stats["graph_evictions"]
                == stats["graph_entries"] <= 3)
        assert stats["graph_bytes"] == stats["bytes"] == 600 * stats["graph_entries"]

    def test_failed_build_is_not_memoized(self):
        cache = ResultCache()

        def broken():
            raise ValueError("no such graph")

        with pytest.raises(ValueError, match="no such graph"):
            cache.graph(("k",), broken)
        stats = cache.stats()
        assert stats["graph_entries"] == 0 and stats["graph_builds"] == 0
        graph = path_graph(5)
        assert cache.graph(("k",), lambda: graph) is graph

    def test_graph_file_bypasses_memo(self, tmp_path):
        from repro.graph import save_graph

        store = save_graph(erdos_renyi_graph(80, 0.1, seed=5), tmp_path / "g")
        svc = ColoringService()
        body = {"graph_file": str(store),
                "config": {"strategy": "greedy-ff", "seed": 0}}
        _, one = dispatch(svc, "POST", "/submit", body)
        _, two = dispatch(svc, "POST", "/submit", body)
        assert one["key"] == two["key"]
        assert svc.result(one["job_id"]).graph is not svc.result(two["job_id"]).graph
        stats = svc.stats()["cache"]
        assert stats["graph_builds"] == 0 and stats["graph_entries"] == 0

    def test_stop_releases_memo(self):
        svc = ColoringService()
        svc.submit_and_wait(svc.dataset("cnr", scale=0.05, seed=0),
                            RunConfig("greedy-ff"))
        assert svc.stats()["cache"]["graph_entries"] == 1
        svc.stop()
        stats = svc.stats()["cache"]
        assert stats["graph_entries"] == 0 and stats["graph_bytes"] == 0
        assert stats["entries"] == 1  # results stay

    @pytest.mark.parametrize("fields, message", [
        ({"scale": "inf"}, "scale must be a finite number > 0"),
        ({"scale": "nan"}, "scale must be a finite number > 0"),
        ({"scale": 0}, "scale must be a finite number > 0"),
        ({"scale": -0.5}, "scale must be a finite number > 0"),
        ({"scale": True}, "scale must be a finite number > 0"),
        ({"scale": "big"}, "scale must be a finite number > 0"),
        ({"scale": [1]}, "scale must be a finite number > 0"),
        ({"seed": 1.5}, "seed must be a non-negative integer"),
        ({"seed": True}, "seed must be a non-negative integer"),
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"seed": "1.5"}, "seed must be a non-negative integer"),
        ({"seed": None}, "seed must be a non-negative integer"),
        ({"seed": float("nan")}, "seed must be a non-negative integer"),
    ])
    def test_bad_scale_or_seed_is_400_before_any_build(self, fields, message,
                                                       counted_build):
        svc = ColoringService()
        status, reply = dispatch(svc, "POST", "/submit", _memo_body(**fields))
        assert status == 400 and message in reply["error"]
        assert counted_build == []


# ----------------------------------------------------------------------
# one count per serving event: /stats and the recorder read the same count
# ----------------------------------------------------------------------
#: every count ``stats()`` reports, by component (``""`` = the service)
COUNTED = {
    "cache": ("hits", "misses", "evictions", "graph_hits", "graph_builds",
              "graph_evictions"),
    "queue": ("submitted", "rejections_full", "rejections_invalid",
              "rejections_quota", "deadline_expired", "store_errors"),
    "scheduler": ("rounds", "resolved", "executed", "cache_hits",
                  "store_hits", "dedup_hits", "failures", "deadline_failed"),
    "supervisor": ("ticks", "deadline_expired", "supervisor_errors"),
    "": ("pump_errors", "http_errors"),
}


class TestCounterContract:
    def test_recorder_mirrors_every_stats_count(self, tmp_path, monkeypatch):
        import time

        from repro.obs import Recorder

        config = RunConfig("greedy-ff", seed=0)
        g1, g2, g3, g4, g5, g6 = (erdos_renyi_graph(200, 0.03, seed=s)
                                  for s in range(6))
        probe = ColoringService()
        probe.submit_and_wait(g1, config)
        one_result = probe.cache.stats()["bytes"]  # the budget holds one

        rec = Recorder()
        svc = ColoringService(recorder=rec, store=tmp_path / "st",
                              max_bytes=one_result, max_pending=2,
                              tenant_quota=1, supervise=True,
                              fault_plan="storeerr@r0")
        # a store error on the first transition (g6's running write)
        svc.submit_and_wait(g6, config)
        # a graph build and a hit; the build evicts g6's result
        tiny = path_graph(4)
        for _ in range(2):
            svc.cache.graph(("tiny",), lambda: tiny)
        # two misses, one execute and one dedup; the result evicts the graph
        first = svc.submit(g1, config)
        svc.submit(g1, config)
        svc.process()
        # a hit
        assert svc.submit_and_wait(g1, config).source == "cache"
        # g2's result evicts g1's; g1 is then read back from its store row
        svc.submit_and_wait(g2, config)
        assert svc.submit_and_wait(g1, config).source == "cache"
        # each rejection cause
        held = [svc.submit(g3, config, tenant="t")]
        with pytest.raises(AdmissionError, match="quota"):
            svc.submit(g3, config, tenant="t")
        held.append(svc.submit(g4, config))
        with pytest.raises(AdmissionError, match="queue full"):
            svc.submit(g4, config)
        with pytest.raises(AdmissionError, match="priority"):
            svc.submit(g4, config, priority="urgent")
        svc.process()
        # a deadline failed by the scheduler, another swept by a tick
        svc.submit(g5, config, deadline_ms=0.01)
        time.sleep(0.002)
        svc.process()
        svc.submit(g5, config, deadline_ms=0.01)
        time.sleep(0.002)
        assert svc.supervisor.tick()["expired"] == 1
        # a failed execute
        with monkeypatch.context() as m:
            m.setattr(svc.scheduler.backend, "run", lambda job: 1 / 0)
            assert svc.submit_and_wait(g5, config).status == "failed"
        # an HTTP 500
        with monkeypatch.context() as m:
            m.setattr(svc, "healthz", lambda: 1 / 0)
            assert dispatch(svc, "GET", "/healthz")[0] == 500

        stats = svc.stats()
        svc.stop()
        assert first.status == "done"
        mirrored = {}
        for component, names in COUNTED.items():
            section = stats[component] if component else stats
            prefix = f"serve.{component}." if component else "serve."
            for name in names:
                mirrored[prefix + name] = section[name]
        assert {name: rec.counters.get(name, 0) for name in mirrored} \
            == mirrored
        served = {n for n in rec.counters if n.startswith("serve.")}
        assert served <= set(mirrored)
        # every event above was counted; only the loop-thread errors stay 0
        assert {n for n, v in mirrored.items() if v == 0} == {
            "serve.pump_errors", "serve.supervisor.supervisor_errors"}
        queue = stats["queue"]
        assert queue["rejections"] == (queue["rejections_full"]
                                       + queue["rejections_invalid"]
                                       + queue["rejections_quota"])
