"""Tests for the observability layer: recorder, exporter, bridge, parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.coloring import (
    balanced_recoloring,
    greedy_coloring,
    iterated_greedy,
    shuffle_balance,
)
from repro.graph import erdos_renyi_graph
from repro.obs import (
    NULL,
    Counters,
    Recorder,
    as_recorder,
    install,
    installed,
    read_jsonl,
    record_trace,
    recording,
    write_jsonl,
)
from repro.parallel import (
    parallel_greedy_ff,
    parallel_recoloring,
    parallel_scheduled_balance,
    parallel_shuffle_balance,
)
from repro.parallel.engine import SuperstepRecord, TickMachine


class TestRecorder:
    def test_events_are_ordered_and_stamped(self):
        rec = Recorder()
        rec.event("a", x=1)
        rec.event("b", y=2)
        assert [e["kind"] for e in rec.events] == ["a", "b"]
        assert [e["seq"] for e in rec.events] == [1, 2]
        assert all(e["t"] >= 0 for e in rec.events)
        assert rec.events[0]["x"] == 1

    def test_counters_accumulate(self):
        rec = Recorder()
        rec.count("moves")
        rec.count("moves", 4)
        assert rec.counters["moves"] == 5

    def test_gauges_last_write_wins(self):
        rec = Recorder()
        rec.gauge("rsd", 10.0)
        rec.gauge("rsd", 3.0)
        assert rec.gauges["rsd"] == 3.0

    def test_counts_and_events_are_thread_safe(self):
        # the serve layer's worker pool counts into one shared recorder;
        # no increment may be lost and event seq numbers must stay unique
        import threading

        rec = Recorder()

        def work(tid):
            for _ in range(500):
                rec.count("jobs")
                rec.event("tick", tid=tid)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counters["jobs"] == 4000
        assert len(rec.events) == 4000
        assert len({e["seq"] for e in rec.events}) == 4000

    def test_phase_nesting_paths(self):
        rec = Recorder()
        with rec.phase("outer"):
            with rec.phase("inner"):
                rec.event("work")
        assert rec.events_of("work")[0]["phase"] == "outer/inner"
        starts = [e["name"] for e in rec.events_of("phase_start")]
        assert starts == ["outer", "outer/inner"]
        ends = [e["name"] for e in rec.events_of("phase_end")]
        assert ends == ["outer/inner", "outer"]
        assert set(rec.phase_seconds) == {"outer", "outer/inner"}
        assert rec.phase_seconds["outer"] >= rec.phase_seconds["outer/inner"]

    def test_phase_restores_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.phase("boom"):
                raise RuntimeError()
        rec.event("after")
        assert "phase" not in rec.events_of("after")[0]
        assert "boom" in rec.phase_seconds

    def test_summary_mentions_everything(self):
        rec = Recorder()
        with rec.phase("p"):
            rec.count("c", 2)
            rec.gauge("g", 1.5)
        text = rec.summary()
        assert "p" in text and "c" in text and "g" in text

    def test_null_recorder_is_inert(self):
        NULL.event("x", a=1)
        NULL.count("c")
        NULL.gauge("g", 1)
        with NULL.phase("p"):
            pass
        assert not NULL.enabled

    def test_as_recorder_resolution(self):
        rec = Recorder()
        assert as_recorder(rec) is rec
        assert as_recorder(None) is NULL
        with recording() as installed_rec:
            assert as_recorder(None) is installed_rec
            assert installed() is installed_rec
            # explicit argument still wins over the installed recorder
            assert as_recorder(rec) is rec
        assert as_recorder(None) is NULL
        assert installed() is None

    def test_recording_restores_previous(self):
        outer = Recorder()
        install(outer)
        try:
            with recording(Recorder()):
                assert installed() is not outer
            assert installed() is outer
        finally:
            install(None)


    def test_phase_stacks_are_per_thread(self):
        # two threads nest phases at once; each keeps its own path, and
        # each exit pops its own frame
        import threading

        rec = Recorder()
        both_in = threading.Barrier(2, timeout=10)

        def nest(outer):
            with rec.phase(outer):
                both_in.wait()
                with rec.phase("inner"):
                    both_in.wait()
                    rec.event("mark", by=outer)
                both_in.wait()

        threads = [threading.Thread(target=nest, args=(n,)) for n in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(rec.phase_seconds) == {"a", "a/inner", "b", "b/inner"}
        assert {(e["by"], e["phase"]) for e in rec.events_of("mark")} == {
            ("a", "a/inner"), ("b", "b/inner")}


class TestCounters:
    def test_declared_names_start_at_zero_and_mirror(self):
        rec = Recorder()
        counts = Counters("serve.x", ("hits", "misses"), rec)
        assert counts.snapshot() == {"hits": 0, "misses": 0}
        assert counts.add("hits") == 1
        assert counts.add("hits", 3) == 4
        assert counts.snapshot() == {"hits": 4, "misses": 0}
        assert rec.counters == {"serve.x.hits": 4}

    def test_undeclared_name_raises(self):
        rec = Recorder()
        counts = Counters("serve.x", ("hits",), rec)
        with pytest.raises(KeyError):
            counts.add("hist")
        assert counts.snapshot() == {"hits": 0} and rec.counters == {}

    def test_resolves_the_installed_recorder(self):
        with recording() as rec:
            counts = Counters("serve.x", ("hits",))
        counts.add("hits")
        assert rec.counters == {"serve.x.hits": 1}

    def test_adds_from_threads_are_not_lost(self):
        import threading

        rec = Recorder()
        counts = Counters("serve.x", ("hits",), rec)

        def work():
            for _ in range(1000):
                counts.add("hits")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counts.snapshot() == {"hits": 4000}
        assert rec.counters["serve.x.hits"] == 4000


class TestJsonl:
    def test_round_trip(self, tmp_path):
        rec = Recorder()
        with rec.phase("p"):
            rec.event("data", arr=np.arange(3), scalar=np.int64(7),
                      f=np.float64(1.5), flag=np.bool_(True))
        rec.count("c", np.int64(2))
        path = tmp_path / "events.jsonl"
        n = write_jsonl(rec, path)
        back = read_jsonl(path)
        assert len(back) == n == len(rec.events) + 1  # + run_summary
        data = [e for e in back if e["kind"] == "data"][0]
        assert data["arr"] == [0, 1, 2]
        assert data["scalar"] == 7 and data["f"] == 1.5 and data["flag"] is True
        assert back[-1]["kind"] == "run_summary"
        assert back[-1]["counters"] == {"c": 2}

    def test_gzip_round_trip(self, tmp_path):
        events = [{"kind": "a", "seq": 1}, {"kind": "b", "seq": 2}]
        path = tmp_path / "events.jsonl.gz"
        assert write_jsonl(events, path) == 2
        assert read_jsonl(path) == events

    def test_malformed_line_names_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            read_jsonl(path)


class TestBridge:
    def _trace(self):
        machine = TickMachine(2, algorithm="demo")
        record = SuperstepRecord(work_per_thread=np.array([3.0, 1.0]))
        record.conflicts = 4
        record.atomic_ops = 2
        record.items = 5
        machine.trace.add(record)
        return machine.trace

    def test_record_trace_events(self):
        rec = Recorder()
        trace = self._trace()
        record_trace(rec, trace)
        steps = rec.events_of("superstep")
        assert len(steps) == trace.num_supersteps == 1
        assert steps[0]["conflicts"] == 4
        assert steps[0]["total_work"] == 4.0
        summary = rec.events_of("trace_summary")[0]
        assert summary["algorithm"] == "demo"
        assert rec.counters["demo.conflicts"] == 4

    def test_record_to_method(self):
        rec = Recorder()
        self._trace().record_to(rec)
        assert len(rec.events_of("superstep")) == 1

    def test_disabled_recorder_skips(self):
        record_trace(NULL, self._trace())  # must not raise


@pytest.fixture(scope="module")
def obs_graph():
    return erdos_renyi_graph(400, 0.03, seed=7)


class TestParity:
    """Attaching a recorder never changes any coloring."""

    def _assert_parity(self, run):
        bare = run(None)
        rec = Recorder()
        traced = run(rec)
        assert np.array_equal(bare.colors, traced.colors)
        assert bare.num_colors == traced.num_colors
        assert rec.events, "recorder attached but no events emitted"
        return rec

    @pytest.mark.parametrize("choice", ["ff", "lu", "random"])
    def test_greedy(self, obs_graph, choice):
        rec = self._assert_parity(
            lambda r: greedy_coloring(obs_graph, choice=choice, seed=3, recorder=r)
        )
        assert rec.events_of("coloring")

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("traversal", ["vertex", "color"])
    def test_shuffle_balance(self, obs_graph, backend, traversal):
        init = greedy_coloring(obs_graph)
        with kernels.use_backend(backend):
            rec = self._assert_parity(lambda r: shuffle_balance(
                obs_graph, init, traversal=traversal, recorder=r))
        rounds = rec.events_of("drain_round")
        assert rounds
        assert all("rsd_percent" in e and "moves" in e for e in rounds)
        assert rec.events_of("balance")

    def test_iterated_greedy(self, obs_graph):
        init = greedy_coloring(obs_graph)
        rec = self._assert_parity(
            lambda r: iterated_greedy(obs_graph, init, iterations=3, recorder=r)
        )
        assert len(rec.events_of("iteration")) == 3

    def test_balanced_recoloring(self, obs_graph):
        init = greedy_coloring(obs_graph)
        self._assert_parity(
            lambda r: balanced_recoloring(obs_graph, init, recorder=r)
        )

    def test_parallel_greedy_ff(self, obs_graph):
        rec = self._assert_parity(
            lambda r: parallel_greedy_ff(obs_graph, num_threads=4, recorder=r)
        )
        steps = rec.events_of("superstep")
        bare = parallel_greedy_ff(obs_graph, num_threads=4)
        assert len(steps) == bare.meta["trace"].num_supersteps

    @pytest.mark.parametrize("traversal", ["vertex", "color"])
    def test_parallel_shuffle(self, obs_graph, traversal):
        init = greedy_coloring(obs_graph)
        rec = self._assert_parity(
            lambda r: parallel_shuffle_balance(
                obs_graph, init, traversal=traversal, num_threads=4, recorder=r)
        )
        assert rec.events_of("superstep")
        assert rec.events_of("balance")

    def test_parallel_scheduled(self, obs_graph):
        init = greedy_coloring(obs_graph)
        rec = self._assert_parity(
            lambda r: parallel_scheduled_balance(
                obs_graph, init, num_threads=4, rounds=2, recorder=r)
        )
        assert rec.events_of("plan_round")

    def test_parallel_recoloring(self, obs_graph):
        init = greedy_coloring(obs_graph)
        rec = self._assert_parity(
            lambda r: parallel_recoloring(obs_graph, init, num_threads=4, recorder=r)
        )
        assert rec.events_of("superstep")

    def test_installed_recorder_also_preserves_results(self, obs_graph):
        bare = greedy_coloring(obs_graph)
        with recording() as rec:
            traced = greedy_coloring(obs_graph)
        assert np.array_equal(bare.colors, traced.colors)
        assert rec.events_of("coloring")


class TestTracedRun:
    def test_archives_jsonl(self, obs_graph, tmp_path):
        from repro.experiments import traced_run

        path = tmp_path / "run.jsonl"
        with traced_run(path) as rec:
            greedy_coloring(obs_graph)
        assert rec.events
        events = read_jsonl(path)
        assert events[-1]["kind"] == "run_summary"
        assert any(e["kind"] == "coloring" for e in events)

    def test_no_path_no_file(self, obs_graph, tmp_path):
        from repro.experiments import traced_run

        with traced_run() as rec:
            greedy_coloring(obs_graph)
        assert rec.events
        assert list(tmp_path.iterdir()) == []

    def test_archives_when_the_block_raises(self, obs_graph, tmp_path):
        from repro.experiments import traced_run

        path = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError, match="crashed"):
            with traced_run(path):
                greedy_coloring(obs_graph)
                raise RuntimeError("crashed")
        events = read_jsonl(path)
        assert events[-1]["kind"] == "run_summary"
        assert any(e["kind"] == "coloring" for e in events)
