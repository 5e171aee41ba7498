"""Failure-path tests: fault injection, guarded execution, self-healing.

Every fault a :class:`repro.resilience.FaultPlan` can inject — worker
stalls, corrupted proposals, stale snapshots, stuck rounds — must be
detected and recovered, with the final coloring proper and, where the
recovery protocol guarantees it (retry against the same snapshot),
bit-identical to the fault-free run.  Replays of the same plan and seed
must reproduce the identical event sequence and coloring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coloring import assert_proper, greedy_coloring, is_proper
from repro.obs import Recorder
from repro.parallel.engine import ExecutionTrace
from repro.parallel.greedy import parallel_greedy_ff
from repro.parallel.mp import mp_greedy_ff
from repro.parallel.recolor import parallel_recoloring
from repro.parallel.shuffled import parallel_shuffle_balance
from repro.resilience import (
    NO_FAULTS,
    ConvergenceWatchdog,
    FaultPlan,
    FaultSpec,
    InvariantViolationError,
    check_invariants,
    heal,
    repair_coloring,
    resolve_fault_plan,
    violating_vertices,
)
from repro.run import RunConfig, execute


def _fault_events(rec: Recorder) -> list[tuple]:
    """Stable (timing-free) projection of the resilience event stream."""
    kinds = ("fault_injected", "fault_detected", "fault_recovered",
             "mp_salvage", "mp_degraded", "watchdog_fallback",
             "invariant_violation", "repair", "sequential_fallback")
    return [
        (e["kind"], e.get("fault"), e.get("round"), e.get("worker"),
         e.get("attempt"))
        for e in rec.events if e["kind"] in kinds
    ]


# ---------------------------------------------------------------------------
# FaultPlan: parsing, determinism, resolution
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_round_trip(self):
        spec = "stall@r0.w2:1.5;corrupt@r3.w1;stale@r2.w0;stick@r0:4"
        plan = FaultPlan.from_spec(spec)
        assert plan.to_spec() == spec
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_attempts_suffix(self):
        plan = FaultPlan.from_spec("corrupt@r0.w0x3")
        assert plan.for_task(0, 0, attempt=0).kind == "corrupt"
        assert plan.for_task(0, 0, attempt=2) is not None
        assert plan.for_task(0, 0, attempt=3) is None

    def test_task_matching(self):
        plan = FaultPlan.from_spec("corrupt@r1.w0")
        assert plan.for_task(1, 0) is not None
        assert plan.for_task(0, 0) is None
        assert plan.for_task(1, 1) is None

    def test_stick_window(self):
        plan = FaultPlan.from_spec("stick@r2:3")
        assert not plan.stick_active(1)
        assert all(plan.stick_active(r) for r in (2, 3, 4))
        assert not plan.stick_active(5)

    def test_malformed_specs_rejected(self):
        for bad in ("boom@r0.w0", "kill@r0.w0", "corrupt@w0", "corrupt@r0",
                    "corrupt", "@r0.w0"):
            with pytest.raises(ValueError):
                FaultPlan.from_spec(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("corrupt", round=-1)
        with pytest.raises(ValueError):
            FaultSpec("nope", round=0)
        with pytest.raises(ValueError):
            FaultSpec("stall", round=0, duration=0)

    def test_rng_deterministic_per_site(self):
        plan = FaultPlan(seed=7)
        a = plan.rng(1, 0).integers(0, 1000, 8)
        b = plan.rng(1, 0).integers(0, 1000, 8)
        c = plan.rng(1, 1).integers(0, 1000, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_corrupt_is_deterministic_and_invalid(self):
        plan = FaultPlan(seed=3)
        proposals = np.arange(20, dtype=np.int64)
        x = plan.corrupt(proposals, 0, 1)
        y = plan.corrupt(proposals, 0, 1)
        assert np.array_equal(x, y)
        assert (x < 0).any()
        assert np.array_equal(proposals, np.arange(20))  # input untouched

    def test_resolve(self, monkeypatch):
        assert resolve_fault_plan(None) is NO_FAULTS
        plan = FaultPlan.from_spec("corrupt@r0.w0")
        assert resolve_fault_plan(plan) is plan
        assert resolve_fault_plan("corrupt@r0.w0") == plan
        monkeypatch.setenv("REPRO_FAULT_PLAN", "stall@r1.w0:0.5")
        assert resolve_fault_plan(None).faults[0].kind == "stall"
        with pytest.raises(TypeError):
            resolve_fault_plan(42)

    def test_empty_plan_is_falsy(self):
        assert not NO_FAULTS
        assert FaultPlan.from_spec("corrupt@r0.w0")


# ---------------------------------------------------------------------------
# ConvergenceWatchdog
# ---------------------------------------------------------------------------


class TestWatchdog:
    def test_fires_after_patience_without_progress(self):
        dog = ConvergenceWatchdog(patience=3)
        assert not dog.observe(100)
        for _ in range(2):
            assert not dog.observe(100)
        assert dog.observe(100)
        assert dog.fired and dog.fired_round == 4

    def test_progress_resets_streak(self):
        dog = ConvergenceWatchdog(patience=2)
        dog.observe(100)
        dog.observe(100)
        assert not dog.observe(90)  # shrank: streak resets
        dog.observe(90)
        assert dog.observe(90)

    def test_zero_work_never_fires(self):
        dog = ConvergenceWatchdog(patience=1)
        for _ in range(5):
            assert not dog.observe(0)

    def test_emits_event_once(self):
        rec = Recorder()
        dog = ConvergenceWatchdog(patience=1, recorder=rec, algorithm="x")
        dog.observe(10)
        dog.observe(10)
        dog.observe(10)
        events = rec.events_of("watchdog_fallback")
        assert len(events) == 1
        assert events[0]["algorithm"] == "x"

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            ConvergenceWatchdog(patience=0)


# ---------------------------------------------------------------------------
# Invariant checking and repair
# ---------------------------------------------------------------------------


class TestInvariants:
    def test_clean_coloring_passes(self, random_graph):
        c = greedy_coloring(random_graph)
        assert check_invariants(random_graph, c.colors, c.num_colors) == []

    def test_uncolored_detected(self, path10):
        colors = greedy_coloring(path10).colors.copy()
        colors[3] = -1
        kinds = {v.kind for v in check_invariants(path10, colors, None)}
        assert kinds == {"uncolored"}

    def test_conflict_reports_higher_endpoint(self, path10):
        colors = greedy_coloring(path10).colors.copy()
        colors[4] = colors[3]
        (v,) = check_invariants(path10, colors, None)
        assert v.kind == "conflict"
        assert 4 in v.vertices

    def test_color_range_detected(self, path10):
        c = greedy_coloring(path10)
        colors = c.colors.copy()
        colors[0] = c.num_colors + 5
        kinds = {v.kind for v in check_invariants(path10, colors, c.num_colors)}
        assert "color-range" in kinds

    def test_length_mismatch_raises(self, path10):
        with pytest.raises(ValueError, match="covers"):
            check_invariants(path10, np.zeros(3, dtype=np.int64), 1)

    def test_repair_fixes_only_violations(self, random_graph):
        rng = np.random.default_rng(11)
        clean = greedy_coloring(random_graph).colors
        corrupted = clean.copy()
        victims = rng.choice(random_graph.num_vertices, size=15, replace=False)
        corrupted[victims] = rng.integers(-1, clean.max() + 1, size=15)
        bad = violating_vertices(check_invariants(random_graph, corrupted, None))
        fixed, repaired = repair_coloring(random_graph, corrupted)
        assert is_proper(random_graph, fixed)
        assert np.array_equal(repaired, bad)
        untouched = np.setdiff1d(np.arange(random_graph.num_vertices), bad)
        assert np.array_equal(fixed[untouched], corrupted[untouched])

    @pytest.mark.parametrize("trial", range(5))
    def test_repair_property(self, random_graph, trial):
        """Corrupt k random vertices; repair is proper and minimal."""
        rng = np.random.default_rng(100 + trial)
        clean = greedy_coloring(random_graph).colors
        corrupted = clean.copy()
        k = int(rng.integers(1, 40))
        victims = rng.choice(random_graph.num_vertices, size=k, replace=False)
        corrupted[victims] = rng.integers(-2, clean.max() + 2, size=k)
        bad = violating_vertices(check_invariants(random_graph, corrupted, None))
        fixed, repaired = repair_coloring(random_graph, corrupted)
        assert is_proper(random_graph, fixed)
        changed = np.nonzero(fixed != corrupted)[0]
        assert np.isin(changed, bad).all()  # touched only violations
        assert check_invariants(random_graph, fixed, None) == []

    def test_repair_noop_on_clean(self, random_graph):
        clean = greedy_coloring(random_graph).colors
        fixed, repaired = repair_coloring(random_graph, clean)
        assert repaired.size == 0
        assert np.array_equal(fixed, clean)


class TestHealPolicies:
    def _broken(self, graph):
        c = greedy_coloring(graph)
        colors = c.colors.copy()
        u = graph.indices[graph.indptr[0]]  # a neighbor of vertex 0
        colors[u] = colors[0]  # force one monochromatic edge
        object.__setattr__(c, "colors", colors)  # bypass constructor checks
        return c

    def test_clean_run_returns_same_object(self, random_graph):
        c = greedy_coloring(random_graph)
        healed, report = heal(random_graph, c, "raise")
        assert healed is c
        assert report["violations"] == {}

    def test_raise_policy(self, random_graph):
        broken = self._broken(random_graph)
        with pytest.raises(InvariantViolationError, match="conflict"):
            heal(random_graph, broken, "raise")

    def test_repair_policy(self, random_graph):
        broken = self._broken(random_graph)
        healed, report = heal(random_graph, broken, "repair")
        assert is_proper(random_graph, healed.colors)
        assert report["repaired"] >= 1
        assert healed.meta["repaired"] == report["repaired"]

    def test_fallback_policy(self, random_graph):
        broken = self._broken(random_graph)
        safe = greedy_coloring(random_graph)
        healed, report = heal(random_graph, broken, "fallback",
                              fallback=lambda: safe)
        assert report["fallback"]
        assert np.array_equal(healed.colors, safe.colors)
        assert healed.meta["fallback_from"] == broken.strategy

    def test_fallback_without_callable_repairs(self, random_graph):
        broken = self._broken(random_graph)
        healed, report = heal(random_graph, broken, "fallback")
        assert is_proper(random_graph, healed.colors)
        assert report["repaired"] >= 1 and not report["fallback"]

    def test_unknown_policy(self, random_graph):
        c = greedy_coloring(random_graph)
        with pytest.raises(ValueError, match="on_failure"):
            heal(random_graph, c, "ignore")


# ---------------------------------------------------------------------------
# Guarded mp execution under injected faults
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mp_graph():
    from repro.graph import erdos_renyi_graph

    return erdos_renyi_graph(300, 0.03, seed=1)


@pytest.fixture(scope="module")
def mp_clean(mp_graph):
    return mp_greedy_ff(mp_graph, num_workers=2)


class TestGuardedMp:
    def test_clean_meta_shape(self, mp_clean):
        assert mp_clean.meta["faults"] == {
            "injected": 0, "detected": 0, "recovered": 0, "salvaged": 0}
        assert mp_clean.meta["degraded"] is False
        assert mp_clean.meta["residual"] == 0

    def test_max_rounds_zero_rejected(self, mp_graph):
        with pytest.raises(ValueError, match="max_rounds"):
            mp_greedy_ff(mp_graph, num_workers=2, max_rounds=0)

    def test_bad_timeouts_rejected(self, mp_graph):
        with pytest.raises(ValueError, match="round_timeout"):
            mp_greedy_ff(mp_graph, num_workers=2, round_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            mp_greedy_ff(mp_graph, num_workers=2, max_retries=-1)

    @pytest.mark.parametrize("plan,timeout", [
        ("stall@r0.w0:1.0", 0.2),  # hung block: detected via timeout
        ("corrupt@r0.w1", 5.0),    # garbage proposals: detected at merge
    ])
    def test_fault_recovered_bit_identical(self, mp_graph, mp_clean, plan, timeout):
        c = mp_greedy_ff(mp_graph, num_workers=2, fault_plan=plan,
                         round_timeout=timeout)
        assert_proper(mp_graph, c)
        assert np.array_equal(c.colors, mp_clean.colors)
        assert c.meta["faults"]["detected"] == 1
        assert c.meta["faults"]["recovered"] == 1
        assert c.meta["degraded"] is False

    def test_multi_fault_plan_all_mp_kinds(self):
        """Regression: a stale-snapshot worker can collide with a finalized
        *higher-id* neighbor outside the work list — a case the classic
        higher-endpoint retry rule misses (impossible without faults).
        The guarded detection must retry the speculating endpoint too."""
        from repro.graph import erdos_renyi_graph

        g = erdos_renyi_graph(2000, 0.01, seed=3)
        plan = "stall@r0.w3:1.0;corrupt@r1.w0;stale@r1.w2"
        a = mp_greedy_ff(g, num_workers=4, fault_plan=plan, round_timeout=0.5)
        assert_proper(g, a)
        assert a.meta["faults"]["injected"] == 3
        # every detected fault was recovered, none leaked into the result
        assert a.meta["faults"]["recovered"] == a.meta["faults"]["detected"] >= 2
        assert a.meta["degraded"] is False
        b = mp_greedy_ff(g, num_workers=4, fault_plan=plan, round_timeout=0.5)
        assert np.array_equal(a.colors, b.colors)  # deterministic replay

    def test_stale_snapshot_still_proper(self, mp_graph, mp_clean):
        c = mp_greedy_ff(mp_graph, num_workers=2, fault_plan="stale@r1.w0")
        assert_proper(mp_graph, c)
        assert c.num_colors <= mp_graph.max_degree + 1
        assert c.meta["faults"]["injected"] == 1

    def test_exhausted_retries_salvaged_in_process(self, mp_graph):
        c = mp_greedy_ff(mp_graph, num_workers=2, fault_plan="stall@r0.w0:1.0x9",
                         round_timeout=0.3, max_retries=1)
        assert_proper(mp_graph, c)
        assert c.meta["faults"]["salvaged"] == 1
        assert c.meta["degraded"] is True

    def test_fault_replay_identical_events_and_coloring(self, mp_graph):
        def run():
            rec = Recorder()
            c = mp_greedy_ff(mp_graph, num_workers=2,
                             fault_plan="stall@r0.w1:1.0", round_timeout=0.5,
                             recorder=rec)
            return c, _fault_events(rec)

        c1, ev1 = run()
        c2, ev2 = run()
        assert np.array_equal(c1.colors, c2.colors)
        assert ev1 == ev2
        assert ("fault_detected", None, 0, 1, 0) in ev1
        assert ("fault_recovered", None, 0, 1, 1) in ev1

    def test_recorder_never_changes_result(self, mp_graph):
        rec = Recorder()
        a = mp_greedy_ff(mp_graph, num_workers=2, fault_plan="corrupt@r0.w0",
                         recorder=rec)
        b = mp_greedy_ff(mp_graph, num_workers=2, fault_plan="corrupt@r0.w0")
        assert np.array_equal(a.colors, b.colors)


# ---------------------------------------------------------------------------
# Superstep loops: stick faults and the convergence watchdog
# ---------------------------------------------------------------------------


class TestSuperstepWatchdog:
    def test_greedy_stuck_rounds_trigger_fallback(self, random_graph):
        rec = Recorder()
        c = parallel_greedy_ff(random_graph, num_threads=8,
                               fault_plan="stick@r1:6", watchdog_patience=3,
                               recorder=rec)
        assert_proper(random_graph, c)
        assert c.meta["watchdog_round"] == 4  # 1 real + 3 stuck observations
        assert len(rec.events_of("watchdog_fallback")) == 1
        # far fewer rounds than the 200-round cap would have burned
        assert c.meta["rounds"] < 20

    def test_greedy_stick_replay_identical(self, random_graph):
        a = parallel_greedy_ff(random_graph, num_threads=8,
                               fault_plan="stick@r1:6", watchdog_patience=3)
        b = parallel_greedy_ff(random_graph, num_threads=8,
                               fault_plan="stick@r1:6", watchdog_patience=3)
        assert np.array_equal(a.colors, b.colors)

    def test_greedy_without_faults_never_fires(self, random_graph):
        c = parallel_greedy_ff(random_graph, num_threads=8)
        assert "watchdog_round" not in c.meta

    def test_shuffled_stuck_rounds_trigger_fallback(self, random_graph):
        initial = greedy_coloring(random_graph)
        c = parallel_shuffle_balance(random_graph, initial, num_threads=8,
                                     fault_plan="stick@r0:6",
                                     watchdog_patience=3)
        assert_proper(random_graph, c)
        assert c.num_colors == initial.num_colors
        assert c.meta["watchdog_round"] >= 1

    def test_recolor_stuck_rounds_trigger_fallback(self, random_graph):
        initial = greedy_coloring(random_graph)
        c = parallel_recoloring(random_graph, initial, num_threads=8,
                                fault_plan="stick@r0:6", watchdog_patience=3)
        assert_proper(random_graph, c)
        assert c.meta["watchdog_round"] >= 1

    def test_color_centric_ignores_plan(self, random_graph):
        initial = greedy_coloring(random_graph)
        a = parallel_shuffle_balance(random_graph, initial, traversal="color",
                                     num_threads=4, fault_plan="stick@r0:4")
        b = parallel_shuffle_balance(random_graph, initial, traversal="color",
                                     num_threads=4)
        assert np.array_equal(a.colors, b.colors)


# ---------------------------------------------------------------------------
# execute(): the resilient front door
# ---------------------------------------------------------------------------


class TestExecuteResilience:
    def test_clean_run_reports_empty_resilience(self, random_graph):
        r = execute(random_graph, RunConfig("vff", mode="superstep", threads=4,
                                            seed=0))
        assert r.resilience["violations"] == {}
        assert r.resilience["repaired"] == 0
        assert not r.resilience["fallback"]
        assert "verify" in r.wall_s

    def test_mp_worker_stall_acceptance(self, random_graph):
        """Stall one mp block mid-round; execute returns a proper coloring
        under on_failure='repair', reports the fault, and a replay
        reproduces the identical event sequence and coloring."""
        cfg = RunConfig("greedy-ff", mode="mp", threads=2, seed=0,
                        on_failure="repair", fault_plan="stall@r0.w1:1.0",
                        strategy_kwargs={"round_timeout": 0.5})

        def run():
            rec = Recorder()
            r = execute(random_graph, cfg, recorder=rec)
            return r, _fault_events(rec)

        r1, ev1 = run()
        r2, ev2 = run()
        assert_proper(random_graph, r1.coloring)
        assert np.array_equal(r1.coloring.colors, r2.coloring.colors)
        assert ev1 == ev2
        assert r1.resilience["faults"]["detected"] == 1
        assert r1.resilience["faults"]["recovered"] == 1
        # recovery reproduces the fault-free coloring bit-identically
        clean = execute(random_graph,
                        RunConfig("greedy-ff", mode="mp", threads=2, seed=0))
        assert np.array_equal(r1.coloring.colors, clean.coloring.colors)

    def test_superstep_fault_plan_via_config(self, random_graph):
        cfg = RunConfig("greedy-ff", mode="superstep", threads=8, seed=0,
                        fault_plan="stick@r1:6")
        r = execute(random_graph, cfg)
        assert_proper(random_graph, r.coloring)
        assert r.resilience["watchdog_round"] is not None

    def test_fault_plan_rejected_without_injection_points(self, random_graph):
        with pytest.raises(ValueError, match="no fault-injection points"):
            execute(random_graph, RunConfig("kempe", fault_plan="corrupt@r0.w0"))

    def test_config_validates_policy_and_plan(self):
        with pytest.raises(ValueError, match="on_failure"):
            RunConfig("vff", on_failure="shrug")
        with pytest.raises(ValueError, match="malformed fault spec"):
            RunConfig("vff", fault_plan="garbage")
        with pytest.raises(ValueError, match="fault_plan"):
            RunConfig("vff", fault_plan=42)
        cfg = RunConfig("greedy-ff", mode="superstep", fault_plan="stick@r0:2")
        assert isinstance(cfg.fault_plan, FaultPlan)

    def test_env_var_installs_plan(self, random_graph, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "corrupt@r0.w1")
        c = mp_greedy_ff(random_graph, num_workers=2)
        assert c.meta["faults"]["injected"] == 1
        assert c.meta["faults"]["recovered"] == 1
        assert_proper(random_graph, c)

    def test_summary_mentions_faults(self, random_graph):
        cfg = RunConfig("greedy-ff", mode="mp", threads=2, seed=0,
                        fault_plan="corrupt@r0.w0")
        r = execute(random_graph, cfg)
        assert "faults=1(recovered=1)" in r.summary()


# ---------------------------------------------------------------------------
# ExecutionTrace.from_dict hardening (satellite)
# ---------------------------------------------------------------------------


class TestTraceFromDictHardening:
    def test_round_trip_still_works(self):
        trace = ExecutionTrace(num_threads=2, algorithm="x")
        rebuilt = ExecutionTrace.from_dict(trace.to_dict())
        assert rebuilt.num_threads == 2 and rebuilt.algorithm == "x"

    def test_missing_num_threads(self):
        with pytest.raises(ValueError, match="num_threads"):
            ExecutionTrace.from_dict({"algorithm": "x"})

    def test_missing_work_per_thread_names_index(self):
        data = {"num_threads": 2,
                "supersteps": [{"work_per_thread": [1.0, 2.0]}, {"items": 3}]}
        with pytest.raises(ValueError, match="superstep 1.*work_per_thread"):
            ExecutionTrace.from_dict(data)

    def test_non_dict_input(self):
        with pytest.raises(ValueError, match="needs a dict"):
            ExecutionTrace.from_dict([1, 2, 3])
