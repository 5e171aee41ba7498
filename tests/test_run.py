"""Tests for the unified execution layer (repro.run).

The parity suite sweeps every (strategy, mode) pair the registry declares
and checks the contract the experiments rely on: proper colorings, color
conservation where promised, balance stats that match a direct
recomputation, and sequential-mode results bit-identical to the legacy
direct calls.
"""

import numpy as np
import pytest

from repro.coloring import (
    STRATEGIES,
    assert_proper,
    balance_coloring,
    balance_report,
    color_and_balance,
    greedy_coloring,
)
from repro.coloring.strategies import MODES, split_seed
from repro.machine import tilegx36
from repro.obs import Recorder
from repro.run import RunConfig, RunResult, execute, supported_runs

ALL_PAIRS = supported_runs()


def _threads_for(mode: str) -> int:
    return {"sequential": 1, "superstep": 4, "mp": 2}[mode]


class TestRegistryDeclaration:
    def test_every_strategy_declares_sequential(self):
        for name, spec in STRATEGIES.items():
            assert spec.sequential is not None, name
            assert "sequential" in spec.modes, name

    def test_modes_are_ordered_and_known(self):
        for name, spec in STRATEGIES.items():
            assert set(spec.modes) <= set(MODES), name
            assert list(spec.modes) == [m for m in MODES if m in spec.modes]

    def test_expected_mode_support(self):
        assert STRATEGIES["greedy-ff"].modes == ("sequential", "superstep", "mp")
        assert STRATEGIES["vff"].modes == ("sequential", "superstep")
        assert STRATEGIES["kempe"].modes == ("sequential",)
        assert STRATEGIES["greedy-lu"].modes == ("sequential",)

    def test_implementation_rejects_unsupported_mode(self):
        with pytest.raises(ValueError, match="does not support mode"):
            STRATEGIES["kempe"].implementation("superstep")

    def test_implementation_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            STRATEGIES["vff"].implementation("quantum")


class TestRegistryParity:
    """The issue's sweep: every strategy × supported mode."""

    @pytest.mark.parametrize("name,mode", ALL_PAIRS)
    def test_proper_and_accounted(self, small_cnr, name, mode):
        spec = STRATEGIES[name]
        r = execute(small_cnr, RunConfig(name, mode=mode,
                                         threads=_threads_for(mode), seed=0))
        # (a) proper coloring
        assert_proper(small_cnr, r.coloring)
        # (b) C-conserving strategies conserve C
        if spec.same_color_count and spec.category == "guided":
            assert r.initial is not None
            assert r.coloring.num_colors == r.initial.num_colors
        # (c) balance stats match a direct recomputation
        assert r.balance == balance_report(r.coloring)
        # result plumbing
        assert isinstance(r, RunResult)
        assert r.wall_s["total"] >= r.wall_s["strategy"] >= 0
        if mode == "superstep":
            assert r.trace is not None
            assert r.trace.num_supersteps >= 1

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_sequential_bit_identical_to_color_and_balance(self, small_cnr, name):
        # (d) sequential execute == the legacy one-call front door
        r = execute(small_cnr, RunConfig(name, seed=0))
        legacy = color_and_balance(small_cnr, name, seed=0)
        np.testing.assert_array_equal(r.coloring.colors, legacy.colors)
        assert r.coloring.num_colors == legacy.num_colors

    def test_sequential_bit_identical_to_direct_calls(self, small_cnr):
        # (d) ... and == the concrete functions, initial included
        from repro.coloring import shuffle_balance

        init = greedy_coloring(small_cnr)
        direct = shuffle_balance(small_cnr, init, choice="lu", traversal="color")
        r = execute(small_cnr, RunConfig("clu"), initial=init)
        np.testing.assert_array_equal(r.coloring.colors, direct.colors)

    def test_superstep_bit_identical_to_direct_calls(self, small_cnr):
        from repro.parallel import parallel_shuffle_balance

        init = greedy_coloring(small_cnr)
        direct = parallel_shuffle_balance(small_cnr, init, num_threads=8)
        r = execute(small_cnr, RunConfig("vff", mode="superstep", threads=8),
                    initial=init)
        np.testing.assert_array_equal(r.coloring.colors, direct.colors)


class TestConfigValidation:
    def test_unknown_strategy(self, small_cnr):
        with pytest.raises(ValueError, match="unknown strategy"):
            execute(small_cnr, RunConfig("quantum"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            RunConfig("vff", mode="quantum")

    def test_sequential_rejects_threads(self):
        with pytest.raises(ValueError, match="sequential mode"):
            RunConfig("vff", threads=4)

    def test_threads_must_be_positive(self):
        with pytest.raises(ValueError, match="threads"):
            RunConfig("vff", mode="superstep", threads=0)

    def test_bad_weight(self):
        with pytest.raises(ValueError, match="weight"):
            RunConfig("vff", weight="mass")

    def test_unsupported_pair(self, small_cnr):
        with pytest.raises(ValueError, match="does not support mode 'mp'"):
            execute(small_cnr, RunConfig("vff", mode="mp", threads=2))

    def test_bad_backend(self, small_cnr):
        with pytest.raises(ValueError, match="backend"):
            execute(small_cnr, RunConfig("vff", backend="cuda"))

    def test_bad_machine(self, small_cnr):
        with pytest.raises(ValueError, match="unknown machine"):
            execute(small_cnr, RunConfig("vff", machine="cray"))

    def test_machine_core_limit(self, small_cnr):
        with pytest.raises(ValueError, match="cores"):
            execute(small_cnr, RunConfig("vff", mode="superstep", threads=64,
                                         machine="tilegx36"))

    def test_unknown_strategy_option(self, small_cnr):
        with pytest.raises(ValueError, match="'vff'.*unknown option"):
            execute(small_cnr, RunConfig("vff", strategy_kwargs={"bogus": 1}))

    def test_non_default_rounds_rejected_where_unsupported(self, small_cnr):
        with pytest.raises(ValueError, match="does not take rounds"):
            execute(small_cnr, RunConfig("vff", rounds=3))

    def test_ab_initio_rejects_initial(self, small_cnr):
        init = greedy_coloring(small_cnr)
        with pytest.raises(ValueError, match="ab initio"):
            execute(small_cnr, RunConfig("greedy-lu"), initial=init)

    def test_config_is_frozen(self):
        cfg = RunConfig("vff")
        with pytest.raises(AttributeError):
            cfg.threads = 8
        with pytest.raises(TypeError):
            cfg.strategy_kwargs["x"] = 1


class TestExecuteFeatures:
    def test_rounds_reaches_scheduled(self, small_cnr):
        r = execute(small_cnr, RunConfig("sched-rev", rounds=2))
        assert r.coloring.meta["rounds"] == 2

    def test_weight_reaches_shuffle(self, small_cnr):
        r = execute(small_cnr, RunConfig("vff", weight="degree"))
        assert r.coloring.meta["weight"] == "degree"

    def test_machine_time_priced_for_superstep(self, small_cnr):
        r = execute(small_cnr, RunConfig("vff", mode="superstep", threads=4,
                                         machine="tilegx36"))
        assert r.machine_time is not None
        assert r.machine_time.total_s > 0
        assert "model" in r.summary()

    def test_machine_model_instance_accepted(self, small_cnr):
        r = execute(small_cnr, RunConfig("vff", mode="superstep", threads=4,
                                         machine=tilegx36()))
        assert r.machine_time is not None

    def test_sequential_has_no_machine_time(self, small_cnr):
        r = execute(small_cnr, RunConfig("vff", machine="tilegx36"))
        assert r.trace is None and r.machine_time is None

    def test_precomputed_initial_is_used(self, small_cnr):
        init = greedy_coloring(small_cnr, ordering="smallest_last")
        r = execute(small_cnr, RunConfig("vff"), initial=init)
        assert r.initial is init
        assert r.coloring.num_colors == init.num_colors

    def test_ordering_reaches_initial(self, small_cnr):
        a = execute(small_cnr, RunConfig("vff", ordering="smallest_last"))
        assert a.initial.num_colors == greedy_coloring(
            small_cnr, ordering="smallest_last").num_colors

    def test_ordering_reaches_superstep_greedy_ff(self, small_cnr):
        r = execute(small_cnr, RunConfig("greedy-ff", mode="superstep",
                                         threads=4, ordering="random", seed=3))
        assert_proper(small_cnr, r.coloring)

    def test_backend_reaches_strategy(self, small_cnr):
        r = execute(small_cnr, RunConfig("vff", backend="vectorized"))
        assert r.coloring.meta["backend"] == "vectorized"

    def test_deterministic_for_fixed_seed(self, small_cnr):
        a = execute(small_cnr, RunConfig("kempe", seed=7))
        b = execute(small_cnr, RunConfig("kempe", seed=7))
        np.testing.assert_array_equal(a.coloring.colors, b.coloring.colors)

    def test_recorder_threads_through_both_phases(self, small_cnr):
        rec = Recorder()
        plain = execute(small_cnr, RunConfig("vff", mode="superstep", threads=4))
        traced = execute(small_cnr, RunConfig("vff", mode="superstep", threads=4),
                         recorder=rec)
        assert traced.recorder is rec
        np.testing.assert_array_equal(plain.coloring.colors, traced.coloring.colors)
        kinds = {e["kind"] for e in rec.events}
        assert "coloring" in kinds     # initial greedy-ff
        assert "superstep" in kinds    # the balancing trace

    @pytest.mark.parametrize("strategy", [
        name for name, mode in ALL_PAIRS
        # d2 rows run on the square cover, which rejects empty graphs
        if mode == "superstep" and not name.startswith("d2")])
    def test_superstep_on_empty_graph_returns_own_result(self, strategy):
        from repro.graph import empty_graph

        r = execute(empty_graph(0), RunConfig(strategy, mode="superstep",
                                              threads=4, machine="tilegx36"))
        assert r.coloring.strategy == f"{strategy}-parallel"
        assert r.coloring.num_colors == 0
        assert r.trace is r.coloring.meta["trace"]
        assert r.trace.total_work == 0
        assert r.machine_time is not None

    @pytest.mark.parametrize("strategy", [
        name for name, mode in ALL_PAIRS
        # the d2 sequential row is ab initio; d2-optimistic and d2-balanced
        # run on the square cover, which rejects empty graphs
        if mode == "sequential" and not name.startswith("d2")])
    def test_sequential_on_empty_graph_returns_own_result(self, strategy):
        from repro.graph import empty_graph

        r = execute(empty_graph(0), RunConfig(strategy))
        assert r.coloring.strategy == strategy
        assert r.coloring.num_colors == 0


class TestLegacyFrontDoors:
    """The registry wrappers must forward kwargs (PR-3 bugfix)."""

    def test_balance_coloring_forwards_backend(self, small_cnr):
        init = greedy_coloring(small_cnr)
        out = balance_coloring(small_cnr, init, "vff", backend="vectorized")
        assert_proper(small_cnr, out)
        assert out.meta["backend"] == "vectorized"
        assert out.num_colors == init.num_colors

    def test_balance_coloring_forwards_rounds(self, small_cnr):
        init = greedy_coloring(small_cnr)
        out = balance_coloring(small_cnr, init, "sched-rev", rounds=2)
        assert out.meta["rounds"] == 2

    def test_recoloring_no_longer_chokes_on_seed(self, small_cnr):
        init = greedy_coloring(small_cnr)
        out = balance_coloring(small_cnr, init, "recoloring", seed=5)
        assert_proper(small_cnr, out)

    def test_unknown_kwarg_names_the_strategy(self, small_cnr):
        init = greedy_coloring(small_cnr)
        with pytest.raises(ValueError, match=r"'vff'.*unknown option.*bogus"):
            balance_coloring(small_cnr, init, "vff", bogus=1)

    def test_color_and_balance_checks_kwargs_too(self, small_cnr):
        with pytest.raises(ValueError, match="'kempe'"):
            color_and_balance(small_cnr, "kempe", max_rounds=3)


class TestConfigDictRoundTrip:
    def test_default_config_round_trips(self):
        cfg = RunConfig("greedy-ff")
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_full_config_round_trips(self):
        cfg = RunConfig(
            "sched-fwd", mode="superstep", threads=8, machine="tilegx36",
            backend="vectorized", ordering="degree", seed=42, rounds=3,
            weight="degree", strategy_kwargs={"fill": "fwd"},
            on_failure="repair", fault_plan="corrupt@r0.w1;stall@r1.w0:0.5",
        )
        data = cfg.to_dict()
        restored = RunConfig.from_dict(data)
        assert restored == cfg
        assert dict(restored.strategy_kwargs) == {"fill": "fwd"}
        assert restored.fault_plan == cfg.fault_plan

    def test_to_dict_is_json_serializable(self):
        import json

        cfg = RunConfig("vff", mode="superstep", threads=4, seed=7,
                        fault_plan="stick@r1:3")
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_machine_instance_serializes_to_registry_name(self):
        cfg = RunConfig("vff", mode="superstep", threads=4, machine=tilegx36())
        assert cfg.to_dict()["machine"] == "tilegx36"

    def test_custom_machine_instance_rejected_by_name(self):
        import dataclasses

        custom = dataclasses.replace(tilegx36(), name="bespoke")
        cfg = RunConfig("vff", mode="superstep", threads=4, machine=custom)
        with pytest.raises(ValueError, match="bespoke"):
            cfg.to_dict()

    def test_non_json_seed_named(self):
        cfg = RunConfig("greedy-ff", seed=np.random.default_rng(0))
        with pytest.raises(ValueError, match="seed"):
            cfg.to_dict()

    def test_non_json_strategy_kwarg_named(self):
        cfg = RunConfig("greedy-ff",
                        strategy_kwargs={"ordering": np.arange(3)})
        with pytest.raises(ValueError, match=r"strategy_kwargs\['ordering'\]"):
            cfg.to_dict()

    def test_fault_plan_with_seed_round_trips(self):
        from repro.resilience import FaultPlan

        plan = FaultPlan.from_spec("corrupt@r0.w1", seed=99)
        cfg = RunConfig("greedy-ff", mode="mp", threads=2, fault_plan=plan)
        data = cfg.to_dict()
        assert data["fault_plan"] == {"spec": "corrupt@r0.w1", "seed": 99}
        assert RunConfig.from_dict(data).fault_plan == plan

    def test_from_dict_unknown_field_named(self):
        with pytest.raises(ValueError, match=r"\['bogus'\]"):
            RunConfig.from_dict({"strategy": "vff", "bogus": 1})

    def test_from_dict_requires_strategy(self):
        with pytest.raises(ValueError, match="'strategy'"):
            RunConfig.from_dict({"mode": "sequential"})

    def test_from_dict_needs_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            RunConfig.from_dict(["vff"])

    @pytest.mark.parametrize("field,value,match", [
        ("threads", "4", "'threads'"),
        ("threads", True, "'threads'"),
        ("rounds", 2.5, "'rounds'"),
        ("mode", 3, "'mode'"),
        ("machine", 7, "'machine'"),
        ("backend", 1, "'backend'"),
        ("strategy_kwargs", [1], "'strategy_kwargs'"),
        ("fault_plan", 5, "'fault_plan'"),
        ("fault_plan", {"spec": "corrupt@r0.w0", "extra": 1}, "'fault_plan'"),
        ("fault_plan", "garbage", "'fault_plan'"),
    ])
    def test_from_dict_bad_field_named(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            RunConfig.from_dict({"strategy": "vff", field: value})

    def test_partial_dict_uses_defaults(self):
        cfg = RunConfig.from_dict({"strategy": "vff", "seed": 3})
        assert cfg == RunConfig("vff", seed=3)


class TestSeedSplitting:
    def test_split_seed_none_stays_none(self):
        assert split_seed(None) == (None, None)

    def test_split_seed_deterministic(self):
        a1, b1 = split_seed(7)
        a2, b2 = split_seed(7)
        assert a1.integers(0, 2**31) == a2.integers(0, 2**31)
        assert b1.integers(0, 2**31) == b2.integers(0, 2**31)

    def test_split_seed_children_independent(self):
        a, b = split_seed(7)
        assert not np.array_equal(a.integers(0, 2**31, size=16),
                                  b.integers(0, 2**31, size=16))

    def test_initial_and_strategy_streams_decorrelated(self, small_cnr):
        # a random initial ordering and a seed-consuming strategy must not
        # observe the same stream: the initial under the root seed differs
        # from the initial under the split child only if splitting happened
        direct_root = greedy_coloring(small_cnr, choice="ff",
                                      ordering="random", seed=11)
        r = execute(small_cnr, RunConfig("kempe", ordering="random", seed=11))
        child = split_seed(11)[0]
        direct_child = greedy_coloring(small_cnr, choice="ff",
                                       ordering="random", seed=child)
        np.testing.assert_array_equal(r.initial.colors, direct_child.colors)
        assert not np.array_equal(direct_root.colors, direct_child.colors)
