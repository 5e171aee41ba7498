"""Dynamic-graph subsystem: deltas, immutability, incremental recoloring.

Covers the mutation batch API (canonicalization, validation, digests,
CLI spec parsing), the CSRGraph immutability guarantees the serving
layer's cached fingerprints rely on, and the ``incremental`` strategy:
bit-parity with a full re-color of the carried-forward coloring,
1-thread superstep parity, and the run-layer wiring (the CLI's
``--mutate`` runs in ``tests/test_cli_runs.py``).
"""

import numpy as np
import pytest

from repro.coloring import (
    balanced_recoloring,
    carry_forward,
    greedy_coloring,
    incremental_recolor,
    is_proper,
)
from repro.graph import (
    CSRGraph,
    MutationBatch,
    apply_delta,
    erdos_renyi_graph,
    parse_mutation_spec,
    path_graph,
    random_churn,
)
from repro.parallel import parallel_incremental_recolor
from repro.run import RunConfig, execute, mutation_config


@pytest.fixture
def graph():
    return erdos_renyi_graph(400, 0.02, seed=11)


@pytest.fixture
def base(graph):
    return greedy_coloring(graph)


# ----------------------------------------------------------------------
# MutationBatch: canonicalization and validation
# ----------------------------------------------------------------------
class TestMutationBatch:
    def test_canonicalizes_orientation_order_and_dupes(self):
        a = MutationBatch.from_edges(add=[(5, 2), (2, 5), (1, 3)])
        b = MutationBatch.from_edges(add=[(1, 3), (2, 5)])
        assert np.array_equal(a.add_u, b.add_u)
        assert np.array_equal(a.add_v, b.add_v)
        assert a.digest() == b.digest()

    def test_digest_distinguishes_add_from_remove(self):
        a = MutationBatch.from_edges(add=[(1, 2)])
        r = MutationBatch.from_edges(remove=[(1, 2)])
        v = MutationBatch.from_edges(add_vertices=1)
        assert len({a.digest(), r.digest(), v.digest()}) == 3

    def test_rejects_self_loop_and_overlap(self):
        with pytest.raises(ValueError, match="self-loop"):
            MutationBatch.from_edges(add=[(3, 3)])
        with pytest.raises(ValueError, match="both add and remove"):
            MutationBatch.from_edges(add=[(1, 2)], remove=[(2, 1)])

    def test_dict_roundtrip_preserves_digest(self):
        batch = MutationBatch.from_edges(add=[(0, 9)], remove=[(4, 6)],
                                         add_vertices=2)
        clone = MutationBatch.from_dict(batch.to_dict())
        assert clone.digest() == batch.digest()
        assert clone.add_vertices == 2

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown delta field"):
            MutationBatch.from_dict({"edges": [[1, 2]]})


# ----------------------------------------------------------------------
# apply_delta: compaction, dirty set, strict validation
# ----------------------------------------------------------------------
class TestApplyDelta:
    def test_add_remove_and_append(self, graph):
        u, v = graph.edge_arrays()
        batch = MutationBatch.from_edges(
            add=[(graph.num_vertices, graph.num_vertices + 1)],
            remove=[(int(u[0]), int(v[0]))], add_vertices=2)
        mutated, dirty = apply_delta(graph, batch)
        mutated.check()
        assert mutated.num_vertices == graph.num_vertices + 2
        assert mutated.num_edges == graph.num_edges  # -1 removed, +1 added
        assert not mutated.has_edge(int(u[0]), int(v[0]))
        assert mutated.has_edge(graph.num_vertices, graph.num_vertices + 1)
        expected_dirty = {int(u[0]), int(v[0]), graph.num_vertices,
                          graph.num_vertices + 1}
        assert expected_dirty == set(dirty.tolist())

    def test_rejects_removing_missing_edge(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="not in graph"):
            apply_delta(g, MutationBatch.from_edges(remove=[(0, 4)]))

    def test_rejects_adding_existing_edge(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="already in graph"):
            apply_delta(g, MutationBatch.from_edges(add=[(0, 1)]))

    def test_rejects_out_of_range_endpoints(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="out of range"):
            apply_delta(g, MutationBatch.from_edges(add=[(0, 7)]))
        # removed edges may not reach appended vertices
        with pytest.raises(ValueError, match="out of range"):
            apply_delta(g, MutationBatch.from_edges(remove=[(0, 5)],
                                                    add_vertices=1))

    def test_random_churn_preserves_density(self, graph):
        batch = random_churn(graph, 0.02, seed=3)
        mutated, dirty = apply_delta(graph, batch)
        assert mutated.num_edges == graph.num_edges
        assert batch.add_u.size == batch.remove_u.size > 0
        assert dirty.size > 0

    def test_churn_deterministic_for_seed(self, graph):
        assert (random_churn(graph, 0.01, seed=5).digest()
                == random_churn(graph, 0.01, seed=5).digest())
        assert (random_churn(graph, 0.01, seed=5).digest()
                != random_churn(graph, 0.01, seed=6).digest())


# ----------------------------------------------------------------------
# CSRGraph immutability (satellite bugfix): the overlay must never
# mutate the base, and cached identity must never go stale
# ----------------------------------------------------------------------
class TestImmutability:
    def test_csr_arrays_are_frozen(self, graph):
        with pytest.raises(ValueError):
            graph.indices[0] = 99
        with pytest.raises(ValueError):
            graph.indptr[0] = 1

    def test_frozen_views_do_not_freeze_caller_arrays(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        CSRGraph(indptr, indices)
        indptr[0] = 0  # caller's own array must stay writeable
        assert indptr.flags.writeable

    def test_delta_derived_graph_gets_fresh_fingerprint(self, graph):
        fp_before = graph.fingerprint()
        mutated, _ = graph.add_vertices(1)
        assert graph.fingerprint() == fp_before  # base cached fp still valid
        assert mutated.fingerprint() != fp_before
        back = np.array_equal(graph.indptr,
                              mutated.indptr[:graph.num_vertices + 1])
        assert back  # base arrays untouched by the overlay

    def test_mutation_methods_leave_base_equal_to_twin(self, graph):
        twin = erdos_renyi_graph(400, 0.02, seed=11)
        u, v = graph.edge_arrays()
        graph.remove_edges([int(u[0])], [int(v[0])])
        graph.add_vertices(3)
        assert graph == twin and hash(graph) == hash(twin)

    def test_pickle_roundtrip_stays_frozen(self, graph):
        import pickle

        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        with pytest.raises(ValueError):
            clone.indices[0] = 99


# ----------------------------------------------------------------------
# incremental recoloring: parity, budget accounting, superstep modes
# ----------------------------------------------------------------------
class TestIncrementalRecolor:
    def test_unbounded_budget_is_bit_identical_to_full_recolor(self, graph, base):
        """The full re-color, once the unbounded staleness budget, is now
        the only path: sequential ``incremental`` is exactly Recoloring of
        the carried-forward coloring."""
        batch = random_churn(graph, 0.01, seed=2, add_vertices=2)
        mutated, _ = apply_delta(graph, batch)
        inc = incremental_recolor(mutated, base)
        full = balanced_recoloring(mutated, carry_forward(mutated, base))
        assert np.array_equal(inc.colors, full.colors)
        assert inc.num_colors == full.num_colors
        assert inc.strategy == "incremental"
        assert inc.meta["seeded"] == 2 and "dirty" not in inc.meta
        assert is_proper(mutated, inc)

    def test_dense_churn_ends_proper(self):
        # a 10% churn leaves many conflicts in the carried-forward coloring
        g = erdos_renyi_graph(200, 0.05, seed=1)
        base = greedy_coloring(g)
        mutated, _ = apply_delta(g, random_churn(g, 0.10, seed=4))
        assert not is_proper(mutated, carry_forward(mutated, base))
        assert is_proper(mutated, incremental_recolor(mutated, base))
        assert is_proper(mutated, parallel_incremental_recolor(
            mutated, base, num_threads=8))

    def test_carry_forward_seeds_new_vertices(self, graph, base):
        mutated, _ = graph.add_vertices(3)
        carried = carry_forward(mutated, base)
        assert np.array_equal(carried.colors[:graph.num_vertices], base.colors)
        assert carried.meta["seeded_vertices"] == 3
        assert is_proper(mutated, carried)  # no added edges => stays proper

    def test_reference_backend_runs_every_kernel(self, graph, base, monkeypatch):
        """A ``reference`` scope reaches the seed sweep and the capacity
        sweep: with C forced to fail, the result still matches."""
        from repro.kernels import compiled, use_backend

        def no_c():
            raise AssertionError("C kernel ran under the reference tier")

        mutated, _ = apply_delta(
            graph, random_churn(graph, 0.02, seed=5, add_vertices=3))
        want = incremental_recolor(mutated, base)
        monkeypatch.setattr(compiled, "load", no_c)
        with use_backend("reference"):
            got = incremental_recolor(mutated, base)
        assert np.array_equal(got.colors, want.colors)
        assert got.meta["backend"] == "reference"

    def test_edge_removal_only_never_conflicts(self, graph, base):
        u, v = graph.edge_arrays()
        batch = MutationBatch.from_edges(remove=[(int(u[i]), int(v[i]))
                                                 for i in range(5)])
        mutated, _ = apply_delta(graph, batch)
        assert is_proper(mutated, carry_forward(mutated, base))
        assert is_proper(mutated, incremental_recolor(mutated, base))

    def test_invalid_budget_rejected(self, graph, base):
        """The staleness budget and the dirty set are gone: every entry
        point rejects them."""
        for option in ("staleness_budget", "dirty"):
            config = RunConfig("incremental", strategy_kwargs={option: [0]})
            with pytest.raises(ValueError, match=option):
                execute(graph, config, initial=base)
        with pytest.raises(TypeError, match="dirty"):
            incremental_recolor(graph, base, dirty=[0])
        mutated, _ = apply_delta(graph, MutationBatch.from_edges(add_vertices=1))
        with pytest.raises(TypeError, match="staleness_budget"):
            execute(mutated, mutation_config(staleness_budget=0.05),
                    initial=base)

    def test_superstep_one_thread_matches_sequential(self, graph, base):
        batch = random_churn(graph, 0.02, seed=8, add_vertices=1)
        mutated, _ = apply_delta(graph, batch)
        seq = incremental_recolor(mutated, base)
        par = parallel_incremental_recolor(mutated, base, num_threads=1)
        assert np.array_equal(seq.colors, par.colors)

    def test_superstep_many_threads_proper_with_trace(self, graph, base):
        batch = random_churn(graph, 0.02, seed=8)
        mutated, _ = apply_delta(graph, batch)
        par = parallel_incremental_recolor(mutated, base, num_threads=8)
        assert is_proper(mutated, par)
        assert par.meta["trace"].supersteps  # speculation actually ran


# ----------------------------------------------------------------------
# run layer and CLI wiring
# ----------------------------------------------------------------------
class TestRunLayer:
    def test_mutate_returns_full_run_result(self, graph):
        base = execute(graph, RunConfig("vff", seed=0))
        batch = random_churn(graph, 0.01, seed=1)
        mutated, _ = apply_delta(graph, batch)
        result = execute(mutated, mutation_config(), initial=base.coloring)
        assert result.config.strategy == "incremental"
        assert is_proper(mutated, result.coloring)
        assert result.balance.rsd_percent >= 0.0

    def test_mutation_config_is_json_roundtrippable(self):
        cfg = mutation_config(mode="superstep", threads=4)
        clone = RunConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert (clone.strategy, clone.threads, clone.strategy_kwargs) == (
            "incremental", 4, {})

    def test_incremental_in_registry_both_modes(self, graph):
        from repro.coloring import STRATEGIES

        spec = STRATEGIES["incremental"]
        assert spec.category == "guided"
        assert set(spec.modes) == {"sequential", "superstep"}

    def test_parse_mutation_spec_explicit_and_churn(self, graph):
        batch = parse_mutation_spec("remove=; vertices=2", graph)
        assert batch.add_vertices == 2 and batch.is_empty is False
        churn = parse_mutation_spec("churn=0.01", graph, seed=0)
        assert churn.remove_u.size > 0
        with pytest.raises(ValueError, match="cannot be combined"):
            parse_mutation_spec("churn=0.01;vertices=1", graph)
        with pytest.raises(ValueError, match="unknown mutation clause"):
            parse_mutation_spec("drop=1-2", graph)
