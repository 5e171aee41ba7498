"""Bipartite optimistic distance-2 partial coloring subsystem.

Covers the BipartiteGraph view invariants, the D2 kernel dispatchers, the
three optimistic engines (sequential / superstep / mp) and their parity
and properness guarantees, the one-sided balance drain, and strategy /
serve reachability of the d2* registry rows.
"""

import numpy as np
import pytest

from repro import kernels
from repro.bipartite import (
    BipartiteGraph,
    PartialD2Coloring,
    assert_partial_d2_proper,
    balance_partial_d2,
    d2_shuffle_drain,
    is_partial_d2_proper,
    mp_partial_d2,
    optimistic_partial_d2,
    partial_d2_sequential,
)
from repro.coloring import color_and_balance
from repro.coloring.balance import relative_std_dev
from repro.coloring.distance2 import assert_distance2_proper, greedy_distance2
from repro.graph import (
    complete_graph,
    empty_graph,
    erdos_renyi_graph,
    from_edge_arrays,
    jacobian_band_pattern,
    load_dataset,
    random_sparse_pattern,
    star_graph,
)
from repro.graph.datasets import DATASETS
from repro.kernels.reference import pick_shuffle_target
from repro.obs import Recorder, as_recorder
from repro.parallel.mp import Neighbourhood, run_rounds
from repro.run import execute
from repro.run.config import RunConfig


MODES_ALL = ("sequential", "superstep", "mp")


def random_pattern(nr, nc, nnz, seed):
    rng = np.random.default_rng(seed)
    return BipartiteGraph.from_matrix_pattern(
        rng.integers(0, nr, nnz), rng.integers(0, nc, nnz),
        num_rows=nr, num_cols=nc)


# ----------------------------------------------------------------------
# BipartiteGraph view
# ----------------------------------------------------------------------
class TestBipartiteGraph:
    def test_from_matrix_pattern_shape(self):
        bip = BipartiteGraph.from_matrix_pattern([0, 1, 2], [0, 0, 1])
        assert bip.num_rows == 3 and bip.num_cols == 2
        assert bip.num_nonzeros == 3
        assert bip.cols_of_row(0).tolist() == [0]
        assert bip.rows_of_col(0).tolist() == [0, 1]

    def test_duplicates_collapse(self):
        bip = BipartiteGraph.from_matrix_pattern([0, 0, 1], [1, 1, 0],
                                                 num_rows=2, num_cols=2)
        assert bip.num_nonzeros == 2

    def test_index_validation(self):
        with pytest.raises(ValueError, match="exceeds"):
            BipartiteGraph.from_matrix_pattern([0, 5], [0, 0], num_rows=2)
        with pytest.raises(ValueError, match="non-negative"):
            BipartiteGraph.from_matrix_pattern([-1], [0])
        with pytest.raises(ValueError, match="length"):
            BipartiteGraph.from_matrix_pattern([0, 1], [0])

    def test_rejects_non_bipartite_incidence(self):
        g = erdos_renyi_graph(20, 0.3, seed=0)
        with pytest.raises(ValueError, match="not bipartite"):
            BipartiteGraph.from_incidence(g, 10)

    def test_d2_neighbors_match_bruteforce(self):
        bip = random_pattern(40, 12, 160, seed=3)
        # brute force: two rows are D2 neighbors iff they share a column
        col_sets = [set(bip.cols_of_row(r).tolist()) for r in range(40)]
        for r, nbrs in bip.iter_d2_neighborhoods():
            expected = {s for s in range(40)
                        if s != r and col_sets[r] & col_sets[s]}
            assert set(nbrs.tolist()) == expected

    def test_d2_degree_counts_two_hop_slots(self):
        bip = random_pattern(30, 8, 90, seed=4)
        for r in range(30):
            cols = bip.cols_of_row(r)
            assert bip.d2_degree(r) == int(
                sum(bip.rows_of_col(int(c)).shape[0] for c in cols))

    def test_square_cover_encodes_distance2(self):
        g = erdos_renyi_graph(50, 0.08, seed=1)
        cover = BipartiteGraph.square_cover(g)
        assert cover.num_rows == cover.num_cols == 50
        for r in range(50):
            expected = set(g.neighbors(r).tolist()) | {
                int(w) for v in g.neighbors(r) for w in g.neighbors(int(v))}
            expected.discard(r)
            assert set(cover.d2_neighbors(r).tolist()) == expected


    @pytest.mark.parametrize("make", [
        lambda: empty_graph(1),
        lambda: empty_graph(6),
        lambda: star_graph(20),
        lambda: complete_graph(9),
        lambda: erdos_renyi_graph(200, 0.05, seed=4),
        *(lambda name=name: load_dataset(name, scale=0.05, seed=1) for name in DATASETS),
    ])
    def test_square_cover_matches_the_edge_list_build(self, make):
        """The scatter build gives the arrays of the edge-list assembly it
        replaced: both edge directions plus the diagonal, through
        from_edge_arrays."""
        g = make()
        n = g.num_vertices
        src, dst = g.edge_arrays()
        ident = np.arange(n, dtype=np.int64)
        want = from_edge_arrays(np.concatenate([src, dst, ident]),
                                np.concatenate([dst + n, src + n, ident + n]),
                                num_vertices=2 * n)
        cover = BipartiteGraph.square_cover(g)
        assert cover.num_rows == n
        assert cover.incidence.fingerprint() == want.fingerprint()

    def test_square_cover_rejects_an_empty_graph(self):
        with pytest.raises(ValueError, match="non-empty"):
            BipartiteGraph.square_cover(empty_graph(0))


# ----------------------------------------------------------------------
# PartialD2Coloring invariants and verifiers
# ----------------------------------------------------------------------
class TestPartialColoring:
    def test_uncolored_rows_are_legal(self):
        pc = PartialD2Coloring(np.array([0, -1, 1]), 2)
        assert pc.num_colored == 2 and pc.num_rows == 3
        assert pc.class_sizes().tolist() == [1, 1]

    def test_out_of_range_colors_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            PartialD2Coloring(np.array([0, 2]), 2)
        with pytest.raises(ValueError, match=">= -1"):
            PartialD2Coloring(np.array([-2]), 1)

    def test_partial_properness_ignores_uncolored(self):
        bip = BipartiteGraph.from_matrix_pattern([0, 1, 2], [0, 0, 0])
        assert is_partial_d2_proper(bip, np.array([0, -1, 1]))
        assert not is_partial_d2_proper(bip, np.array([0, -1, 0]))

    def test_require_total_flags_uncolored(self):
        bip = BipartiteGraph.from_matrix_pattern([0, 1], [0, 1])
        assert_partial_d2_proper(bip, np.array([0, -1]))
        with pytest.raises(AssertionError, match="uncolored"):
            assert_partial_d2_proper(bip, np.array([0, -1]),
                                     require_total=True)

    def test_assert_names_violating_column(self):
        bip = BipartiteGraph.from_matrix_pattern([0, 1, 0, 1], [0, 0, 1, 1])
        with pytest.raises(AssertionError, match="column 0"):
            assert_partial_d2_proper(bip, np.array([3, 3]))


# ----------------------------------------------------------------------
# D2 kernels: reference/vectorized parity
# ----------------------------------------------------------------------
class TestD2Kernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_backend_parity(self, seed):
        bip = random_pattern(120, 30, 500, seed=seed)
        rng = np.random.default_rng(seed + 100)
        work = rng.permutation(120).astype(np.int64)[:80]
        base = np.full(120, -1, dtype=np.int64)
        base[rng.integers(0, 120, 40)] = rng.integers(0, 10, 40)
        with kernels.use_backend("reference"):
            ref = kernels.d2_sweep(bip.incidence, 120, work, base)
        assert np.array_equal(ref, kernels.d2_sweep(bip.incidence, 120, work, base))

    @pytest.mark.parametrize("seed", range(4))
    def test_conflicts_backend_parity(self, seed):
        bip = random_pattern(120, 30, 500, seed=seed)
        rng = np.random.default_rng(seed + 200)
        colors = rng.integers(-1, 8, 120).astype(np.int64)
        work = np.unique(rng.integers(0, 120, 60)).astype(np.int64)
        with kernels.use_backend("reference"):
            ref = kernels.d2_conflicts(bip.incidence, 120, colors, work)
        assert np.array_equal(ref, kernels.d2_conflicts(bip.incidence, 120, colors, work))

    def test_sweep_defaults_color_all_rows(self):
        bip = random_pattern(60, 15, 200, seed=7)
        colors = kernels.d2_sweep(bip.incidence, 60)
        assert colors.shape == (60,) and colors.min() >= 0
        assert is_partial_d2_proper(bip, colors)

    def test_num_rows_validated(self):
        bip = random_pattern(10, 5, 30, seed=0)
        with pytest.raises(ValueError, match="num_rows"):
            kernels.d2_sweep(bip.incidence, 0)
        with pytest.raises(ValueError, match="num_rows"):
            kernels.d2_conflicts(bip.incidence, 99,
                                 np.zeros(10, dtype=np.int64))


# ----------------------------------------------------------------------
# optimistic engines
# ----------------------------------------------------------------------
class TestOptimistic:
    def test_sequential_is_total_and_proper(self):
        bip = random_pattern(250, 50, 1200, seed=2)
        pc = partial_d2_sequential(bip)
        assert_partial_d2_proper(bip, pc, require_total=True)
        assert pc.num_colors == int(pc.colors.max()) + 1

    def test_sequential_matches_greedy_distance2_on_cover(self):
        g = erdos_renyi_graph(150, 0.05, seed=5)
        cover = BipartiteGraph.square_cover(g)
        pc = partial_d2_sequential(cover)
        ref = greedy_distance2(g, choice="ff", ordering="natural")
        assert np.array_equal(pc.colors, ref.colors)

    def test_one_thread_superstep_equals_sequential(self):
        bip = random_pattern(200, 40, 900, seed=6)
        seq = partial_d2_sequential(bip)
        one = optimistic_partial_d2(bip, num_threads=1)
        assert np.array_equal(one.colors, seq.colors)
        assert one.meta["rounds"] == 1 and one.meta["conflicts"] == 0

    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_multithread_is_total_and_proper(self, threads):
        bip = random_pattern(300, 50, 1500, seed=8)
        pc = optimistic_partial_d2(bip, num_threads=threads)
        assert_partial_d2_proper(bip, pc, require_total=True)
        assert pc.meta["trace"] is not None
        assert pc.meta["supersteps"] >= 1

    def test_conflicts_grow_with_threads(self):
        bip = random_pattern(300, 30, 1800, seed=9)
        c2 = optimistic_partial_d2(bip, num_threads=2).meta["conflicts"]
        c16 = optimistic_partial_d2(bip, num_threads=16).meta["conflicts"]
        assert c16 >= c2

    def test_recorder_off_bit_parity(self):
        bip = random_pattern(150, 30, 700, seed=10)
        rec = Recorder()
        with_rec = optimistic_partial_d2(bip, num_threads=4, recorder=rec)
        no_rec = optimistic_partial_d2(bip, num_threads=4)
        assert np.array_equal(with_rec.colors, no_rec.colors)
        kinds = {e["kind"] for e in rec.events}
        assert {"superstep", "trace_summary", "partial_coloring"} <= kinds

    def test_stick_fault_trips_watchdog(self):
        bip = random_pattern(120, 25, 500, seed=11)
        pc = optimistic_partial_d2(bip, num_threads=4,
                                   fault_plan="stick@r0:10",
                                   watchdog_patience=3)
        assert_partial_d2_proper(bip, pc, require_total=True)
        assert pc.meta["watchdog_round"] >= 1

    def test_explicit_order_permutation_validated(self):
        bip = random_pattern(20, 5, 60, seed=12)
        with pytest.raises(ValueError, match="permutation"):
            partial_d2_sequential(bip, order=np.zeros(20, dtype=np.int64))

    def test_greedy_distance2_recorder_off_parity(self):
        g = erdos_renyi_graph(100, 0.06, seed=13)
        rec = Recorder()
        with_rec = greedy_distance2(g, choice="lu", recorder=rec)
        no_rec = greedy_distance2(g, choice="lu")
        assert np.array_equal(with_rec.colors, no_rec.colors)
        assert any(e["kind"] == "coloring" for e in rec.events)


# ----------------------------------------------------------------------
# mp engine
# ----------------------------------------------------------------------
class TestMpPartialD2:
    def test_one_worker_equals_sequential(self):
        bip = random_pattern(150, 30, 700, seed=14)
        seq = partial_d2_sequential(bip)
        one = mp_partial_d2(bip, num_workers=1)
        assert np.array_equal(one.colors, seq.colors)

    def test_workers_total_proper_and_replay_parity(self):
        bip = random_pattern(250, 50, 1400, seed=15)
        pc = mp_partial_d2(bip, num_workers=3)
        assert_partial_d2_proper(bip, pc, require_total=True)
        colors, meta = run_rounds(Neighbourhood("d2", bip.incidence, bip.num_rows),
                                  3, transport="inline")
        assert np.array_equal(colors, pc.colors)
        assert meta["rounds"] == pc.meta["rounds"]


# ----------------------------------------------------------------------
# one-sided balance drain
# ----------------------------------------------------------------------
def _oracle_two_hop_colors(indptr, indices, colors, r: int) -> np.ndarray:
    """Colors held by rows sharing a column with *r* (stale self included;
    the caller masks *r* out by blanking its color around the scan)."""
    cols = indices[indptr[r] : indptr[r + 1]]
    if cols.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    parts = [colors[indices[indptr[c] : indptr[c + 1]]] for c in cols]
    return np.concatenate(parts)


def oracle_d2_shuffle_drain(bip, colors, sizes, g, *, choice="ff",
                            recorder=None):
    """The per-candidate drain: one slice per column per visit, kept as
    the move-for-move reference for :func:`d2_shuffle_drain`."""
    rec = as_recorder(recorder)
    indptr, indices = bip.incidence.indptr, bip.incidence.indices
    total_moves = 0
    rounds = 0
    while True:
        rounds += 1
        overfull = np.nonzero(sizes > g)[0]
        if overfull.shape[0] == 0:
            break
        candidates = np.nonzero(np.isin(colors, overfull))[0]
        round_moves = 0
        for r in candidates:
            r = int(r)
            j = int(colors[r])
            if sizes[j] <= g:  # class reached balance; stop draining it
                continue
            colors[r] = -1  # self-exclusion for the two-hop scan
            nbr_colors = _oracle_two_hop_colors(indptr, indices, colors, r)
            # the size rule: a move must lower Σ sizes², so a class t with
            # sizes[t] + 1 >= sizes[j] is as blocked as a two-hop color
            too_big = np.nonzero(sizes >= sizes[j] - 1.0)[0]
            k = pick_shuffle_target(np.concatenate([nbr_colors, too_big]),
                                    sizes, g, j, choice)
            colors[r] = j
            if k >= 0:
                colors[r] = k
                sizes[j] -= 1.0
                sizes[k] += 1.0
                round_moves += 1
        total_moves += round_moves
        if rec.enabled:
            mean = sizes.mean() if sizes.size else 0.0
            rsd = float(100.0 * sizes.std() / mean) if mean else 0.0
            rec.event("drain_round", source_bin=-1, moves=int(round_moves),
                      rsd_percent=rsd)
        if round_moves == 0:
            break
    return total_moves, rounds


def _drain_inputs(bip, holes):
    colors = partial_d2_sequential(bip).colors.copy()
    C = int(colors.max()) + 1
    if holes:
        colors[::5] = -1
    g = float((colors >= 0).sum()) / C
    sizes = np.bincount(colors[colors >= 0], minlength=C).astype(np.float64)
    return colors, sizes, g


DRAIN_PATTERNS = {
    "band": lambda: BipartiteGraph.from_incidence(
        jacobian_band_pattern(400, 60, 5, seed=0), 400),
    "random": lambda: BipartiteGraph.from_incidence(
        random_sparse_pattern(350, 70, 5, seed=1), 350),
    "cover": lambda: BipartiteGraph.square_cover(
        erdos_renyi_graph(300, 0.03, seed=2)),
}


class TestBalance:
    def test_drain_improves_rsd_without_new_colors(self):
        bip = random_pattern(600, 120, 3000, seed=18)
        base = partial_d2_sequential(bip)
        bal = balance_partial_d2(bip, base)
        assert_partial_d2_proper(bip, bal, require_total=True)
        assert bal.num_colors == base.num_colors
        assert bal.num_colored == base.num_colored
        assert (relative_std_dev(bal.class_sizes())
                < relative_std_dev(base.class_sizes()))

    def test_drain_on_generated_patterns(self):
        for g, nr in ((jacobian_band_pattern(800, 80, 5, seed=0), 800),
                      (random_sparse_pattern(700, 90, 5, seed=1), 700)):
            bip = BipartiteGraph.from_incidence(g, nr)
            base = partial_d2_sequential(bip)
            bal = balance_partial_d2(bip, base)
            assert_partial_d2_proper(bip, bal, require_total=True)
            assert bal.num_colors == base.num_colors
            assert (relative_std_dev(bal.class_sizes())
                    <= relative_std_dev(base.class_sizes()))

    def test_drain_preserves_uncolored_rows(self):
        bip = random_pattern(100, 20, 400, seed=19)
        colors = partial_d2_sequential(bip).colors.copy()
        colors[::3] = -1
        pc = PartialD2Coloring(colors, int(colors.max()) + 1)
        bal = balance_partial_d2(bip, pc)
        assert np.array_equal(bal.colors < 0, colors < 0)
        assert_partial_d2_proper(bip, bal)

    @pytest.mark.parametrize("holes", [False, True])
    @pytest.mark.parametrize("choice", ["ff", "lu"])
    @pytest.mark.parametrize("pattern", sorted(DRAIN_PATTERNS))
    def test_drain_matches_per_candidate_oracle(self, pattern, choice, holes):
        bip = DRAIN_PATTERNS[pattern]()
        colors, sizes, g = _drain_inputs(bip, holes)
        want_c, want_s = colors.copy(), sizes.copy()
        want_rec, got_rec = Recorder(), Recorder()
        want = oracle_d2_shuffle_drain(bip, want_c, want_s, g, choice=choice,
                                       recorder=want_rec)
        got = d2_shuffle_drain(bip, colors, sizes, g, choice=choice,
                               recorder=got_rec)
        assert want[0] > 0
        assert got == want
        assert np.array_equal(colors, want_c)
        assert np.array_equal(sizes, want_s)
        assert ([(e["moves"], e["rsd_percent"]) for e in got_rec.events]
                == [(e["moves"], e["rsd_percent"]) for e in want_rec.events])

    @pytest.mark.parametrize("holes", [False, True])
    @pytest.mark.parametrize("choice", ["ff", "lu"])
    @pytest.mark.parametrize("pattern", sorted(DRAIN_PATTERNS))
    def test_drain_ends_on_a_zero_move_pass(self, pattern, choice, holes):
        """With no round cap, every drain stops on a pass that moved nothing."""
        bip = DRAIN_PATTERNS[pattern]()
        colors, sizes, g = _drain_inputs(bip, holes)
        rec = Recorder()
        moves, rounds = d2_shuffle_drain(bip, colors, sizes, g, choice=choice,
                                         recorder=rec)
        per_pass = [e["moves"] for e in rec.events_of("drain_round")]
        assert len(per_pass) == rounds and sum(per_pass) == moves
        assert per_pass[-1] == 0

    def test_recorder_off_bit_parity(self):
        bip = random_pattern(200, 40, 900, seed=20)
        base = partial_d2_sequential(bip)
        rec = Recorder()
        with_rec = balance_partial_d2(bip, base, recorder=rec)
        no_rec = balance_partial_d2(bip, base)
        assert np.array_equal(with_rec.colors, no_rec.colors)
        assert any(e["kind"] == "drain_round" for e in rec.events)
        assert any(e["kind"] == "balance" for e in rec.events)


# ----------------------------------------------------------------------
# registry / execute / serve reachability
# ----------------------------------------------------------------------
class TestStrategyRows:
    def test_registry_rows_and_modes(self):
        from repro.coloring.strategies import STRATEGIES

        assert STRATEGIES["d2"].modes == ("sequential",)
        assert STRATEGIES["d2-optimistic"].modes == MODES_ALL
        assert STRATEGIES["d2-balanced"].modes == MODES_ALL

    def test_execute_all_modes_d2_proper(self):
        g = erdos_renyi_graph(200, 0.04, seed=21)
        for strat in ("d2-optimistic", "d2-balanced"):
            for mode, threads in (("sequential", 1), ("superstep", 4),
                                  ("mp", 2)):
                r = execute(g, RunConfig(strategy=strat, mode=mode,
                                         threads=threads, seed=0))
                assert_distance2_proper(g, r.coloring)
                if mode == "superstep":
                    assert r.trace is not None
                    assert r.trace.summary()["supersteps"] >= 1

    def test_execute_d2_sequential_matches_greedy_distance2(self):
        g = erdos_renyi_graph(150, 0.05, seed=22)
        r = execute(g, RunConfig(strategy="d2", seed=0))
        ref = greedy_distance2(g, choice="ff", ordering="natural")
        assert np.array_equal(r.coloring.colors, ref.colors)
        r2 = execute(g, RunConfig(strategy="d2-optimistic", seed=0))
        assert np.array_equal(r2.coloring.colors, ref.colors)

    def test_balanced_improves_rsd_over_optimistic(self):
        for name in ("jacband", "jacrand"):
            g = load_dataset(name, scale=0.03, seed=0)
            plain = execute(g, RunConfig(strategy="d2-optimistic",
                                         mode="superstep", threads=4, seed=0))
            bal = execute(g, RunConfig(strategy="d2-balanced",
                                       mode="superstep", threads=4, seed=0))
            assert bal.coloring.num_colors == plain.coloring.num_colors
            assert bal.balance.rsd_percent < plain.balance.rsd_percent

    def test_color_and_balance_front_door(self):
        g = erdos_renyi_graph(120, 0.06, seed=23)
        for strat in ("d2", "d2-optimistic", "d2-balanced"):
            c = color_and_balance(g, strat)
            assert_distance2_proper(g, c)
        lu = color_and_balance(g, "d2", choice="lu")
        assert_distance2_proper(g, lu)

    def test_serve_round_trip_on_bipartite_dataset(self):
        from repro.serve import ColoringService
        from repro.serve.api import dispatch

        svc = ColoringService()
        status, reply = dispatch(svc, "POST", "/submit", {
            "input": "jacband", "scale": 0.02, "seed": 0,
            "config": {"strategy": "d2-balanced", "mode": "superstep",
                       "threads": 4, "seed": 0}})
        assert status == 202
        svc.process()
        status, result = dispatch(svc, "GET", f"/result/{reply['job_id']}")
        assert status == 200 and result["status"] == "done"
        assert result["strategy"] == "d2-balanced"
        assert result["num_colors"] >= 1

    def test_dataset_rows_are_bipartite_incidence(self):
        for name in ("jacband", "jacrand"):
            g = load_dataset(name, scale=0.02, seed=0)
            # rows-first layout: every row's neighbors are columns (ids
            # above its own), every column's neighbors are rows (below its
            # own) — so the boundary is the first vertex whose smallest
            # neighbor precedes it
            nr = next(v for v in range(g.num_vertices)
                      if g.indptr[v + 1] > g.indptr[v]
                      and g.indices[g.indptr[v]] < v)
            bip = BipartiteGraph.from_incidence(g, nr)
            assert bip.num_rows > bip.num_cols
