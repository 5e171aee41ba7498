"""Backend equivalence and dispatch tests for the kernel layer.

The dispatched First-Fit sweep, :func:`repro.kernels.ff_sweep`, must be
*bit-identical* to the oracle :func:`repro.kernels.reference.ff_sweep`
under every backend (any work list, any base snapshot), and
:func:`repro.coloring.shuffle_balance` must give the same colors, moves
and ``drain_round`` events under every backend for every shuffle variant
(the drain's own properties are checked on its row of
``tests/test_compiled.py``).
The tier selection (argument > ``use_backend`` scope > environment >
default) is tested separately from the kernels themselves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.coloring import (
    balanced_recoloring,
    greedy_coloring,
    is_proper,
    iterated_greedy,
    shuffle_balance,
)
from repro.graph import (
    complete_graph,
    empty_graph,
    erdos_renyi_graph,
    from_edge_arrays,
    path_graph,
    rmat_graph,
    star_graph,
)
from repro.kernels import reference
from repro.obs import Recorder
from repro.parallel import parallel_greedy_ff
from repro.parallel.mp import mp_greedy_ff

MAX_N = 40


@st.composite
def graphs(draw):
    """A random simple graph with up to MAX_N vertices (isolated ones kept)."""
    n = draw(st.integers(min_value=2, max_value=MAX_N))
    m = draw(st.integers(min_value=0, max_value=3 * n))
    u = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    v = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return from_edge_arrays(np.asarray(u, dtype=np.int64),
                            np.asarray(v, dtype=np.int64), num_vertices=n)


def fixed_graphs():
    """Named deterministic graphs covering the documented edge cases."""
    return [
        ("empty", empty_graph(17)),
        ("isolated+edges", from_edge_arrays(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 2, 3], dtype=np.int64), num_vertices=9)),
        ("star", star_graph(33)),
        ("complete", complete_graph(12)),
        ("path", path_graph(64)),
        ("er", erdos_renyi_graph(300, 0.03, seed=5)),
        ("rmat", rmat_graph(9, 8, seed=7)),
    ]


def on_both_tiers(fn, *args, **kwargs):
    """*fn* under each tier, in ``BACKENDS`` order."""
    runs = []
    for tier in kernels.BACKENDS:
        with kernels.use_backend(tier):
            runs.append(fn(*args, **kwargs))
    return runs


# ----------------------------------------------------------------------
# First-Fit sweep: bit-identity
# ----------------------------------------------------------------------
class TestFFSweepEquivalence:
    @pytest.mark.parametrize(
        "g", [g for _, g in fixed_graphs()], ids=[n for n, _ in fixed_graphs()]
    )
    @pytest.mark.parametrize("ordering", ["natural", "random", "largest_first", "smallest_last"])
    def test_bit_identical_full_sweep(self, g, ordering):
        a, b = on_both_tiers(greedy_coloring, g, ordering=ordering, seed=3)
        assert np.array_equal(a.colors, b.colors)
        assert a.num_colors == b.num_colors

    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.sampled_from(["natural", "random", "largest_first"]))
    def test_bit_identical_property(self, g, ordering):
        a, b = on_both_tiers(greedy_coloring, g, ordering=ordering, seed=1)
        assert np.array_equal(a.colors, b.colors)

    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.integers(0, 2**31 - 1))
    def test_bit_identical_with_base_snapshot(self, g, seed):
        """Worker semantics: partial work list against a stale snapshot."""
        rng = np.random.default_rng(seed)
        n = g.num_vertices
        base = rng.integers(-1, 4, size=n).astype(np.int64)
        k = int(rng.integers(0, n + 1))
        work = rng.permutation(n)[:k].astype(np.int64)
        a, b = on_both_tiers(kernels.ff_sweep, g, work, base)
        assert np.array_equal(a, b)
        untouched = np.setdiff1d(np.arange(n), work)
        assert np.array_equal(a[untouched], base[untouched])

    def test_empty_work_list_returns_base_copy(self, random_graph):
        base = np.full(random_graph.num_vertices, -1, dtype=np.int64)
        out = kernels.ff_sweep(random_graph, np.empty(0, dtype=np.int64), base)
        assert np.array_equal(out, base)
        assert out is not base

    def test_lu_and_random_delegate_to_reference_loop(self, random_graph):
        """Non-FF choice rules are sequential under every backend."""
        for choice in ("lu", "random"):
            a, b = on_both_tiers(greedy_coloring, random_graph, choice=choice, seed=9)
            assert np.array_equal(a.colors, b.colors)


# ----------------------------------------------------------------------
# Shuffle drain: one result under every backend
# ----------------------------------------------------------------------
def assert_backends_identical(g, init, **kwargs):
    """Same colors, meta but the backend name, and drain events on both tiers."""
    def drain():
        rec = Recorder()
        return shuffle_balance(g, init, recorder=rec, **kwargs), [
            (e["source_bin"], e["moves"], e["rsd_percent"])
            for e in rec.events_of("drain_round")]

    (ref, ref_events), (vec, vec_events) = on_both_tiers(drain)
    assert np.array_equal(ref.colors, vec.colors)
    assert ref.num_colors == vec.num_colors == init.num_colors
    assert ({**ref.meta, "backend": None} == {**vec.meta, "backend": None})
    assert ref_events == vec_events and ref_events
    return vec


class TestShuffleEquivalence:
    @pytest.mark.parametrize("choice", ["ff", "lu"])
    @pytest.mark.parametrize("traversal", ["vertex", "color"])
    @pytest.mark.parametrize("weight", ["unit", "degree"])
    def test_fixed_graph_regime(self, choice, traversal, weight):
        """Both backends run the one sequential pass: bit-identical."""
        g = erdos_renyi_graph(600, 0.02, seed=11)
        out = assert_backends_identical(g, greedy_coloring(g), choice=choice,
                                        traversal=traversal, weight=weight)
        assert is_proper(g, out) and out.meta["moves"] > 0

    def test_moves_metadata_counts_actual_moves(self):
        g = erdos_renyi_graph(400, 0.03, seed=13)
        init = greedy_coloring(g)
        vec = shuffle_balance(g, init)
        assert vec.meta["moves"] == int((vec.colors != init.colors).sum())
        assert vec.meta["backend"] == "vectorized"


# ----------------------------------------------------------------------
# Conflict kernels
# ----------------------------------------------------------------------
class TestConflictKernels:
    def test_monochromatic_edges_and_count(self, path10):
        colors = np.zeros(10, dtype=np.int64)  # every edge monochromatic
        assert kernels.count_monochromatic_edges(path10, colors) == 9
        proper = np.arange(10, dtype=np.int64) % 2
        assert kernels.count_monochromatic_edges(path10, proper) == 0


# ----------------------------------------------------------------------
# Backend dispatch machinery
# ----------------------------------------------------------------------
class TestBackendDispatch:
    def test_available_backends(self):
        assert kernels.BACKENDS == ("reference", "vectorized")

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            kernels.resolve_backend("gpu")
        with pytest.raises(ValueError, match="backend"), kernels.use_backend("cuda"):
            pass

    def test_default_and_explicit_resolution(self):
        assert kernels.resolve_backend(None) == "vectorized"
        assert kernels.resolve_backend("reference") == "reference"

    def test_argument_beats_scope_beats_default(self):
        """Argument > innermost scope > default; ``None`` opens no scope."""
        with kernels.use_backend("reference"):
            with kernels.use_backend("vectorized"), kernels.use_backend(None):
                assert kernels.resolve_backend() == "vectorized"
                assert kernels.resolve_backend("reference") == "reference"
            assert kernels.resolve_backend() == "reference"
        assert kernels.resolve_backend() == "vectorized"

    def test_meta_records_backend(self, random_graph):
        assert greedy_coloring(random_graph).meta["backend"] == "vectorized"
        assert greedy_coloring(random_graph, choice="lu").meta["backend"] == "reference"
        init = greedy_coloring(random_graph)
        assert shuffle_balance(random_graph, init).meta["backend"] == "vectorized"
        with kernels.use_backend("reference"):
            assert shuffle_balance(random_graph, init).meta["backend"] == "reference"


# ----------------------------------------------------------------------
# The tier in scope reaches the higher layers
# ----------------------------------------------------------------------
class TestBackendThreading:
    def test_iterated_greedy_backends_identical(self, random_graph):
        init = greedy_coloring(random_graph)
        a, b = on_both_tiers(iterated_greedy, random_graph, init, iterations=2)
        assert np.array_equal(a.colors, b.colors)
        assert (a.meta["backend"], b.meta["backend"]) == kernels.BACKENDS

    def test_balanced_recoloring_follows_scope(self, random_graph):
        init = greedy_coloring(random_graph)
        a, b = on_both_tiers(balanced_recoloring, random_graph, init)
        assert is_proper(random_graph, b) and np.array_equal(a.colors, b.colors)
        assert (a.meta["backend"], b.meta["backend"]) == kernels.BACKENDS

    def test_mp_single_worker_backends_identical(self, random_graph):
        a, b = on_both_tiers(mp_greedy_ff, random_graph, num_workers=1)
        assert np.array_equal(a.colors, b.colors)
        assert (a.meta["backend"], b.meta["backend"]) == kernels.BACKENDS

    def test_parallel_greedy_rejects_bad_ordering(self, random_graph):
        n = random_graph.num_vertices
        bad = np.zeros(n, dtype=np.int64)  # right length, not a permutation
        with pytest.raises(ValueError, match="permutation"):
            parallel_greedy_ff(random_graph, ordering=bad)

    def test_greedy_rejects_non_permutation_ordering(self, random_graph):
        n = random_graph.num_vertices
        dup = np.arange(n, dtype=np.int64)
        dup[0] = 1  # vertex 0 missing, vertex 1 twice
        with pytest.raises(ValueError, match="permutation"):
            greedy_coloring(random_graph, ordering=dup)


# ----------------------------------------------------------------------
# Larger randomized cross-check
# ----------------------------------------------------------------------
def test_large_graph_full_equivalence():
    g = rmat_graph(14, 8, seed=17)
    a, b = on_both_tiers(greedy_coloring, g)
    assert np.array_equal(a.colors, b.colors)
    for traversal in ("vertex", "color"):
        assert is_proper(g, assert_backends_identical(g, a, traversal=traversal))
    direct = reference.ff_sweep(g, np.arange(g.num_vertices, dtype=np.int64),
                                np.full(g.num_vertices, -1, dtype=np.int64))
    assert np.array_equal(direct, kernels.ff_sweep(g))
