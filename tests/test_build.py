"""Tests for graph builders (normalization, formats)."""

import numpy as np
import pytest

from repro.graph import (
    from_adjacency,
    from_edge_arrays,
    from_edge_list,
    from_networkx,
    from_scipy_sparse,
)


class TestFromEdgeArrays:
    def test_basic(self):
        g = from_edge_arrays([0, 1], [1, 2])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_drops_self_loops(self):
        g = from_edge_arrays([0, 1, 2], [1, 1, 2])
        assert g.num_edges == 1
        assert not g.has_edge(2, 2) if g.num_vertices > 2 else True

    def test_collapses_duplicates_and_reversals(self):
        g = from_edge_arrays([0, 1, 0, 0], [1, 0, 1, 1])
        assert g.num_edges == 1

    def test_explicit_num_vertices_adds_isolates(self):
        g = from_edge_arrays([0], [1], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_id_exceeding_num_vertices_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            from_edge_arrays([0], [9], num_vertices=5)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            from_edge_arrays([-1], [0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            from_edge_arrays([0, 1], [1])

    @pytest.mark.parametrize("u, v", [
        ([0.9, 2.7], [1.2, 0.1]),  # would truncate to edges (0, 1) and (0, 2)
        (np.array([0.0, 1.0]), np.array([1, 2])),
        (np.array([0, 1]), np.array([True, False])),
    ])
    def test_non_integer_endpoints_rejected(self, u, v):
        with pytest.raises(ValueError, match="integers"):
            from_edge_arrays(u, v)

    def test_empty_endpoints_of_any_dtype_accepted(self):
        g = from_edge_arrays(np.array([], dtype=np.float64), [], num_vertices=3)
        assert g.num_vertices == 3 and g.num_edges == 0
        assert from_edge_arrays([], []).num_vertices == 0

    def test_symmetry_of_result(self):
        g = from_edge_arrays([3, 1, 4], [1, 5, 9], num_vertices=10)
        for u, v in g.edges():
            assert g.has_edge(v, u)


def _bruteforce_csr(u, v, n):
    """Set-based reference CSR: symmetric, deduplicated, loop-free, sorted."""
    adj = [set() for _ in range(n)]
    for a, b in zip(u, v):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(nb) for nb in adj])
    indices = np.array([w for nb in adj for w in sorted(nb)], dtype=np.int64)
    return indptr, indices


class TestFromEdgeArraysBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_based_csr(self, seed):
        rng = np.random.default_rng(seed)
        n_used = int(rng.integers(2, 60))
        m = int(rng.integers(0, 4 * n_used))
        u = rng.integers(0, n_used, m)
        v = rng.integers(0, n_used, m)
        # repeat a slice of the edges reversed, and add explicit self-loops
        k = m // 3
        u = np.concatenate([u, v[:k], np.arange(3) % n_used])
        v = np.concatenate([v, u[:k], np.arange(3) % n_used])
        n = n_used + int(rng.integers(0, 5))  # isolated trailing vertices
        g = from_edge_arrays(u, v, num_vertices=n)
        indptr, indices = _bruteforce_csr(u.tolist(), v.tolist(), n)
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_empty_edge_list(self, n):
        g = from_edge_arrays(np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64), num_vertices=n)
        assert np.array_equal(g.indptr, np.zeros(n + 1, dtype=np.int64))
        assert g.indices.shape == (0,)

    def test_only_self_loops_and_duplicates(self):
        g = from_edge_arrays([2, 2, 0, 1, 1], [2, 2, 0, 0, 0], num_vertices=4)
        assert g.indptr.tolist() == [0, 1, 2, 2, 2]
        assert g.indices.tolist() == [1, 0]


class TestOtherBuilders:
    def test_from_edge_list(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)])
        assert g.num_edges == 3

    def test_from_edge_list_empty(self):
        g = from_edge_list([], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_from_edge_list_bad_shape(self):
        with pytest.raises(ValueError):
            from_edge_list([(0, 1, 2)])

    def test_from_adjacency(self):
        g = from_adjacency([[1, 2], [0], [0]])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_from_adjacency_symmetrizes_oneway_lists(self):
        g = from_adjacency([[1], [], []])
        assert g.has_edge(1, 0)

    def test_from_scipy_nonsquare_rejected(self):
        from scipy.sparse import csr_array

        mat = csr_array(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            from_scipy_sparse(mat)

    def test_from_scipy_ignores_values(self):
        from scipy.sparse import coo_array

        mat = coo_array(([5.0, -2.0], ([0, 1], [1, 2])), shape=(3, 3))
        g = from_scipy_sparse(mat)
        assert g.num_edges == 2

    def test_from_networkx_roundtrip(self):
        import networkx as nx

        nxg = nx.petersen_graph()
        g = from_networkx(nxg)
        assert g.num_vertices == 10
        assert g.num_edges == 15
        assert g.max_degree == 3

    def test_from_networkx_arbitrary_labels(self):
        import networkx as nx

        nxg = nx.Graph([("a", "b"), ("b", "c")])
        g = from_networkx(nxg)
        assert g.num_vertices == 3
        assert g.num_edges == 2
