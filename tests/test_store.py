"""Tests for the out-of-core graph store (:mod:`repro.graph.store`).

The store round-trip, and an mmap-backed graph coloring end-to-end
through ``execute()`` with a result cache smaller than the graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coloring import assert_proper
from repro.graph import load_graph, load_graph_file, save_graph
from repro.graph.store import is_graph_store
from repro.run import RunConfig, execute


class TestStore:
    def test_save_load_round_trip(self, small_cnr, tmp_path):
        store = save_graph(small_cnr, tmp_path / "g.csrg")
        assert is_graph_store(store)
        g = load_graph(store)
        assert g.out_of_core
        assert g == small_cnr
        assert g.fingerprint() == small_cnr.fingerprint()
        resident = load_graph(store, mmap=False)
        assert not resident.out_of_core
        assert resident == small_cnr

    def test_load_graph_file_dispatch(self, small_cnr, tmp_path):
        store = save_graph(small_cnr, tmp_path / "g.csrg")
        assert load_graph_file(store).out_of_core
        with pytest.raises(ValueError, match="no such graph"):
            load_graph_file(tmp_path / "missing")
        with pytest.raises(ValueError, match="not a graph store"):
            load_graph(tmp_path)

    def test_truncated_store_fails_loudly(self, small_cnr, tmp_path):
        store = save_graph(small_cnr, tmp_path / "g.csrg")
        meta = store / "meta.json"
        meta.write_text(meta.read_text().replace(
            f'"num_vertices": {small_cnr.num_vertices}', '"num_vertices": 7'))
        with pytest.raises(ValueError, match="truncated"):
            load_graph(store)

    def test_mmap_graph_through_execute_small_cache(self, small_cnr, tmp_path):
        """An out-of-core graph colors end-to-end through execute() and
        serves from a cache whose byte budget is far below the CSR size."""
        from repro.serve import ColoringService

        store = save_graph(small_cnr, tmp_path / "g.csrg")
        g = load_graph(store)
        config = RunConfig(strategy="greedy-ff", mode="mp", threads=2, seed=9)
        result = execute(g, config)
        assert_proper(g, result.coloring)
        baseline = execute(small_cnr, config)
        assert np.array_equal(result.coloring.colors, baseline.coloring.colors)

        csr_bytes = g.indptr.nbytes + g.indices.nbytes
        svc = ColoringService(max_bytes=max(1024, csr_bytes // 16))
        job = svc.submit_and_wait(g, config)
        assert job.status == "done"
        assert np.array_equal(job.result.coloring.colors,
                              baseline.coloring.colors)

    def test_chunked_edges_match_bulk(self, small_cnr, tmp_path):
        g = load_graph(save_graph(small_cnr, tmp_path / "g.csrg"))
        u0, v0 = small_cnr.edge_arrays()
        chunks = list(g.edge_chunks(chunk=97))
        u1 = np.concatenate([c[0] for c in chunks])
        v1 = np.concatenate([c[1] for c in chunks])
        assert np.array_equal(u0, u1) and np.array_equal(v0, v1)
