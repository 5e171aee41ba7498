"""Tests for the real multiprocessing coloring backend."""

import numpy as np
import pytest

from repro.coloring import assert_proper, greedy_coloring
from repro.parallel.mp import mp_greedy_ff


class TestMpGreedyFF:
    def test_one_worker_matches_sequential(self, small_cnr):
        seq = greedy_coloring(small_cnr)
        par = mp_greedy_ff(small_cnr, num_workers=1)
        assert np.array_equal(seq.colors, par.colors)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_proper_with_workers(self, small_cnr, workers):
        c = mp_greedy_ff(small_cnr, num_workers=workers)
        assert_proper(small_cnr, c)
        assert c.num_colors <= small_cnr.max_degree + 1

    def test_deterministic_per_worker_count(self, small_cnr):
        a = mp_greedy_ff(small_cnr, num_workers=2)
        b = mp_greedy_ff(small_cnr, num_workers=2)
        assert np.array_equal(a.colors, b.colors)

    def test_meta_records_rounds(self, small_cnr):
        c = mp_greedy_ff(small_cnr, num_workers=2)
        assert c.meta["workers"] == 2
        assert c.meta["rounds"] >= 1

    def test_invalid_workers(self, small_cnr):
        with pytest.raises(ValueError):
            mp_greedy_ff(small_cnr, num_workers=0)

    def test_path_graph(self, path10):
        c = mp_greedy_ff(path10, num_workers=2)
        assert_proper(path10, c)
        assert c.num_colors <= 3


class TestNoSharedMemoryFallback:
    """Without usable /dev/shm the default transport is pickle."""

    @pytest.fixture(autouse=True)
    def no_shm(self, monkeypatch):
        import repro.shm

        monkeypatch.delenv("REPRO_MP_SHM", raising=False)
        monkeypatch.setattr(repro.shm, "shm_available", lambda: False)

    @pytest.fixture
    def bip(self):
        from repro.bipartite import BipartiteGraph
        from repro.graph import random_sparse_pattern

        return BipartiteGraph.from_incidence(
            random_sparse_pattern(300, 50, 5, seed=2), 300)

    def test_default_falls_back_to_pickle(self, small_cnr, bip):
        from repro.bipartite import assert_partial_d2_proper, mp_partial_d2

        c = mp_greedy_ff(small_cnr, num_workers=2)
        assert c.meta["transport"] == "pickle"
        assert_proper(small_cnr, c)
        pc = mp_partial_d2(bip, num_workers=2)
        assert pc.meta["transport"] == "pickle"
        assert_partial_d2_proper(bip, pc, require_total=True)

    def test_forcing_shm_raises(self, small_cnr, bip):
        from repro.bipartite import mp_partial_d2

        with pytest.raises(RuntimeError, match="shm transport requested"):
            mp_greedy_ff(small_cnr, num_workers=2, shm=True)
        with pytest.raises(RuntimeError, match="shm transport requested"):
            mp_partial_d2(bip, num_workers=2, shm=True)
