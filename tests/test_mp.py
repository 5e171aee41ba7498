"""Tests for the mp round driver and its two transports.

``TestTransportDifferential`` is generated from the strategy registry:
every row with an ``mp`` implementation runs through ``execute()`` on
the thread team and again with the driver forced onto the inline
transport, on a D1 input and a distance-2 pattern, for 1–3 workers,
with and without injected block faults, on the default run (one
speculative round, then the sequential tail) and on runs that speculate
until no conflict is left.
"""

import glob
import multiprocessing

import numpy as np
import pytest

import repro.bipartite.optimistic as optimistic_mod
import repro.parallel.mp as mp_mod
from repro.coloring import assert_distance2_proper, assert_proper, greedy_coloring
from repro.coloring.strategies import STRATEGIES
from repro.graph import load_dataset
from repro.parallel.mp import mp_greedy_ff
from repro.run import RunConfig, execute


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


# ----------------------------------------------------------------------
# one generated transport differential
# ----------------------------------------------------------------------
MP_ROWS = sorted(name for name, spec in STRATEGIES.items() if spec.mp)

#: faults whose recovery is bit-identical to the fault-free run (a
#: retried block re-colors the same items against the same snapshot)
RECOVERED_PLANS = ["stall@r0.w0:1.0", "corrupt@r0.w1"]


@pytest.fixture(scope="module")
def inputs():
    return {"cnr": load_dataset("cnr", scale=0.05, seed=0),
            "jacrand": load_dataset("jacrand", scale=0.05, seed=0)}


def _run(monkeypatch, graph, row, workers, transport, plan=None, **kwargs):
    """One registry run with every mp adapter's driver on *transport*;
    *kwargs* are the row's strategy options."""
    real = mp_mod.run_rounds

    def forced(nb, num_workers, **kwargs):
        return real(nb, num_workers, **{**kwargs, "transport": transport})

    with monkeypatch.context() as m:
        for module in (mp_mod, optimistic_mod):
            m.setattr(module, "run_rounds", forced)
        result = execute(graph, RunConfig(
            row, mode="mp", threads=workers, seed=3, fault_plan=plan,
            strategy_kwargs={"round_timeout": 0.2, **kwargs} if plan else kwargs))
    coloring = result.coloring
    if row.startswith("d2"):
        assert_distance2_proper(graph, coloring)
    else:
        assert_proper(graph, coloring)
    if STRATEGIES[row].same_color_count:
        assert coloring.num_colors == result.initial.num_colors
    return coloring


#: the one (row, input) whose first speculative round has no conflict:
#: jacrand read as a D1 graph is a bipartite incidence, 2-colored at once
CONFLICT_FREE = {("greedy-ff", "jacrand")}


def _races(row, graph_name, workers):
    """True when the first speculative round leaves a retry set."""
    return workers > 1 and (row, graph_name) not in CONFLICT_FREE


def _rounds(coloring):
    meta = coloring.meta
    return meta["rounds"], meta["conflicts"], meta["tail"]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("graph_name", ["cnr", "jacrand"])
@pytest.mark.parametrize("row", MP_ROWS)
class TestTransportDifferential:
    def test_threads_bit_identical_to_inline(self, monkeypatch, inputs, row,
                                             graph_name, workers):
        graph = inputs[graph_name]
        threads = _run(monkeypatch, graph, row, workers, "threads")
        inline = _run(monkeypatch, graph, row, workers, "inline")
        assert np.array_equal(threads.colors, inline.colors)
        assert _rounds(threads) == _rounds(inline)
        # by default: one speculative round, its retry set is the tail,
        # and a planned tail is not a degradation
        meta = threads.meta
        assert meta["rounds"] == 1 and meta["tail"] == meta["conflicts"]
        assert (meta["tail"] > 0) == _races(row, graph_name, workers)
        assert meta["degraded"] is False and inline.meta["degraded"] is False
        assert meta["faults"]["unfired"] == 0

    @pytest.mark.parametrize("plan", RECOVERED_PLANS)
    def test_faults_recover_bit_identically(self, monkeypatch, inputs, row,
                                            graph_name, workers, plan):
        graph = inputs[graph_name]
        faulty = _run(monkeypatch, graph, row, workers, "threads", plan)
        inline = _run(monkeypatch, graph, row, workers, "inline")
        assert np.array_equal(faulty.colors, inline.colors)
        assert _rounds(faulty) == _rounds(inline)
        if workers > 1:
            faults = faulty.meta["faults"]
            assert faults["injected"] == faults["recovered"] == 1
            assert faults["unfired"] == 0
            assert not faulty.meta["degraded"]

    def test_stale_snapshot_replays_bit_identically(self, monkeypatch, inputs,
                                                    row, graph_name, workers):
        # a stale read changes the proposals, so the run is not the
        # fault-free one; it is proper, and a replay is bit-identical.
        # Round 1 is speculated only when max_rounds allows it.
        graph = inputs[graph_name]
        plan = "stale@r1.w0"
        first = _run(monkeypatch, graph, row, workers, "threads", plan,
                     max_rounds=100)
        again = _run(monkeypatch, graph, row, workers, "threads", plan,
                     max_rounds=100)
        assert np.array_equal(first.colors, again.colors)
        assert _rounds(first) == _rounds(again)
        # round 1 runs, and its block 0 reads stale, iff round 0 left
        # work; otherwise the fault is reported as unfired
        fired = int(_races(row, graph_name, workers))
        assert first.meta["faults"]["injected"] == fired
        assert first.meta["faults"]["unfired"] == 1 - fired

    def test_run_to_convergence_has_no_tail(self, monkeypatch, inputs, row,
                                            graph_name, workers):
        graph = inputs[graph_name]
        threads = _run(monkeypatch, graph, row, workers, "threads", max_rounds=100)
        inline = _run(monkeypatch, graph, row, workers, "inline", max_rounds=100)
        assert np.array_equal(threads.colors, inline.colors)
        assert _rounds(threads) == _rounds(inline)
        assert threads.meta["tail"] == 0
        assert (threads.meta["rounds"] > 1) == _races(row, graph_name, workers)

    def test_salvaged_block_sets_degraded(self, monkeypatch, inputs, row,
                                          graph_name, workers):
        # block 0's proposals are corrupt on every attempt, so it is
        # colored in-process: a degradation, unlike the planned tail
        graph = inputs[graph_name]
        faulty = _run(monkeypatch, graph, row, workers, "threads",
                      "corrupt@r0.w0x3")
        faults = faulty.meta["faults"]
        if workers > 1:
            assert faults["injected"] == 3 and faults["salvaged"] == 1
            assert faulty.meta["degraded"] is True
        else:  # one worker: one in-process sweep, no block to fault
            assert faults["injected"] == 0 and faulty.meta["degraded"] is False


def test_mp_runs_leave_no_segments_or_processes(inputs):
    before = set(glob.glob("/dev/shm/*"))
    for row in ("greedy-ff", "d2-optimistic"):
        for graph in inputs.values():
            execute(graph, RunConfig(row, mode="mp", threads=3, seed=0))
    assert set(glob.glob("/dev/shm/*")) == before
    assert multiprocessing.active_children() == []
