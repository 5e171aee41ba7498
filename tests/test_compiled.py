"""Compiled C loops against their Python oracles, and the fallback path.

:mod:`repro.kernels.compiled` compiles the First-Fit and one-sided D2
sweeps, the D2 drain pass, the Sched-Rev commit loop, the conflict
detection over the work rows and the D1/D2 properness check behind every
verifier; :mod:`repro.kernels.reference` keeps the Python loops and
:mod:`repro.kernels.conflicts` the NumPy edge scans.
A resolved ``reference`` backend always runs Python, any other
resolution runs C when it loaded, and both must agree bit for bit.  When the library
cannot be built or loaded, the sweeps run the NumPy rounds of
:mod:`repro.kernels.vectorized` and the other loops run Python, give the
same answer and report why.  The NumPy rounds are called directly here
too, so they keep their coverage on hosts where C loads.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.bipartite import BipartiteGraph, assert_partial_d2_proper, is_partial_d2_proper
from repro.coloring.verify import (
    assert_proper,
    conflicting_vertices,
    count_conflicts,
    is_proper,
)
from repro.graph import (
    complete_graph,
    empty_graph,
    erdos_renyi_graph,
    from_edge_arrays,
    jacobian_band_pattern,
    load_dataset,
    star_graph,
)
from repro.graph.csr import CSRGraph
from repro.kernels import compiled, reference, vectorized
from repro.obs import Recorder
from repro.parallel.mp import Neighbourhood, run_rounds
from repro.resilience import check_invariants, repair_coloring
from repro.run import RunConfig, execute
from repro.serve.backends import shard_rounds
from repro.shm import WarmPool


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@st.composite
def simple_graphs(draw):
    """A random simple graph with 0 to 30 vertices, isolated ones included."""
    n = draw(st.integers(0, 30))
    if n < 2:
        return empty_graph(n)
    m = draw(st.integers(0, 3 * n))
    u = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                   dtype=np.int64)
    v = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                   dtype=np.int64)
    keep = u != v
    return from_edge_arrays(u[keep], v[keep], num_vertices=n)


@st.composite
def incidences(draw):
    """A bipartite incidence graph with rows on [0, num_rows)."""
    kind = draw(st.sampled_from(["pattern", "cover", "band"]))
    if kind == "band":
        nr = draw(st.integers(1, 60))
        band = draw(st.integers(1, 6))
        return BipartiteGraph.from_incidence(
            jacobian_band_pattern(nr, max(band, nr // 4), band,
                                  seed=draw(st.integers(0, 99))), nr)
    if kind == "cover":
        g = draw(simple_graphs())
        return BipartiteGraph.square_cover(g if g.num_vertices else empty_graph(1))
    nr, nc = draw(st.integers(1, 30)), draw(st.integers(1, 20))
    nnz = draw(st.integers(0, 4 * nr))
    rows = draw(st.lists(st.integers(0, nr - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, nc - 1), min_size=nnz, max_size=nnz))
    return BipartiteGraph.from_matrix_pattern(rows, cols, num_rows=nr, num_cols=nc)


def drain_inputs(nr: int, C: int, rng, *, free_mask: bool = False) -> tuple:
    """Random colors (some rows -1), sizes, under mask and candidates.

    The drain keeps ``under == (sizes < g)``; with *free_mask* the mask
    is random instead, which the two loops must also agree on.
    """
    colors = rng.integers(-1, C, size=nr).astype(np.int64)
    sizes = np.bincount(colors[colors >= 0], minlength=C).astype(np.float64)
    g = float((colors >= 0).sum()) / C
    under = np.zeros(C + 1, dtype=bool)
    under[:C] = rng.random(C) < 0.5 if free_mask else sizes < g
    colored = np.nonzero(colors >= 0)[0]
    candidates = rng.permutation(colored)[: rng.integers(0, colored.size + 1)]
    return colors, sizes, under, g, candidates


def run_drain(bip, inputs, choice, backend):
    colors, sizes, under, g, candidates = (
        a.copy() if isinstance(a, np.ndarray) else a for a in inputs)
    moves = kernels.d2_drain_pass(bip.incidence, bip.num_rows, colors, sizes,
                                  under, g, candidates, choice=choice,
                                  backend=backend)
    return colors, sizes, under, moves


def run_commit(graph, colors, vertices, targets, backend):
    colors = colors.copy()
    committed = kernels.sched_commit(graph, colors, vertices, targets,
                                     backend=backend)
    return colors, committed


def assert_same(want, got):
    assert len(want) == len(got)
    for w, x in zip(want, got):
        if isinstance(w, np.ndarray):
            assert w.dtype == x.dtype and np.array_equal(w, x)
        else:
            assert w == x and type(w) is type(x)


def fixed_drain_case():
    bip = BipartiteGraph.from_incidence(jacobian_band_pattern(120, 30, 4, seed=3), 120)
    return bip, drain_inputs(bip.num_rows, 6, np.random.default_rng(5))


def fixed_commit_case():
    graph = erdos_renyi_graph(150, 0.05, seed=4)
    rng = np.random.default_rng(6)
    colors = rng.integers(0, 8, size=150).astype(np.int64)
    vertices = rng.integers(0, 150, size=200)
    return graph, colors, vertices, rng.integers(0, 8, size=200)


# ----------------------------------------------------------------------
# kernel level: C == Python
# ----------------------------------------------------------------------
class TestKernelDifferential:
    @settings(max_examples=120, deadline=None)
    @given(bip=incidences(), C=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           choice=st.sampled_from(["ff", "lu"]), free_mask=st.booleans())
    def test_drain_pass(self, bip, C, seed, choice, free_mask):
        inputs = drain_inputs(bip.num_rows, C, np.random.default_rng(seed),
                              free_mask=free_mask)
        assert_same(run_drain(bip, inputs, choice, "reference"),
                    run_drain(bip, inputs, choice, None))

    @pytest.mark.parametrize("choice", ["ff", "lu"])
    @pytest.mark.parametrize("make", [
        lambda: BipartiteGraph.from_matrix_pattern([], [], num_rows=5, num_cols=1),
        lambda: BipartiteGraph.square_cover(star_graph(12)),
        lambda: BipartiteGraph.square_cover(complete_graph(7)),
        lambda: BipartiteGraph.square_cover(jacobian_band_pattern(40, 10, 3, seed=1)),
    ], ids=["no-edges", "star", "clique", "band-cover"])
    def test_drain_pass_fixed_graphs(self, make, choice):
        bip = make()
        for C in (1, 2, 5):
            for seed in range(6):
                inputs = drain_inputs(bip.num_rows, C, np.random.default_rng(seed),
                                      free_mask=seed % 2 == 1)
                assert_same(run_drain(bip, inputs, choice, "reference"),
                            run_drain(bip, inputs, choice, None))

    @settings(max_examples=120, deadline=None)
    @given(graph=simple_graphs(), C=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_sched_commit(self, graph, C, seed):
        rng = np.random.default_rng(seed)
        n = graph.num_vertices
        colors = rng.integers(0, C, size=n).astype(np.int64)
        length = rng.integers(0, 2 * n + 1)
        vertices = rng.integers(0, max(n, 1), size=length if n else 0)
        targets = rng.integers(0, C, size=vertices.size)
        assert_same(run_commit(graph, colors, vertices, targets, "reference"),
                    run_commit(graph, colors, vertices, targets, None))

    @pytest.mark.parametrize("graph", [
        empty_graph(0), empty_graph(6), star_graph(10), complete_graph(6),
        jacobian_band_pattern(30, 10, 3, seed=2),
    ], ids=["empty", "isolated", "star", "clique", "band"])
    def test_sched_commit_fixed_graphs(self, graph):
        n = graph.num_vertices
        for C in (1, 3):
            rng = np.random.default_rng(C)
            colors = rng.integers(0, C, size=n).astype(np.int64)
            vertices = rng.integers(0, max(n, 1), size=2 * n)
            targets = rng.integers(0, C, size=vertices.size)
            assert_same(run_commit(graph, colors, vertices, targets, "reference"),
                        run_commit(graph, colors, vertices, targets, None))

    def test_empty_candidates_and_plan_are_noops(self):
        bip, inputs = fixed_drain_case()
        colors, sizes, under, g, _ = inputs
        empty = np.empty(0, dtype=np.int64)
        assert kernels.d2_drain_pass(bip.incidence, bip.num_rows, colors.copy(),
                                     sizes.copy(), under.copy(), g, empty,
                                     choice="ff") == 0
        graph, colors, _, _ = fixed_commit_case()
        assert kernels.sched_commit(graph, colors.copy(), empty, empty) == 0


# ----------------------------------------------------------------------
# end to end: default dispatch == Python loops
# ----------------------------------------------------------------------
@contextmanager
def python_only(monkeypatch, how: str):
    """Force the Python loops: by backend name, or by a failed load."""
    if how == "reference-backend":
        kernels.set_default_backend("reference")
        try:
            yield
        finally:
            kernels.set_default_backend(None)
    else:
        with monkeypatch.context() as m:
            m.setattr(compiled, "_state", (None, "disabled by the test"))
            yield


def _run(graph, config):
    rec = Recorder()
    result = execute(graph, config, recorder=rec)
    drains = [(e["source_bin"], e["moves"], e["rsd_percent"])
              for e in rec.events if e["kind"] == "drain_round"]
    return result.coloring, drains


# meta keys that name the resolved backend (the mp task bytes carry the
# name too) or record the warm pool's history
_RUN_STATE_KEYS = {"backend", "bytes_to_workers", "pool_reused"}

E2E_CASES = [
    ("sched-rev", "sequential", {"rounds": 1}),
    ("sched-rev", "sequential", {"rounds": 3}),
    ("sched-fwd", "sequential", {"rounds": 1}),
    ("sched-fwd", "sequential", {"rounds": 3}),
    ("d2-balanced", "sequential", {"strategy_kwargs": {"choice": "ff"}}),
    ("d2-balanced", "sequential", {"strategy_kwargs": {"choice": "lu"}}),
    ("d2-balanced", "mp", {"strategy_kwargs": {"choice": "ff"}, "threads": 2}),
    ("d2-balanced", "mp", {"strategy_kwargs": {"choice": "lu"}, "threads": 2}),
]


@pytest.mark.parametrize("how", ["reference-backend", "no-library"])
@pytest.mark.parametrize("strategy,mode,extra", E2E_CASES,
                         ids=[f"{s}-{m}-{sorted(e.items())}" for s, m, e in E2E_CASES])
def test_execute_matches_python_loops(monkeypatch, strategy, mode, extra, how):
    graph = (load_dataset("cnr", scale=0.05, seed=0) if strategy.startswith("sched")
             else erdos_renyi_graph(250, 0.03, seed=7))
    config = RunConfig(strategy, mode=mode, **extra)
    default, default_drains = _run(graph, config)
    with python_only(monkeypatch, how):
        python, python_drains = _run(graph, config)
    assert np.array_equal(default.colors, python.colors)
    assert default.num_colors == python.num_colors
    assert default.strategy == python.strategy
    skip = _RUN_STATE_KEYS if how == "reference-backend" else {"pool_reused"}
    assert ({k: v for k, v in default.meta.items() if k not in skip}
            == {k: v for k, v in python.meta.items() if k not in skip})
    assert default_drains == python_drains
    if strategy == "d2-balanced":
        assert default_drains and default.meta["moves"] > 0
    else:
        assert default.meta["committed"] > 0


# ----------------------------------------------------------------------
# build, cache and fallback
# ----------------------------------------------------------------------
@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A first load in this process, with an empty private cache."""
    monkeypatch.setattr(compiled, "_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv("CC", raising=False)
    return tmp_path


def assert_fallback_matches_reference(reason_part: str) -> None:
    assert compiled.load() is None
    reason = compiled.failure_reason()
    assert reason and reason_part in reason
    bip, inputs = fixed_drain_case()
    for choice in ("ff", "lu"):
        assert_same(run_drain(bip, inputs, choice, "reference"),
                    run_drain(bip, inputs, choice, None))
    graph, colors, vertices, targets = fixed_commit_case()
    assert_same(run_commit(graph, colors, vertices, targets, "reference"),
                run_commit(graph, colors, vertices, targets, None))


class TestFallback:
    def test_missing_compiler(self, fresh, monkeypatch):
        monkeypatch.setenv("CC", str(fresh / "no-such-cc"))
        assert_fallback_matches_reference("not found")

    def test_failing_compiler(self, fresh, monkeypatch):
        monkeypatch.setenv("CC", "false")
        assert_fallback_matches_reference("exited with status")

    def test_truncated_cached_library(self, fresh):
        path = compiled._library_path(compiled._compiler())
        compiled._private_dir(path.parent)
        path.write_bytes(b"\x7fELF\x02\x01\x01")
        assert_fallback_matches_reference("OSError")

    def test_cache_path_is_a_file(self, fresh, monkeypatch):
        blocker = fresh / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert_fallback_matches_reference(str(blocker))

    def test_shared_cache_directory_is_refused(self, fresh):
        shared = compiled.cache_dir()
        shared.mkdir(parents=True)
        shared.chmod(0o777)
        assert_fallback_matches_reference("not private")

    @pytest.mark.skipif(os.getuid() == 0, reason="root ignores directory permissions")
    def test_read_only_cache_directory(self, fresh):
        parent = compiled.cache_dir().parent
        parent.mkdir(parents=True)
        parent.chmod(0o500)
        try:
            assert_fallback_matches_reference("Error")
        finally:
            parent.chmod(0o700)

    def test_library_is_built_once_and_cached(self, fresh, monkeypatch):
        builds = []
        real = compiled._build
        monkeypatch.setattr(compiled, "_build",
                            lambda cc, path: (builds.append(path), real(cc, path)))
        first = compiled.load()
        if first is None:
            pytest.skip(f"no C compiler here: {compiled.failure_reason()}")
        assert compiled.cache_dir().stat().st_mode & 0o777 == 0o700
        assert [p.name for p in compiled.cache_dir().iterdir()] == [builds[0].name]
        monkeypatch.setattr(compiled, "_state", None)  # a new process
        assert compiled.load() is not None
        assert len(builds) == 1

    def test_racing_first_loads_build_once(self, fresh, monkeypatch):
        builds = []
        real = compiled._build
        monkeypatch.setattr(compiled, "_build",
                            lambda cc, path: (builds.append(path), real(cc, path)))
        bip, inputs = fixed_drain_case()
        barrier = threading.Barrier(8)
        out = [None] * 8

        def worker(i):
            barrier.wait()
            out[i] = (compiled.load(), run_drain(bip, inputs, "ff", None))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1
        assert all(lib is out[0][0] for lib, _ in out)
        want = run_drain(bip, inputs, "ff", "reference")
        for _, got in out:
            assert_same(want, got)


# ----------------------------------------------------------------------
# malformed inputs never reach C
# ----------------------------------------------------------------------
class _Tripwire:
    def __getattr__(self, name):
        raise AssertionError(f"C kernel {name} called with malformed input")


def _drain_call(**override):
    bip, (colors, sizes, under, g, candidates) = fixed_drain_case()
    args = dict(graph=bip.incidence, num_rows=bip.num_rows, colors=colors,
                sizes=sizes, under=under, g=g, candidates=candidates, choice="ff")
    args.update(override)
    choice = args.pop("choice")
    return lambda: kernels.d2_drain_pass(*args.values(), choice=choice)


def _commit_call(**override):
    graph, colors, vertices, targets = fixed_commit_case()
    args = dict(graph=graph, colors=colors, vertices=vertices, targets=targets)
    args.update(override)
    return lambda: kernels.sched_commit(*args.values())


_C = fixed_drain_case()[1][1].shape[0]
_NR = fixed_drain_case()[0].num_rows
MALFORMED = {
    "drain-colors-int32": _drain_call(colors=np.zeros(_NR, dtype=np.int32)),
    "drain-colors-short": _drain_call(colors=np.zeros(_NR - 1, dtype=np.int64)),
    "drain-colors-strided": _drain_call(colors=np.zeros(2 * _NR, dtype=np.int64)[::2]),
    "drain-colors-readonly": _drain_call(
        colors=np.lib.stride_tricks.as_strided(np.zeros(_NR, dtype=np.int64),
                                               writeable=False)),
    "drain-colors-too-big": _drain_call(colors=np.full(_NR, _C, dtype=np.int64)),
    "drain-colors-below-minus-one": _drain_call(colors=np.full(_NR, -2, dtype=np.int64)),
    "drain-sizes-int": _drain_call(sizes=np.zeros(_C, dtype=np.int64)),
    "drain-under-short": _drain_call(under=np.zeros(_C, dtype=bool)),
    "drain-candidate-out-of-range": _drain_call(candidates=np.array([_NR])),
    "drain-candidate-negative": _drain_call(candidates=np.array([-1])),
    "drain-candidate-float": _drain_call(candidates=np.array([0.0])),
    "drain-candidate-uncolored": _drain_call(
        colors=np.full(_NR, -1, dtype=np.int64), candidates=np.array([0])),
    "drain-num-rows": _drain_call(num_rows=10**6),
    "drain-choice": _drain_call(choice="random"),
    "commit-colors-short": _commit_call(colors=np.zeros(3, dtype=np.int64)),
    "commit-vertex-out-of-range": _commit_call(vertices=np.full(200, 150)),
    "commit-length-mismatch": _commit_call(targets=np.zeros(3, dtype=np.int64)),
    "commit-vertices-2d": _commit_call(vertices=np.zeros((2, 100), dtype=np.int64)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_rejected_before_c(monkeypatch, name):
    monkeypatch.setattr(compiled, "_state", (_Tripwire(), None))
    with pytest.raises(ValueError):
        MALFORMED[name]()


def test_c_guards_graph_indices():
    """An unvalidated incidence whose rows touch rows fails cleanly in C."""
    if compiled.load() is None:
        pytest.skip(f"no compiled library: {compiled.failure_reason()}")
    g = complete_graph(4)
    bad = CSRGraph(g.indptr, g.indices, validate=False)
    colors = np.array([0, 0], dtype=np.int64)
    sizes = np.array([2.0, 0.0])
    under = np.array([False, True, False])
    with pytest.raises(ValueError, match="incidence"):
        kernels.d2_drain_pass(bad, 2, colors, sizes, under, 1.0,
                              np.array([0, 1]), choice="ff")


# ----------------------------------------------------------------------
# sweeps: reference loop == NumPy rounds == dispatch (C when it loaded)
# ----------------------------------------------------------------------
SWEEP_KINDS = ["full", "partial", "reverse", "empty"]


def sweep_inputs(n: int, kind: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """``(work, base)`` for one sweep over items ``[0, n)``.

    ``full`` is id order over an uncolored base; ``partial`` a random
    subset in random order over a stale random base holding -1 and colors
    past every window; ``reverse`` the classes of a random coloring in
    decreasing order (iterated greedy's visit order); ``empty`` no work.
    """
    uncolored = np.full(n, -1, dtype=np.int64)
    if kind == "full":
        return np.arange(n, dtype=np.int64), uncolored
    if kind == "empty":
        return np.empty(0, dtype=np.int64), rng.integers(-1, 4, size=n)
    base = rng.integers(-1, n + 3, size=n).astype(np.int64)
    base[rng.random(n) < 0.1] = 2**40
    if kind == "reverse":
        return np.argsort(-base, kind="stable").astype(np.int64), uncolored
    return rng.permutation(n)[: rng.integers(0, n + 1)].astype(np.int64), base


def three_ff(graph, work, base):
    return (reference.ff_sweep(graph, work, base),
            vectorized.ff_sweep(graph, work, base),
            kernels.ff_sweep(graph, work, base, backend="vectorized"))


def three_d2(bip, work, base):
    args = (bip.incidence, bip.num_rows, work, base)
    return (reference.d2_sweep(*args), vectorized.d2_sweep(*args),
            kernels.d2_sweep(*args, backend="vectorized"))


def assert_three_equal(outs, base):
    want = outs[0]
    assert want.dtype == np.int64 and want.shape == base.shape
    for got in outs[1:]:
        assert got.dtype == np.int64 and np.array_equal(want, got)


class TestSweepDifferential:
    @settings(max_examples=150, deadline=None)
    @given(graph=simple_graphs(), kind=st.sampled_from(SWEEP_KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_ff_sweep(self, graph, kind, seed):
        work, base = sweep_inputs(graph.num_vertices, kind,
                                  np.random.default_rng(seed))
        assert_three_equal(three_ff(graph, work, base), base)

    @settings(max_examples=150, deadline=None)
    @given(bip=incidences(), kind=st.sampled_from(SWEEP_KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_d2_sweep(self, bip, kind, seed):
        work, base = sweep_inputs(bip.num_rows, kind, np.random.default_rng(seed))
        assert_three_equal(three_d2(bip, work, base), base)

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("graph", [
        empty_graph(1), empty_graph(9), star_graph(40), complete_graph(12),
        erdos_renyi_graph(300, 0.04, seed=3),
    ], ids=["single", "isolated", "star", "clique", "er"])
    def test_ff_sweep_fixed_graphs(self, graph, kind):
        for seed in range(4):
            work, base = sweep_inputs(graph.num_vertices, kind,
                                      np.random.default_rng(seed))
            assert_three_equal(three_ff(graph, work, base), base)

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("make", [
        lambda: BipartiteGraph.from_matrix_pattern([], [], num_rows=5, num_cols=1),
        lambda: BipartiteGraph.square_cover(star_graph(30)),
        lambda: BipartiteGraph.square_cover(complete_graph(9)),
        lambda: BipartiteGraph.square_cover(jacobian_band_pattern(60, 15, 3, seed=1)),
        lambda: BipartiteGraph.from_incidence(
            jacobian_band_pattern(200, 50, 5, seed=2), 200),
    ], ids=["no-edges", "star-cover", "clique-cover", "band-cover", "band"])
    def test_d2_sweep_fixed_graphs(self, make, kind):
        bip = make()
        for seed in range(4):
            work, base = sweep_inputs(bip.num_rows, kind, np.random.default_rng(seed))
            assert_three_equal(three_d2(bip, work, base), base)

    def test_vectorized_dispatch_runs_c_when_loaded(self, monkeypatch):
        if compiled.load() is None:
            pytest.skip(f"no compiled library: {compiled.failure_reason()}")
        for name in ("ff_sweep", "d2_sweep"):
            monkeypatch.setattr(vectorized, name,
                                lambda *a: pytest.fail("NumPy rounds ran, not C"))
        graph = erdos_renyi_graph(100, 0.05, seed=1)
        bip = BipartiteGraph.square_cover(graph)
        assert np.array_equal(kernels.ff_sweep(graph),
                              reference.ff_sweep(graph, np.arange(100),
                                                 np.full(100, -1)))
        assert np.array_equal(kernels.d2_sweep(bip.incidence, bip.num_rows),
                              reference.d2_sweep(bip.incidence, 100,
                                                 np.arange(100), np.full(100, -1)))


# ----------------------------------------------------------------------
# sweeps and detection end to end: the default dispatch == the reference
# ----------------------------------------------------------------------
SWEEP_E2E_CASES = [
    ("greedy-ff", "sequential", {}),
    ("vff", "sequential", {}),
    ("sched-rev", "sequential", {}),
    ("recoloring", "sequential", {}),
    ("d2-optimistic", "sequential", {}),
    ("d2-balanced", "sequential", {}),
    ("greedy-ff", "mp", {"threads": 2}),
    ("d2-optimistic", "mp", {"threads": 2}),
    ("d2-balanced", "mp", {"threads": 2}),
    ("greedy-ff", "mp", {"threads": 2, "on_failure": "repair",
                         "fault_plan": "corrupt@r0.w1"}),
    # a stale-snapshot worker: only the cross and d2 detection rules catch
    # its collisions with finalized higher-id neighbors
    ("greedy-ff", "mp", {"threads": 2, "fault_plan": "stale@r1.w0"}),
    ("d2-optimistic", "mp", {"threads": 2, "fault_plan": "stale@r1.w0"}),
    ("d2-balanced", "mp", {"threads": 2, "fault_plan": "stale@r1.w0"}),
]


def _meta(coloring) -> dict:
    return {k: v for k, v in coloring.meta.items() if k not in _RUN_STATE_KEYS}


@contextmanager
def reference_backend():
    kernels.set_default_backend("reference")
    try:
        yield
    finally:
        kernels.set_default_backend(None)


@pytest.mark.parametrize("strategy,mode,extra", SWEEP_E2E_CASES,
                         ids=["-".join([s, m, *(f"{k}={v}" for k, v in sorted(e.items()))])
                              for s, m, e in SWEEP_E2E_CASES])
def test_sweeps_end_to_end_match_reference(strategy, mode, extra):
    graph = (erdos_renyi_graph(300, 0.03, seed=7) if strategy.startswith("d2")
             else load_dataset("cnr", scale=0.05, seed=0))
    config = RunConfig(strategy, mode=mode, **extra)
    default, default_drains = _run(graph, config)
    with reference_backend():
        oracle, oracle_drains = _run(graph, config)
    assert np.array_equal(default.colors, oracle.colors)
    assert (default.num_colors, default.strategy) == (oracle.num_colors, oracle.strategy)
    assert _meta(default) == _meta(oracle)
    assert default_drains == oracle_drains


def test_inline_transport_matches_reference():
    graph = load_dataset("cnr", scale=0.05, seed=0)
    default = shard_rounds(graph, 2)
    with reference_backend():
        oracle = shard_rounds(graph, 2)
    assert np.array_equal(default.coloring.colors, oracle.coloring.colors)
    assert _meta(default.coloring) == _meta(oracle.coloring)
    assert default.coloring.meta["rounds"] > 1

    bip = BipartiteGraph.square_cover(erdos_renyi_graph(300, 0.03, seed=7))
    runs = []
    for backend in ("vectorized", "reference"):
        runs.append(run_rounds(Neighbourhood("d2", bip.incidence, bip.num_rows), 2,
                               transport="inline", backend=backend))
    (colors, meta), (oracle_colors, oracle_meta) = runs
    assert np.array_equal(colors, oracle_colors)
    assert meta == oracle_meta and meta["rounds"] > 1


def test_repair_matches_reference():
    graph = load_dataset("cnr", scale=0.05, seed=0)
    colors = kernels.ff_sweep(graph)
    u, v = graph.edge_arrays()
    broken = colors.copy()
    broken[u[::7]] = colors[v[::7]]  # monochromatic edges to repair
    fixed, repaired = repair_coloring(graph, broken)
    oracle, oracle_repaired = repair_coloring(graph, broken, backend="reference")
    assert repaired.size > 0 and np.array_equal(repaired, oracle_repaired)
    assert np.array_equal(fixed, oracle)


# ----------------------------------------------------------------------
# sweep inputs are validated on every path
# ----------------------------------------------------------------------
_G = erdos_renyi_graph(200, 0.05, seed=1)
_BIP = BipartiteGraph.square_cover(erdos_renyi_graph(60, 0.1, seed=2))
#: (work, base_colors) for a sweep over *b* items; each is rejected
_BAD_SWEEP_ARGS = {
    "base-too-long": lambda b: (None, np.full(b + 50, -1)),
    "base-too-short": lambda b: (None, np.full(b - 1, -1)),
    "base-2d": lambda b: (None, np.full((1, b), -1)),
    "base-float": lambda b: (None, np.zeros(b)),
    "work-negative": lambda b: (np.array([-1, 4]), None),
    "work-past-end": lambda b: (np.array([b]), None),
    "work-float": lambda b: (np.array([0.0, 1.0]), None),
    "work-2d": lambda b: (np.zeros((2, 2), dtype=np.int64), None),
}
_BAD_SWEEPS = ([(fn, case) for fn in ("ff_sweep", "d2_sweep") for case in _BAD_SWEEP_ARGS]
               + [("d2_sweep", "num-rows-zero"), ("d2_sweep", "num-rows-past-n")])


def _bad_sweep_call(fn: str, case: str):
    if fn == "ff_sweep":
        work, base = _BAD_SWEEP_ARGS[case](_G.num_vertices)
        return lambda backend: kernels.ff_sweep(_G, work, base, backend=backend)
    rows, work, base = _BIP.num_rows, None, None
    if case == "num-rows-zero":
        rows = 0
    elif case == "num-rows-past-n":
        rows = _BIP.incidence.num_vertices + 1
    else:
        work, base = _BAD_SWEEP_ARGS[case](rows)
    return lambda backend: kernels.d2_sweep(_BIP.incidence, rows, work, base,
                                            backend=backend)


@pytest.mark.parametrize("path", ["reference", "numpy", "compiled"])
@pytest.mark.parametrize("fn,case", _BAD_SWEEPS, ids=[f"{f}-{c}" for f, c in _BAD_SWEEPS])
def test_sweep_rejects_bad_inputs(monkeypatch, fn, case, path):
    """Out-of-range work ids, a base of the wrong shape or dtype and a bad
    row count raise ``ValueError`` on every path, before any pointer
    reaches C (the tripwire stands in for the library)."""
    call = _bad_sweep_call(fn, case)
    monkeypatch.setattr(compiled, "_state", (_Tripwire(), None) if path == "compiled"
                        else (None, "disabled by the test"))
    with pytest.raises(ValueError):
        call("reference" if path == "reference" else "vectorized")


def test_c_sweeps_guard_graph_indices():
    """Unvalidated graphs with out-of-range indices fail cleanly in C."""
    if compiled.load() is None:
        pytest.skip(f"no compiled library: {compiled.failure_reason()}")
    dangling = CSRGraph(np.array([0, 1, 1]), np.array([5]), validate=False)
    with pytest.raises(ValueError, match="valid CSR"):
        kernels.ff_sweep(dangling)
    g = complete_graph(4)  # rows 0 and 1 touch rows, not columns
    with pytest.raises(ValueError, match="incidence"):
        kernels.d2_sweep(CSRGraph(g.indptr, g.indices, validate=False), 2)


# ----------------------------------------------------------------------
# conflict detection: oracle == NumPy fallback == dispatch (C when loaded)
# ----------------------------------------------------------------------
RULES = ["classic", "cross", "d2"]


@contextmanager
def no_library():
    """A failed load, for the length of the block (hypothesis-safe)."""
    saved = compiled._state
    compiled._state = (None, "disabled by the test")
    try:
        yield
    finally:
        compiled._state = saved


def detect_call(rule: str, graph, colors, work, cols=None):
    """``backend -> retry set`` for *rule*; *graph* is a BipartiteGraph for d2."""
    if rule == "d2":
        return lambda backend: kernels.d2_conflicts(
            graph.incidence, graph.num_rows, colors, work, cols=cols,
            backend=backend)
    fn = kernels.detect_conflicts if rule == "classic" else kernels.detect_cross_conflicts
    return lambda backend: fn(graph, colors, work, backend=backend)


def three_detects(rule: str, graph, colors, work, cols=None) -> list[np.ndarray]:
    """The oracle, the NumPy fallback and the default dispatch."""
    call = detect_call(rule, graph, colors, work, cols)
    with no_library():
        fallback = call("vectorized")
    return [call("reference"), fallback, call(None)]


def assert_same_retries(outs: list[np.ndarray]) -> np.ndarray:
    want = outs[0]
    assert want.dtype == np.int64 and np.array_equal(want, np.unique(want))
    for got in outs[1:]:
        assert got.dtype == np.int64 and np.array_equal(want, got)
    return want


def detect_inputs(size: int, kind: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """``(colors, work)`` over items ``[0, size)``, some colors -1.

    ``full`` puts every item in work, ``subset`` a random subset in
    random order with repeats, ``empty`` none.  Few colors make
    conflicts common.
    """
    colors = rng.integers(-1, rng.integers(1, 5), size=size).astype(np.int64)
    if kind == "full":
        return colors, np.arange(size, dtype=np.int64)
    if kind == "empty":
        return colors, np.empty(0, dtype=np.int64)
    return colors, rng.integers(0, size, size=rng.integers(0, 2 * size + 1))


def _adjacent_cols(bip, work) -> np.ndarray:
    inc = bip.incidence
    return np.unique(np.concatenate(
        [inc.indices[inc.indptr[r]:inc.indptr[r + 1]] for r in work] or [[]])
    ).astype(np.int64)


class TestDetectDifferential:
    @settings(max_examples=150, deadline=None)
    @given(graph=simple_graphs(), rule=st.sampled_from(["classic", "cross"]),
           kind=st.sampled_from(["full", "subset", "empty"]),
           seed=st.integers(0, 2**32 - 1))
    def test_d1_rules(self, graph, rule, kind, seed):
        colors, work = detect_inputs(graph.num_vertices, kind,
                                     np.random.default_rng(seed))
        assert_same_retries(three_detects(rule, graph, colors, work))

    @settings(max_examples=150, deadline=None)
    @given(bip=incidences(), kind=st.sampled_from(["full", "subset", "empty"]),
           seed=st.integers(0, 2**32 - 1))
    def test_d2_rule(self, bip, kind, seed):
        colors, work = detect_inputs(bip.num_rows, kind, np.random.default_rng(seed))
        assert_same_retries(three_detects("d2", bip, colors, work))

    @settings(max_examples=100, deadline=None)
    @given(bip=incidences(), parts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_d2_cols_subsets_union_to_the_full_scan(self, bip, parts, seed):
        """Each column subset keeps its per-column meaning on every path,
        and the subsets of a partition union to the full scan."""
        rng = np.random.default_rng(seed)
        colors, work = detect_inputs(bip.num_rows, "subset", rng)
        full = assert_same_retries(three_detects("d2", bip, colors, work))
        cols = rng.permutation(_adjacent_cols(bip, work))
        union = [assert_same_retries(three_detects("d2", bip, colors, work, share))
                 for share in np.array_split(cols, parts)]
        assert np.array_equal(full, np.unique(np.concatenate(union)))

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("kind", ["full", "subset", "empty"])
    def test_fixed_graphs(self, rule, kind):
        graphs = [empty_graph(1), star_graph(30), complete_graph(9),
                  erdos_renyi_graph(300, 0.04, seed=3)]
        for graph in graphs:
            item = BipartiteGraph.square_cover(graph) if rule == "d2" else graph
            size = item.num_rows if rule == "d2" else graph.num_vertices
            for seed in range(4):
                colors, work = detect_inputs(size, kind, np.random.default_rng(seed))
                assert_same_retries(three_detects(rule, item, colors, work))

    def test_stale_snapshot_finalized_higher_neighbor(self):
        """Vertex 0 speculated against a stale snapshot and took the color
        of its finalized higher-id neighbor 1: the classic rule misses it,
        the cross and d2 rules retry 0, and every path agrees."""
        graph = from_edge_arrays(np.array([0, 1]), np.array([1, 2]), num_vertices=3)
        colors = np.array([5, 5, 2], dtype=np.int64)
        work = np.array([0], dtype=np.int64)
        cover = BipartiteGraph.square_cover(graph)
        assert assert_same_retries(three_detects("classic", graph, colors, work)).size == 0
        assert assert_same_retries(three_detects("cross", graph, colors, work)).tolist() == [0]
        assert assert_same_retries(three_detects("d2", cover, colors, work)).tolist() == [0]
        # the finalized neighbor in work too: the classic rule retries the higher id
        both = np.array([0, 1], dtype=np.int64)
        for rule, item in (("classic", graph), ("cross", graph), ("d2", cover)):
            assert assert_same_retries(three_detects(rule, item, colors, both)).tolist() == [1]

    def test_out_of_core_graph(self, tmp_path):
        from repro.graph.store import load_graph, save_graph

        graph = load_dataset("cnr", scale=0.05, seed=0)
        mapped = load_graph(save_graph(graph, tmp_path / "g.csrg"))
        assert mapped.out_of_core
        colors, work = detect_inputs(graph.num_vertices, "subset",
                                     np.random.default_rng(2))
        for rule in ("classic", "cross"):
            want = assert_same_retries(three_detects(rule, graph, colors, work))
            assert want.size
            assert_same_retries([want, *three_detects(rule, mapped, colors, work)])

    def test_dispatch_runs_c_when_loaded(self, monkeypatch):
        if compiled.load() is None:
            pytest.skip(f"no compiled library: {compiled.failure_reason()}")
        graph = erdos_renyi_graph(200, 0.05, seed=1)
        bip = BipartiteGraph.square_cover(graph)
        colors, work = detect_inputs(200, "subset", np.random.default_rng(3))
        want = {rule: detect_call(rule, bip if rule == "d2" else graph, colors,
                                  work)("reference") for rule in RULES}
        assert all(w.size for w in want.values())
        for mod, name in ((kernels.conflicts, "detect_conflicts"),
                          (kernels.conflicts, "detect_cross_conflicts"),
                          (vectorized, "d2_conflicts"), (reference, "d2_conflicts")):
            monkeypatch.setattr(mod, name,
                                lambda *a: pytest.fail("the NumPy scan ran, not C"))
        for rule in RULES:
            got = detect_call(rule, bip if rule == "d2" else graph, colors, work)(None)
            assert np.array_equal(want[rule], got)

    def test_c_guards_graph_indices(self):
        """Unvalidated graphs with out-of-range indices fail cleanly in C."""
        if compiled.load() is None:
            pytest.skip(f"no compiled library: {compiled.failure_reason()}")
        dangling = CSRGraph(np.array([0, 1, 1]), np.array([5]), validate=False)
        colors, work = np.zeros(2, dtype=np.int64), np.array([0])
        for fn in (kernels.detect_conflicts, kernels.detect_cross_conflicts):
            with pytest.raises(ValueError, match="valid CSR"):
                fn(dangling, colors, work)
        g = complete_graph(4)  # rows 0 and 1 touch rows, not columns
        with pytest.raises(ValueError, match="incidence"):
            kernels.d2_conflicts(CSRGraph(g.indptr, g.indices, validate=False), 2,
                                 colors)


_DG = erdos_renyi_graph(50, 0.1, seed=1)
#: (colors, work) for a detection over *b* items; each is rejected
_BAD_DETECT_ARGS = {
    "work-negative": lambda b: (np.zeros(b, dtype=np.int64), np.array([-1])),
    "work-past-end": lambda b: (np.zeros(b, dtype=np.int64), np.array([b])),
    "work-float": lambda b: (np.zeros(b, dtype=np.int64), np.array([0.0])),
    "work-2d": lambda b: (np.zeros(b, dtype=np.int64), np.zeros((1, 2), dtype=np.int64)),
    "colors-short": lambda b: (np.zeros(b - 1, dtype=np.int64), np.array([0])),
    "colors-long": lambda b: (np.zeros(b + 1, dtype=np.int64), np.array([0])),
    "colors-float": lambda b: (np.zeros(b), np.array([0])),
    "colors-2d": lambda b: (np.zeros((1, b), dtype=np.int64), np.array([0])),
}
_BAD_COLS = {
    "cols-a-row": lambda bip: np.array([0]),
    "cols-past-end": lambda bip: np.array([bip.incidence.num_vertices]),
    "cols-float": lambda bip: np.array([float(bip.num_rows)]),
}
_BAD_DETECTS = ([(rule, case) for rule in RULES for case in _BAD_DETECT_ARGS]
                + [("d2", case) for case in _BAD_COLS])


def _bad_detect_call(rule: str, case: str):
    if rule != "d2":
        return detect_call(rule, _DG, *_BAD_DETECT_ARGS[case](_DG.num_vertices))
    if case in _BAD_COLS:
        return detect_call(rule, _BIP, np.zeros(_BIP.num_rows, dtype=np.int64),
                           np.array([0]), _BAD_COLS[case](_BIP))
    return detect_call(rule, _BIP, *_BAD_DETECT_ARGS[case](_BIP.num_rows))


@pytest.mark.parametrize("path", ["reference", "numpy", "compiled"])
@pytest.mark.parametrize("rule,case", _BAD_DETECTS, ids=[f"{r}-{c}" for r, c in _BAD_DETECTS])
def test_detect_rejects_bad_inputs(monkeypatch, rule, case, path):
    """Out-of-range work or column ids and colors of the wrong shape or
    dtype raise ``ValueError`` on every path, before any pointer reaches
    C (the tripwire stands in for the library)."""
    call = _bad_detect_call(rule, case)
    monkeypatch.setattr(compiled, "_state", (_Tripwire(), None) if path == "compiled"
                        else (None, "disabled by the test"))
    with pytest.raises(ValueError):
        call("reference" if path == "reference" else "vectorized")


# ----------------------------------------------------------------------
# verification: oracle == fallback == dispatch (C when loaded)
# ----------------------------------------------------------------------
VERIFY_KINDS = ["proper", "improper", "sparse", "uncolored"]


def verify_colors(kind: str, proper: np.ndarray, rng) -> np.ndarray:
    """Colors over ``len(proper)`` items, some -1, from a proper coloring.

    ``proper`` keeps the coloring (properness survives uncoloring),
    ``improper`` draws from few colors so conflicts are common,
    ``sparse`` spreads improper color ids far apart, ``uncolored`` has
    no color at all.
    """
    size = proper.shape[0]
    if kind == "uncolored":
        return np.full(size, -1, dtype=np.int64)
    colors = (proper.copy() if kind == "proper"
              else rng.integers(0, rng.integers(1, 5), size=size).astype(np.int64))
    if kind == "sparse":
        colors = colors * 10**12 + 7
    colors[rng.random(size) < 0.2] = -1
    return colors


def verify_call(hops: int, item, colors):
    """``backend -> result`` of the D1 count or the D2 first column."""
    if hops == 1:
        return lambda backend: kernels.count_monochromatic_edges(item, colors,
                                                                 backend=backend)
    return lambda backend: kernels.d2_violating_column(
        item.incidence, item.num_rows, colors, backend=backend)


def three_verifies(hops: int, item, colors) -> list[int]:
    """The oracle, the fallback and the default dispatch."""
    call = verify_call(hops, item, colors)
    with no_library():
        fallback = call("vectorized")
    return [call("reference"), fallback, call(None)]


def assert_same_verdict(outs: list[int]) -> int:
    assert all(type(x) is int for x in outs) and len(set(outs)) == 1, outs
    return outs[0]


def d1_truth(graph, colors) -> int:
    u, v = graph.edge_arrays()
    return int(np.count_nonzero((colors[u] == colors[v]) & (colors[u] >= 0)))


def d2_truth(bip, colors) -> int:
    for c in range(bip.num_cols):
        rows = bip.rows_of_col(c)
        held = colors[rows][colors[rows] >= 0]
        if len(set(held.tolist())) != held.size:
            return c
    return -1


def proper_d1(graph) -> np.ndarray:
    return kernels.ff_sweep(graph)


def proper_d2(bip) -> np.ndarray:
    return kernels.d2_sweep(bip.incidence, bip.num_rows)


@contextmanager
def verifier_path(path: str):
    """Run the verifiers on the oracle, the fallback or the default dispatch."""
    if path == "oracle":
        with reference_backend():
            yield
    elif path == "fallback":
        with no_library():
            yield
    else:
        yield


def outcome(fn):
    """What *fn* returns, or the type and message of what it raises."""
    try:
        return fn()
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def violations_key(violations) -> list:
    return [(v.kind, v.vertices.tolist(), v.detail) for v in violations]


class TestVerifyDifferential:
    @settings(max_examples=150, deadline=None)
    @given(graph=simple_graphs(), kind=st.sampled_from(VERIFY_KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_d1_count(self, graph, kind, seed):
        colors = verify_colors(kind, proper_d1(graph), np.random.default_rng(seed))
        got = assert_same_verdict(three_verifies(1, graph, colors))
        assert got == d1_truth(graph, colors)
        if kind in ("proper", "uncolored"):
            assert got == 0

    @settings(max_examples=150, deadline=None)
    @given(bip=incidences(), kind=st.sampled_from(VERIFY_KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_d2_first_column(self, bip, kind, seed):
        colors = verify_colors(kind, proper_d2(bip), np.random.default_rng(seed))
        got = assert_same_verdict(three_verifies(2, bip, colors))
        assert got == d2_truth(bip, colors)
        if kind in ("proper", "uncolored"):
            assert got == -1

    @pytest.mark.parametrize("kind", VERIFY_KINDS)
    def test_fixed_graphs(self, kind):
        rng = np.random.default_rng(4)
        graphs = [empty_graph(0), empty_graph(5), star_graph(30), complete_graph(9),
                  erdos_renyi_graph(300, 0.04, seed=3)]
        for graph in graphs:
            colors = verify_colors(kind, proper_d1(graph), rng)
            assert assert_same_verdict(three_verifies(1, graph, colors)) == \
                d1_truth(graph, colors)
        bips = [BipartiteGraph.from_incidence(empty_graph(4), 4),  # no columns
                BipartiteGraph.from_incidence(empty_graph(7), 3),  # no nonzeros
                BipartiteGraph.from_incidence(jacobian_band_pattern(80, 20, 3, seed=1), 80),
                *(BipartiteGraph.square_cover(g) for g in graphs[1:])]
        for bip in bips:
            colors = verify_colors(kind, proper_d2(bip), rng)
            assert assert_same_verdict(three_verifies(2, bip, colors)) == \
                d2_truth(bip, colors)

    def test_out_of_core_graph(self, tmp_path, monkeypatch):
        """Mapped graphs give the same verdicts, and C reads them in place."""
        from repro.graph.store import load_graph, save_graph

        graph = load_dataset("cnr", scale=0.05, seed=0)
        inc = BipartiteGraph.from_incidence(jacobian_band_pattern(400, 80, 4, seed=2),
                                            400).incidence
        mapped = load_graph(save_graph(graph, tmp_path / "g.csrg"))
        mapped_bip = BipartiteGraph.from_incidence(
            load_graph(save_graph(inc, tmp_path / "inc.csrg")), 400)
        assert mapped.out_of_core and mapped_bip.incidence.out_of_core
        rng = np.random.default_rng(5)
        cases = [(1, graph, mapped, verify_colors(kind, proper_d1(graph), rng))
                 for kind in VERIFY_KINDS]
        cases += [(2, BipartiteGraph.from_incidence(inc, 400), mapped_bip,
                   verify_colors(kind, proper_d2(mapped_bip), rng))
                  for kind in VERIFY_KINDS]
        for hops, item, mapped_item, colors in cases:
            want = assert_same_verdict(three_verifies(hops, item, colors))
            assert_same_verdict([want, *three_verifies(hops, mapped_item, colors)])
        if compiled.load() is None:
            return
        for name in ("edge_arrays", "edge_chunks"):
            monkeypatch.setattr(CSRGraph, name,
                                lambda *a, **k: pytest.fail("edge list built"))
        for hops, _, mapped_item, colors in cases:
            verify_call(hops, mapped_item, colors)(None)

    def test_dispatch_runs_c_when_loaded(self, monkeypatch):
        if compiled.load() is None:
            pytest.skip(f"no compiled library: {compiled.failure_reason()}")
        graph = erdos_renyi_graph(200, 0.05, seed=1)
        bip = BipartiteGraph.square_cover(graph)
        colors = verify_colors("improper", proper_d1(graph), np.random.default_rng(3))
        want = [verify_call(h, item, colors)("reference")
                for h, item in ((1, graph), (2, bip))]
        assert want[0] > 0 and want[1] >= 0
        monkeypatch.setattr(kernels.conflicts, "count_monochromatic_edges",
                            lambda *a: pytest.fail("the NumPy scan ran, not C"))
        monkeypatch.setattr(reference, "d2_violating_column",
                            lambda *a: pytest.fail("the Python loop ran, not C"))
        got = [verify_call(h, item, colors)(None) for h, item in ((1, graph), (2, bip))]
        assert got == want
        assert not is_proper(graph, colors) and not is_partial_d2_proper(bip, colors)

    def test_c_guards_graph_indices(self):
        """Unvalidated graphs with out-of-range indices fail cleanly in C."""
        if compiled.load() is None:
            pytest.skip(f"no compiled library: {compiled.failure_reason()}")
        colors = np.zeros(2, dtype=np.int64)
        for bad in (CSRGraph(np.array([0, 1, 1]), np.array([5]), validate=False),
                    CSRGraph(np.array([0, 1, 1]), np.array([-1]), validate=False),
                    CSRGraph(np.array([0, 3, 1]), np.array([1]), validate=False)):
            with pytest.raises(ValueError, match="valid CSR"):
                kernels.count_monochromatic_edges(bad, colors)
        g = complete_graph(4)  # column 2 touches column 3 after two rows
        with pytest.raises(ValueError, match="incidence"):
            kernels.d2_violating_column(CSRGraph(g.indptr, g.indices, validate=False),
                                        2, np.array([0, 1]))

    @pytest.mark.parametrize("kind", ["improper", "sparse", "uncolored"])
    def test_messages_and_violations_match(self, kind):
        """assert_* messages, verdicts and heal's violation lists are the
        same on the oracle, the fallback and the default dispatch."""
        graph = load_dataset("cnr", scale=0.05, seed=0)
        bip = BipartiteGraph.square_cover(erdos_renyi_graph(300, 0.03, seed=7))
        rng = np.random.default_rng(8)
        colors = verify_colors(kind, proper_d1(graph), rng)
        full = np.where(colors < 0, 0, colors)  # colored, so the edge is named
        rows = verify_colors(kind, proper_d2(bip), rng)
        checks = [
            lambda: assert_proper(graph, colors),
            lambda: assert_proper(graph, full),
            lambda: (is_proper(graph, full), count_conflicts(graph, colors),
                     conflicting_vertices(graph, colors).tolist()),
            lambda: violations_key(check_invariants(graph, colors, 3)),
            lambda: violations_key(check_invariants(graph, full)),
            lambda: assert_partial_d2_proper(bip, rows),
            lambda: assert_partial_d2_proper(bip, rows, require_total=True),
            lambda: is_partial_d2_proper(bip, rows),
        ]
        runs = {}
        for path in ("oracle", "fallback", "default"):
            with verifier_path(path):
                runs[path] = [outcome(check) for check in checks]
        assert runs["oracle"] == runs["fallback"] == runs["default"]
        assert runs["oracle"][1][1].startswith("edge (")
        if kind != "uncolored":
            assert runs["oracle"][5][1].startswith("distance-2 violation")


#: a 6-vertex, 13-edge graph: K6 without the edges {0, 5} and {1, 4}
_K6_MINUS = from_edge_arrays(*np.array([(u, v) for u in range(6) for v in range(u + 1, 6)
                                        if (u, v) not in ((0, 5), (1, 4))]).T,
                             num_vertices=6)
_COVER = BipartiteGraph.square_cover(_K6_MINUS)
_D1_CHECKS = {
    "is_proper": lambda c: is_proper(_K6_MINUS, c),
    "assert_proper": lambda c: assert_proper(_K6_MINUS, c),
    "count_conflicts": lambda c: count_conflicts(_K6_MINUS, c),
    "conflicting_vertices": lambda c: conflicting_vertices(_K6_MINUS, c),
    "check_invariants": lambda c: check_invariants(_K6_MINUS, c),
    "count_monochromatic_edges": lambda c: kernels.count_monochromatic_edges(_K6_MINUS, c),
}
_D2_CHECKS = {
    "is_partial_d2_proper": lambda c: is_partial_d2_proper(_COVER, c),
    "assert_partial_d2_proper": lambda c: assert_partial_d2_proper(_COVER, c),
    "d2_violating_column": lambda c: kernels.d2_violating_column(
        _COVER.incidence, _COVER.num_rows, c),
}
_BAD_COLORS = {
    "float": [0.5, 1.2, 2.7, 3.1, 4.9, 5.0],
    "2d": np.arange(6).reshape(6, 1),
    "short": np.arange(5),
    "long": np.arange(7),
    "bool": np.ones(6, dtype=bool),
}
_BAD_VERIFIES = ([(name, case) for name in _D1_CHECKS for case in _BAD_COLORS]
                 + [(name, case) for name in _D2_CHECKS
                    for case in [*_BAD_COLORS, "below-minus-one"]])


@pytest.mark.parametrize("path", ["reference", "numpy", "compiled"])
@pytest.mark.parametrize("name,case", _BAD_VERIFIES,
                         ids=[f"{n}-{c}" for n, c in _BAD_VERIFIES])
def test_verifiers_reject_malformed_colors(monkeypatch, name, case, path):
    """Non-integer, non-1-D or wrong-length colors, and D2 colors below -1,
    raise ``ValueError`` on every path before any pointer reaches C --
    except a 1-D length mismatch in ``assert_proper``, which stays an
    ``AssertionError``."""
    check = {**_D1_CHECKS, **_D2_CHECKS}[name]
    colors = (np.array([-2, -2, 1, 2, 3, 4]) if case == "below-minus-one"
              else _BAD_COLORS[case])
    monkeypatch.setattr(compiled, "_state", (_Tripwire(), None) if path == "compiled"
                        else (None, "disabled by the test"))
    if path == "reference":
        monkeypatch.setattr(kernels, "_override", "reference")
    error = (AssertionError if name == "assert_proper" and case in ("short", "long")
             else ValueError)
    with pytest.raises(error):
        check(colors)


# ----------------------------------------------------------------------
# fork safety of the loader
# ----------------------------------------------------------------------
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_loads_while_another_thread_holds_the_lock(monkeypatch):
    """A child forked while a thread holds the loader lock must not inherit
    it locked: its first ``load()`` returns instead of hanging."""
    compiled.load()  # the cache is warm, so the child only opens it
    monkeypatch.setattr(compiled, "_state", None)
    held, release = threading.Event(), threading.Event()

    def holder():
        with compiled._lock:
            held.set()
            release.wait(30)

    thread = threading.Thread(target=holder)
    thread.start()
    assert held.wait(10)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: report through the exit status only
            try:
                compiled.load()
            finally:
                os._exit(0)
        deadline = time.monotonic() + 5.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's first load() hung on the lock")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_warm_pool_loads_the_library_before_forking(monkeypatch):
    monkeypatch.setattr(compiled, "_state", None)
    pool = WarmPool()
    try:
        pool.ensure(1)
        assert compiled._state is not None
    finally:
        pool.shutdown()
