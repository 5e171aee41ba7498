"""Compiled C loops against their Python oracles, and the fallback path.

:mod:`repro.kernels.compiled` compiles the First-Fit and one-sided D2
sweeps, the D2 drain pass and the Sched-Rev commit loop;
:mod:`repro.kernels.reference` keeps the Python loops.  A resolved
``reference`` backend always runs Python, any other resolution runs C
when it loaded, and both must agree bit for bit.  When the library
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
from repro.bipartite import BipartiteGraph
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
from repro.resilience import repair_coloring
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
# sweeps end to end: the default dispatch == the reference loops
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
