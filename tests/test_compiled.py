"""Compiled C loops against their Python oracles, and the fallback path.

:mod:`repro.kernels.compiled` compiles the D2 drain pass and the
Sched-Rev commit loop; :mod:`repro.kernels.reference` keeps the Python
loops.  A resolved ``reference`` backend always runs Python, any other
resolution runs C when it loaded, and both must agree bit for bit.  When
the library cannot be built or loaded, every kernel runs Python, gives
the same answer and reports why.
"""

from __future__ import annotations

import os
import sys
import threading
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
from repro.kernels import compiled
from repro.obs import Recorder
from repro.run import RunConfig, execute


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
