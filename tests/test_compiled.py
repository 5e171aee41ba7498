"""Every dispatched kernel against its oracle, from one table.

Each kernel of :mod:`repro.kernels` has two tiers: a resolved
``reference`` backend runs the oracle (a Python loop or NumPy scan of
:mod:`repro.kernels.reference`, the one oracle module), and any other
backend runs the C loop of :mod:`repro.kernels.compiled` if the library
loaded, else that same oracle.  The C loops are the exported functions
of ``compiled.SOURCE``, whose prototypes are the only signature list
(:func:`repro.kernels.compiled.signatures`).

``KERNELS`` has one row per public kernel: the dispatch call, the oracle
it must match, an input generator (hypothesis, plus fixed graphs) and its
malformed-input cases.  Three generic checks run over it:

1. :func:`assert_c_matches_oracle`: the oracle, the library-disabled path
   and the default dispatch (C when the library loaded) agree bit for bit;
2. :func:`assert_rejected`: malformed input raises ``ValueError`` on the
   reference, library-disabled and tripwire-C paths;
3. :func:`assert_dispatch_runs_c`: the default dispatch runs C when the
   library loaded, never the oracle.

The test classes bind the checks to the rows of one kernel family each.
:func:`test_every_c_loop_has_a_row` runs the fixed cases of every row and
requires them to call every exported C loop, so a loop cannot land
without a row.  A few end-to-end runs and the loader's build, cache and
fork behaviour are tested at the end.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.bipartite import (
    BipartiteGraph,
    assert_partial_d2_proper,
    is_partial_d2_proper,
    mp_partial_d2,
    optimistic_partial_d2,
)
from repro.coloring import STRATEGIES, assert_distance2_proper
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
from repro.graph.datasets import DATASETS
from repro.graph.store import INDICES, load_graph, save_graph
from repro.kernels import compiled, reference
from repro.obs import Recorder
from repro.parallel.mp import Neighbourhood, partition_positions, run_rounds
from repro.parallel.partition import block_partition
from repro.resilience import check_invariants, repair_coloring
from repro.run import RunConfig, execute


# ----------------------------------------------------------------------
# dispatch paths
# ----------------------------------------------------------------------
class _Tripwire:
    def __getattr__(self, name):
        raise AssertionError(f"C kernel {name} called with malformed input")


#: ``reference`` selects the oracle by backend name; ``numpy`` disables
#: the library, so the oracle runs (a Python loop or a NumPy scan);
#: ``compiled`` puts a tripwire where the library would be
PATHS = ("reference", "numpy", "compiled")


@contextmanager
def on_path(path: str):
    """Send every kernel call in the block down *path* (``default``: as is).

    ``reference`` opens a :func:`repro.kernels.use_backend` scope; the
    other two set and restore the library state directly, so they are
    safe inside hypothesis examples and in a process where the library
    failed to load.
    """
    if path not in ("numpy", "compiled"):
        with kernels.use_backend("reference" if path == "reference" else None):
            yield
        return
    saved = compiled._state
    compiled._state = ((None, "disabled by the test") if path == "numpy"
                       else (_Tripwire(), None))
    try:
        yield
    finally:
        compiled._state = saved


def assert_same(want, got):
    """Bit for bit: arrays in dtype and value, scalars in type and value."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(want) == len(got)
        for w, x in zip(want, got):
            assert_same(w, x)
    elif isinstance(want, np.ndarray):
        assert want.dtype == got.dtype and np.array_equal(want, got)
    else:
        assert want == got and type(want) is type(got), (want, got)


# ----------------------------------------------------------------------
# inputs: each case is the argument tuple of one dispatch call
# ----------------------------------------------------------------------
SEEDS = st.integers(0, 2**32 - 1)


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


def head(item) -> tuple:
    """The leading arguments for *item*: ``(graph,)``, or ``(incidence,
    num_rows)`` for a bipartite graph."""
    return (item.incidence, item.num_rows) if isinstance(item, BipartiteGraph) else (item,)


def size_of(item) -> int:
    """The number of colored items: rows of an incidence, else vertices."""
    return item.num_rows if isinstance(item, BipartiteGraph) else item.num_vertices


SWEEP_KINDS = ["full", "partial", "reverse", "empty"]


def sweep_case(item, kind: str, seed: int) -> tuple:
    """``(*head, work, base)`` for one sweep over the items of *item*.

    ``full`` is id order over an uncolored base; ``partial`` a random
    subset in random order over a stale random base holding -1 and colors
    past every window; ``reverse`` the classes of a random coloring in
    decreasing order (iterated greedy's visit order); ``empty`` no work.
    """
    n, rng = size_of(item), np.random.default_rng(seed)
    uncolored = np.full(n, -1, dtype=np.int64)
    if kind == "full":
        return *head(item), np.arange(n, dtype=np.int64), uncolored
    if kind == "empty":
        return *head(item), np.empty(0, dtype=np.int64), rng.integers(-1, 4, size=n)
    base = rng.integers(-1, n + 3, size=n).astype(np.int64)
    base[rng.random(n) < 0.1] = 2**40
    if kind == "reverse":
        return *head(item), np.argsort(-base, kind="stable").astype(np.int64), uncolored
    return *head(item), rng.permutation(n)[: rng.integers(0, n + 1)].astype(np.int64), base


CAPACITY_KINDS = ["recoloring", "random", "tiny", "empty"]


def capacity_case(graph, kind: str, seed: int) -> tuple:
    """``(graph, order, capacity)`` for one capacity sweep.

    ``recoloring`` is Balanced Recoloring's call: the reverse classes of
    a First-Fit coloring under γ = n / C; ``random`` a random subset of
    the vertices in random order under a fractional or whole γ; ``tiny``
    every vertex under γ = 0.5, so each bin holds one vertex and the
    sweep opens colors far past any first-fit count; ``empty`` no order.
    """
    n, rng = graph.num_vertices, np.random.default_rng(seed)
    if kind == "empty":
        return graph, np.empty(0, dtype=np.int64), float(rng.integers(-1, 3))
    if kind == "recoloring":
        colors = kernels.ff_sweep(graph)
        order = np.argsort(-colors, kind="stable").astype(np.int64)
        return graph, order, n / (int(colors.max(initial=-1)) + 1 or 1)
    if kind == "tiny":
        return graph, rng.permutation(n).astype(np.int64), 0.5
    order = rng.permutation(n)[: rng.integers(0, n + 1)].astype(np.int64)
    capacity = (float(rng.integers(1, n + 2)) if rng.random() < 0.5
                else float(rng.uniform(0.3, n + 1)))
    return graph, order, capacity


DETECT_KINDS = ["full", "subset", "empty"]


def detect_case(item, kind: str, seed: int) -> tuple:
    """``(*head, colors, work)`` over the items of *item*, some colors -1.

    ``full`` puts every item in work, ``subset`` a random subset in
    random order with repeats, ``empty`` none.  Few colors make
    conflicts common.
    """
    size, rng = size_of(item), np.random.default_rng(seed)
    colors = rng.integers(-1, rng.integers(1, 5), size=size).astype(np.int64)
    if kind == "full":
        return *head(item), colors, np.arange(size, dtype=np.int64)
    if kind == "empty":
        return *head(item), colors, np.empty(0, dtype=np.int64)
    return *head(item), colors, rng.integers(0, size, size=rng.integers(0, 2 * size + 1))


VERIFY_KINDS = ["proper", "improper", "sparse", "uncolored"]


def verify_case(item, kind: str, seed: int) -> tuple:
    """``(*head, colors)``, some colors -1, drawn from a proper coloring.

    ``proper`` keeps the coloring (properness survives uncoloring),
    ``improper`` draws from few colors so conflicts are common,
    ``sparse`` spreads improper color ids far apart, ``uncolored`` has
    no color at all.
    """
    size, rng = size_of(item), np.random.default_rng(seed)
    if kind == "uncolored":
        return *head(item), np.full(size, -1, dtype=np.int64)
    sweep = kernels.d2_sweep if isinstance(item, BipartiteGraph) else kernels.ff_sweep
    colors = (sweep(*head(item)) if kind == "proper"
              else rng.integers(0, rng.integers(1, 5), size=size).astype(np.int64))
    if kind == "sparse":
        colors = colors * 10**12 + 7
    colors[rng.random(size) < 0.2] = -1
    return *head(item), colors


def drain_case(bip, C: int, seed: int, choice: str, free_mask: bool = False) -> tuple:
    """``(incidence, num_rows, colors, sizes, under, g, candidates, choice)``.

    Some rows are -1.  The drain keeps ``under == (sizes < g)``; with
    *free_mask* the mask is random instead, which the two tiers must also
    agree on.
    """
    rng = np.random.default_rng(seed)
    colors = rng.integers(-1, C, size=bip.num_rows).astype(np.int64)
    sizes = np.bincount(colors[colors >= 0], minlength=C).astype(np.float64)
    g = float((colors >= 0).sum()) / C
    under = np.zeros(C + 1, dtype=bool)
    under[:C] = rng.random(C) < 0.5 if free_mask else sizes < g
    colored = np.nonzero(colors >= 0)[0]
    candidates = rng.permutation(colored)[: rng.integers(0, colored.size + 1)]
    return *head(bip), colors, sizes, under, g, candidates, choice


def swap_only_case(class_sizes: list[int], choice: str) -> tuple:
    """A drain case whose only under-full targets are one row smaller than
    their sources, on rows that share no column: a move would just swap
    two sizes and leave Σ sizes² as it was, so :func:`_drain_ok` holds
    only if the pass commits none."""
    C = len(class_sizes)
    colors = np.repeat(np.arange(C, dtype=np.int64), class_sizes)
    bip = BipartiteGraph.from_matrix_pattern([], [], num_rows=colors.size, num_cols=1)
    sizes = np.array(class_sizes, dtype=np.float64)
    g = colors.size / C
    under = np.append(sizes < g, False)
    return *head(bip), colors, sizes, under, g, np.arange(colors.size), choice


def shuffle_case(graph, choice: str, traversal: str, weight: str) -> tuple:
    """``(graph, colors, sizes, g, choice, traversal, vertex_w)``: the drain
    :func:`repro.coloring.shuffle_balance` runs on a First-Fit coloring."""
    colors = kernels.ff_sweep(graph)
    C = int(colors.max(initial=-1)) + 1
    vertex_w = (np.ones(graph.num_vertices) if weight == "unit"
                else graph.degrees.astype(np.float64) + 1.0)
    sizes = np.zeros(C)
    np.add.at(sizes, colors, vertex_w)
    return (graph, colors, sizes, float(vertex_w.sum()) / C if C else 0.0, choice,
            traversal, vertex_w)


SHUFFLE_VARIANTS = [(c, t, w) for c in ("ff", "lu") for t in ("vertex", "color")
                    for w in ("unit", "degree")]


def commit_case(graph, C: int, seed: int, length: int | None = None) -> tuple:
    """``(graph, colors, vertices, targets)``: a random plan of moves."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    colors = rng.integers(0, C, size=n).astype(np.int64)
    if length is None:
        length = rng.integers(0, 2 * n + 1)
    vertices = rng.integers(0, max(n, 1), size=length if n else 0)
    return graph, colors, vertices, rng.integers(0, C, size=vertices.size)


def d1_truth(graph, colors) -> int:
    u, v = graph.edge_arrays()
    return int(np.count_nonzero((colors[u] == colors[v]) & (colors[u] >= 0)))


def d2_truth(inc, num_rows, colors) -> int:
    for c in range(num_rows, inc.num_vertices):
        held = colors[inc.indices[inc.indptr[c]:inc.indptr[c + 1]]]
        held = held[held >= 0]
        if len(set(held.tolist())) != held.size:
            return c - num_rows
    return -1


# fixed graphs: built when a case runs, not at import
D1_GRAPHS = {
    "single": lambda: empty_graph(1),
    "isolated": lambda: empty_graph(9),
    "star": lambda: star_graph(40),
    "clique": lambda: complete_graph(12),
    "er": lambda: erdos_renyi_graph(300, 0.04, seed=3),
}
D2_GRAPHS = {
    "no-edges": lambda: BipartiteGraph.from_matrix_pattern([], [], num_rows=5, num_cols=1),
    "star-cover": lambda: BipartiteGraph.square_cover(star_graph(30)),
    "clique-cover": lambda: BipartiteGraph.square_cover(complete_graph(9)),
    "band-cover": lambda: BipartiteGraph.square_cover(
        jacobian_band_pattern(60, 15, 3, seed=1)),
    "band": lambda: BipartiteGraph.from_incidence(
        jacobian_band_pattern(200, 50, 5, seed=2), 200),
}
DETECT_GRAPHS = [lambda: empty_graph(1), lambda: star_graph(30),
                 lambda: complete_graph(9), lambda: erdos_renyi_graph(300, 0.04, seed=3)]
VERIFY_GRAPHS = [lambda: empty_graph(0), lambda: empty_graph(5), lambda: star_graph(30),
                 lambda: complete_graph(9), lambda: erdos_renyi_graph(300, 0.04, seed=3)]
VERIFY_INCIDENCES = [
    lambda: BipartiteGraph.from_incidence(empty_graph(4), 4),  # no columns
    lambda: BipartiteGraph.from_incidence(empty_graph(7), 3),  # no nonzeros
    lambda: BipartiteGraph.from_incidence(jacobian_band_pattern(80, 20, 3, seed=1), 80),
    *(lambda make=make: BipartiteGraph.square_cover(make()) for make in VERIFY_GRAPHS[1:]),
]
DRAIN_GRAPHS = {
    "no-edges": D2_GRAPHS["no-edges"],
    "star": lambda: BipartiteGraph.square_cover(star_graph(12)),
    "clique": lambda: BipartiteGraph.square_cover(complete_graph(7)),
    "band-cover": lambda: BipartiteGraph.square_cover(
        jacobian_band_pattern(40, 10, 3, seed=1)),
}
# class sizes around a fractional γ, each under-full class one row below an
# over-full one
SWAP_ONLY_SIZES = [[76, 75], [76, 76, 75, 75, 75], [3, 2, 3]]
SHUFFLE_GRAPHS = {
    "no-overfull": lambda: complete_graph(8),  # one vertex per bin, all at γ
    "star-no-move": lambda: star_graph(12),  # no leaf may leave the over-full bin
    "isolated": lambda: from_edge_arrays(np.array([0, 1, 2]), np.array([1, 2, 3]),
                                         num_vertices=9),
    "er": lambda: erdos_renyi_graph(300, 0.03, seed=11),
}
COMMIT_GRAPHS = {
    "empty": lambda: empty_graph(0),
    "isolated": lambda: empty_graph(6),
    "star": lambda: star_graph(10),
    "clique": lambda: complete_graph(6),
    "band": lambda: jacobian_band_pattern(30, 10, 3, seed=2),
}


def _cases(makes, case, *params, seeds=range(4)) -> list[tuple]:
    return [case(make(), *params, seed) for make in makes for seed in seeds]


# ----------------------------------------------------------------------
# malformed inputs
# ----------------------------------------------------------------------
_G = erdos_renyi_graph(200, 0.05, seed=1)
_DG = erdos_renyi_graph(50, 0.1, seed=1)
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
#: (order, capacity) for a capacity sweep over *_G*; each is rejected
_BAD_CAPACITY_ARGS = {
    "order-negative": (np.array([-1, 4]), 5.0),
    "order-past-end": (np.array([_G.num_vertices]), 5.0),
    "order-float": (np.array([0.0, 1.0]), 5.0),
    "order-2d": (np.zeros((2, 2), dtype=np.int64), 5.0),
    "order-repeats": (np.array([3, 1, 3]), 5.0),
    "capacity-zero": (np.array([0, 1]), 0.0),
    "capacity-negative": (np.array([0]), -2.0),
    "capacity-nan": (np.array([0]), float("nan")),
    "capacity-text": (np.array([0]), "many"),
}
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
    "cols-a-row": np.array([0]),
    "cols-past-end": np.array([_BIP.incidence.num_vertices]),
    "cols-float": np.array([float(_BIP.num_rows)]),
}
#: colors over 6 items that every verifier and both checks reject
_BAD_COLORS = {
    "float": [0.5, 1.2, 2.7, 3.1, 4.9, 5.0],
    "2d": np.arange(6).reshape(6, 1),
    "short": np.arange(5),
    "long": np.arange(7),
    "bool": np.ones(6, dtype=bool),
}
_BELOW_MINUS_ONE = np.array([-2, -2, 1, 2, 3, 4])
#: a 6-vertex, 13-edge graph: K6 without the edges {0, 5} and {1, 4}
_K6_MINUS = from_edge_arrays(*np.array([(u, v) for u in range(6) for v in range(u + 1, 6)
                                        if (u, v) not in ((0, 5), (1, 4))]).T,
                             num_vertices=6)
_COVER = BipartiteGraph.square_cover(_K6_MINUS)
_NR, _C = 120, 6


def _bad(case: tuple, **override) -> tuple:
    """*case* with the named arguments replaced; *case* names them."""
    names, values = case
    return tuple({**dict(zip(names, values)), **override}.values())


_DRAIN = (("graph", "num_rows", "colors", "sizes", "under", "g", "candidates", "choice"),
          drain_case(BipartiteGraph.from_incidence(jacobian_band_pattern(_NR, 30, 4, seed=3),
                                                   _NR), _C, 5, "ff"))
_COMMIT = (("graph", "colors", "vertices", "targets"),
           commit_case(erdos_renyi_graph(150, 0.05, seed=4), 8, 6, length=200))


_SHUFFLE = (("graph", "colors", "sizes", "g", "choice", "traversal", "vertex_w"),
            shuffle_case(erdos_renyi_graph(80, 0.1, seed=5), "ff", "color", "unit"))
_SC = _SHUFFLE[1][2].size


def _ids(*xs) -> np.ndarray:
    return np.array(xs, dtype=np.int64)


@st.composite
def edge_arrays(draw):
    """``(u, v, n)``: up to 3n endpoint pairs over 0 to 30 vertices, with
    self-loops, repeats and both orientations of some edges."""
    n = draw(st.integers(0, 30))
    if n == 0:
        return _ids(), _ids(), 0
    m = draw(st.integers(0, 3 * n))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    u, v = np.asarray(draw(ids), dtype=np.int64), np.asarray(draw(ids), dtype=np.int64)
    k = draw(st.integers(0, m))
    return np.concatenate([u, v[:k]]), np.concatenate([v, u[:k]]), n


def hub_case(seed: int) -> tuple:
    """Vertex 0 joined to most of 60 others, many pairs twice or reversed."""
    rng = np.random.default_rng(seed)
    leaves = rng.integers(0, 60, size=200)
    hub = np.zeros(200, dtype=np.int64)
    return np.concatenate([hub, leaves]), np.concatenate([leaves, hub]), 60


ASSEMBLE_CASES = {
    "no-vertices": lambda: [(_ids(), _ids(), 0)],
    "isolated": lambda: [(_ids(), _ids(), 7), (_ids(0, 1), _ids(1, 0), 9)],
    "all-self-loops": lambda: [(_ids(0, 3, 3, 4), _ids(0, 3, 3, 4), 5)],
    "hub": lambda: [hub_case(seed) for seed in range(3)],
    "er": lambda: [tuple(np.random.default_rng(seed).integers(0, 300, size=(2, 3000)))
                   + (300,) for seed in range(3)],
}


def csr_case(indptr, indices) -> tuple:
    """``(graph,)``: the given CSR arrays, not validated."""
    return (CSRGraph(np.asarray(indptr, dtype=np.int64),
                     np.asarray(indices, dtype=np.int64), validate=False),)


def raw_csr_case(indptr, indices) -> tuple:
    """``(graph,)`` holding the arrays exactly as given, as unpickling leaves them."""
    graph = CSRGraph.__new__(CSRGraph)
    graph.__setstate__({"indptr": indptr, "indices": indices})
    return (graph,)


CSR_FAULTS = ("retarget", "drop", "indptr", "swap")


@st.composite
def csrs(draw):
    """``(graph,)``: a random simple graph's CSR with up to three faults: an
    entry retargeted to a vertex in [-1, n] (its row re-sorted or not), one
    direction of an edge dropped, an indptr entry nudged, or two adjacent
    entries swapped."""
    graph = draw(simple_graphs())
    n, rng = graph.num_vertices, np.random.default_rng(draw(SEEDS))
    indptr, indices = graph.indptr.copy(), graph.indices.copy()
    for fault in draw(st.lists(st.sampled_from(CSR_FAULTS), max_size=3)):
        nnz = indices.shape[0]
        if fault == "retarget" and nnz:
            p = rng.integers(nnz)
            indices[p] = rng.integers(-1, n + 1)
            row = np.searchsorted(indptr, p, side="right") - 1
            if rng.random() < 0.5 and 0 <= row < n:
                indices[indptr[row]:indptr[row + 1]].sort()
        elif fault == "drop" and nnz:
            p = rng.integers(nnz)
            indices = np.delete(indices, p)
            indptr[indptr > p] -= 1
        elif fault == "indptr":
            indptr[rng.integers(n + 1)] += rng.integers(-2, 3)
        elif fault == "swap" and nnz > 1:
            p = rng.integers(nnz - 1)
            indices[[p, p + 1]] = indices[[p + 1, p]]
    return csr_case(indptr, indices)


_E = reference.CSR_ERRORS
#: expected outcome, indptr, indices; most are faults of the path 0-1-2
#: (indptr [0, 1, 3, 4], indices [1, 0, 2, 1]), and a case with two faults
#: names the one tested first
CHECK_CASES = {
    "valid-no-vertices": (None, [0], []),
    "valid-isolated": (None, [0, 0, 0, 0], []),
    "valid-path": (None, [0, 1, 3, 4], [1, 0, 2, 1]),
    "endpoint-last": (_E[0], [0, 1, 3, 5], [1, 0, 2, 1]),
    "endpoint-first": (_E[0], [1, 1, 3, 4], [1, 0, 2, 1]),
    "decreasing": (_E[1], [0, 3, 1, 4], [1, 0, 2, 1]),
    "index-past-n": (_E[2], [0, 1, 3, 4], [1, 0, 3, 1]),
    "index-negative": (_E[2], [0, 1, 3, 4], [1, 0, -1, 1]),
    "self-loop": (_E[3], [0, 1, 3, 4], [1, 1, 2, 1]),
    "duplicate": (_E[4], [0, 2, 4], [1, 1, 0, 0]),
    "unsorted": (_E[4], [0, 1, 3, 4], [1, 2, 0, 1]),
    "mirror-missing": (_E[5], [0, 1, 3, 3], [1, 0, 2]),
    "directed-triangle": (_E[5], [0, 1, 2, 3], [1, 2, 0]),
    "loop-and-range": (_E[2], [0, 1, 3, 4], [1, 1, 5, 1]),
    "loop-and-unsorted": (_E[3], [0, 1, 3, 4], [1, 2, 1, 1]),
    "decreasing-and-range": (_E[1], [0, 3, 1, 4], [1, 0, 9, 1]),
    "unsorted-and-asymmetric": (_E[4], [0, 2, 3, 3], [2, 1, 0]),
}


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Kernel:
    """One public kernel: how to call it, what it must match, what it rejects."""

    #: ``(*args) -> result`` on the tier in scope; results compare with
    #: :func:`assert_same`
    call: Callable
    #: the module attribute the oracle tier runs
    oracle: tuple[object, str]
    #: hypothesis strategy of argument tuples
    draw: st.SearchStrategy
    #: fixed-graph cases: test id -> () -> argument tuples
    fixed: dict[str, Callable[[], list[tuple]]]
    #: malformed-input cases: test id -> an argument tuple that must raise
    malformed: dict[str, tuple]
    #: ``(args, result) -> bool``, a property the oracle's result must have
    check: Callable | None = None


def call_d2_conflicts(*args):
    """*args* may end with the ``cols`` subset to scan."""
    return kernels.d2_conflicts(*args[:4], cols=args[4] if len(args) > 4 else None)


def call_drain(*args):
    *rest, choice = args
    moves = kernels.d2_drain_pass(*rest, choice=choice)
    return (*rest[2:5], moves)  # colors, sizes, under: mutated in place


def call_shuffle(graph, colors, sizes, g, choice, traversal, vertex_w):
    """Colors, sizes, moves and the ``drain_round`` events of one drain."""
    rec = Recorder()
    moves = kernels.shuffle_drain(graph, colors, sizes, g, choice=choice,
                                  traversal=traversal, vertex_w=vertex_w,
                                  recorder=rec)
    return colors, sizes, moves, [(e["source_bin"], e["moves"], e["rsd_percent"])
                                  for e in rec.events_of("drain_round")]


def call_commit(*args):
    return args[1], kernels.sched_commit(*args)  # colors: in place


def call_check(graph):
    """``None`` for a valid CSR, else the message of the invariant it fails."""
    try:
        kernels.csr_check(graph)
    except ValueError as exc:
        if str(exc) not in reference.CSR_ERRORS:
            raise
        return str(exc)
    return None


def _sweep_ok(args, out) -> bool:
    return out.dtype == np.int64 and out.shape == args[-1].shape


def _capacity_ok(args, out) -> bool:
    """Int64 colors, -1 exactly off *order*, proper, every bin filled
    only while under γ, and the color count one past the largest color."""
    graph, order, capacity = args
    colors, num_colors = out
    colored = np.zeros(graph.num_vertices, dtype=bool)
    colored[order] = True
    u, v = graph.edge_arrays()
    sizes = np.bincount(colors[colored], minlength=1)
    return (colors.dtype == np.int64 and np.array_equal(colors >= 0, colored)
            and not np.any((colors[u] == colors[v]) & (colors[u] >= 0))
            and num_colors == int(colors.max(initial=-1)) + 1
            and (not order.size or sizes.max() < capacity + 1))


def _drain_ok(args, out) -> bool:
    """Every move lowers Σ sizes² by at least 2 (a row leaves class j for
    class k only when sizes[k] + 1 < sizes[j]), so repeated passes end."""
    sizes = args[3]
    _, got_sizes, _, moves = out
    return np.square(got_sizes).sum() <= np.square(sizes).sum() - 2 * moves


def _shuffle_ok(args, out) -> bool:
    """Still proper, C unchanged, the move count true and the sizes the bin
    weights.  With unit weights the total weight over γ never grows: a move
    fills a bin under γ to at most ⌈γ⌉ (a heavier vertex can overshoot)."""
    graph, colors, sizes, g, *_, vertex_w = args
    got, got_sizes, moves, _ = out
    u, v = graph.edge_arrays()
    return (not np.any(got[u] == got[v]) and got_sizes.shape == sizes.shape
            and (not got.size or 0 <= got.min() <= got.max() < sizes.size)
            and moves == int((got != colors).sum())
            and np.allclose(got_sizes, np.bincount(got, vertex_w, sizes.size))
            and (np.any(vertex_w != 1) or np.maximum(got_sizes - g, 0).sum()
                 <= np.maximum(sizes - g, 0).sum() + 1e-9))


def _assemble_ok(args, out) -> bool:
    """A valid CSR over n vertices whose edges are the non-loop pairs."""
    u, v, n = args
    graph = CSRGraph(*out)
    keep = u != v
    pairs = set(zip(np.minimum(u, v)[keep].tolist(), np.maximum(u, v)[keep].tolist()))
    return graph.num_vertices == n and set(graph.edges()) == pairs


def _csr_ok(args, message) -> bool:
    """A CSR that passes is the canonical one of its own edges."""
    if message is not None:
        return message in reference.CSR_ERRORS
    graph = args[0]
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    indptr, indices = reference.csr_assemble(src, graph.indices, graph.num_vertices)
    return np.array_equal(indptr, graph.indptr) and np.array_equal(indices, graph.indices)


def _retries_ok(args, out) -> bool:
    return out.dtype == np.int64 and np.array_equal(out, np.unique(out))


#: rows 0-5 over columns 6-8: column 6 holds rows 0, 2 and 4, column 7
#: rows 1, 2, 3 and 5, column 8 rows 0 and 5
_GROUPS = BipartiteGraph.from_matrix_pattern([0, 2, 4, 1, 2, 3, 5, 0, 5],
                                             [0, 0, 0, 1, 1, 1, 1, 2, 2])


def _group_cases() -> dict[str, list[tuple]]:
    """Hand-built D2 detection inputs, ``(*head, colors, work[, cols])``
    each; :meth:`TestDetectDifferential.test_d2_group_rule` pins their
    retry sets."""
    g, nr = head(_GROUPS)
    c = np.array([3, 7, 3, 7, 3, 7], dtype=np.int64)
    band = BipartiteGraph.from_incidence(jacobian_band_pattern(200, 50, 5, seed=2), 200)
    big = detect_case(band, "full", 1)
    return {
        # the group's lowest row is finalized: every work row of it loses
        "d2-first-finalized": [(g, nr, c, _ids(2, 4)), (g, nr, c, _ids(4)),
                               (g, nr, c, _ids(0, 2)), (g, nr, c, _ids(5, 3))],
        # uncolored rows (any negative id) inside a group never count
        "d2-uncolored-in-group": [
            (g, nr, np.array([-1, 7, -5, 7, 3, -1], dtype=np.int64), _ids(0, 1, 2, 3, 4, 5)),
            (g, nr, np.array([3, -1, -1, -9, 3, -1], dtype=np.int64), _ids(4, 1, 3))],
        "d2-duplicate-work": [(g, nr, c, _ids(3, 1, 3, 1, 5, 5, 2)),
                              (*big[:3], np.repeat(big[3][::-1], 3))],
        # ids past num_rows are ranked before the C loop sizes its scratch
        "d2-sparse-colors": [
            (g, nr, c * 10**15 + 1, _ids(0, 1, 2, 3, 4, 5)),
            (g, nr, np.array([nr + 1, -3, nr + 1, 2**62, nr + 1, 2**62]), _ids(2, 4, 5)),
            (*big[:2], np.where(big[2] >= 0, big[2] * 10**12 + 5, -2), big[3])],
        # explicit column subsets: one column, repeats, a column no work row
        # touches, none at all, and the default's columns in another order
        "d2-cols-subsets": [(g, nr, c, _ids(2, 4), _ids(6)),
                            (g, nr, c, _ids(3, 5), _ids(7, 7, 8, 7)),
                            (g, nr, c, _ids(4), _ids(7, 8)),
                            (g, nr, c, _ids(0, 1, 2, 3, 4, 5), _ids()),
                            (*big, np.arange(band.incidence.num_vertices - 1,
                                             band.num_rows - 1, -1))],
    }


#: the retry sets of :func:`_group_cases`, in case order
GROUP_RETRIES = {
    "d2-first-finalized": [[2, 4], [4], [0, 2], [3, 5]],
    "d2-uncolored-in-group": [[3], [4]],
    "d2-duplicate-work": [[2, 3, 5], None],
    "d2-sparse-colors": [[2, 3, 4, 5], [2, 4, 5], None],
    "d2-cols-subsets": [[2, 4], [3, 5], [], [], None],
}


def _row_rule(graph, num_rows, colors, work) -> np.ndarray:
    """Distance-2 retries decided row by row: a colored work row loses when
    a row sharing a column holds its color and has a lower id or is not in
    *work* (the two-hop rescan the per-column C loop replaced)."""
    indptr, indices = graph.indptr, graph.indices
    in_work = np.zeros(num_rows, dtype=bool)
    in_work[work] = True
    retry = []
    for w in np.unique(work):
        if colors[w] < 0:
            continue
        cols = indices[indptr[w]:indptr[w + 1]]
        rows = np.concatenate([indices[indptr[c]:indptr[c + 1]] for c in cols] or [[]])
        rows = rows.astype(np.int64)
        if np.any((colors[rows] == colors[w]) & ((rows < w) | ~in_work[rows])):
            retry.append(w)
    return np.array(retry, dtype=np.int64)


def _incidence_rows(graph) -> int:
    """The row count of a rows-first incidence graph: its first vertex
    whose smallest neighbor precedes it is its first column."""
    return next(v for v in range(graph.num_vertices)
                if graph.indptr[v + 1] > graph.indptr[v]
                and graph.indices[graph.indptr[v]] < v)


def _detect_row(fn_name: str, rule: str) -> Kernel:
    d2 = rule == "d2"
    item = _BIP if d2 else _DG
    malformed = {f"{rule}-{case}": (*head(item), *bad(size_of(item)))
                 for case, bad in _BAD_DETECT_ARGS.items()}
    if d2:
        malformed.update({f"d2-{case}": (*head(_BIP), np.zeros(_BIP.num_rows, dtype=np.int64),
                                         np.array([0]), cols)
                          for case, cols in _BAD_COLS.items()})
    makes = ([lambda make=make: BipartiteGraph.square_cover(make()) for make in DETECT_GRAPHS]
             if d2 else DETECT_GRAPHS)
    return Kernel(
        call=call_d2_conflicts if d2 else getattr(kernels, fn_name),
        oracle=(reference, "d2_conflicts") if d2 else (reference, fn_name),
        draw=st.builds(detect_case, incidences() if d2 else simple_graphs(),
                       st.sampled_from(DETECT_KINDS), SEEDS),
        fixed={**{f"{kind}-{rule}": partial(_cases, makes, detect_case, kind)
                  for kind in DETECT_KINDS},
               **({case: lambda case=case: _group_cases()[case] for case in GROUP_RETRIES}
                  if d2 else {})},
        malformed=malformed,
        check=_retries_ok,
    )


KERNELS: dict[str, Kernel] = {
    "ff_sweep": Kernel(
        call=kernels.ff_sweep,
        oracle=(reference, "ff_sweep"),
        draw=st.builds(sweep_case, simple_graphs(), st.sampled_from(SWEEP_KINDS), SEEDS),
        fixed={f"{gid}-{kind}": partial(_cases, [make], sweep_case, kind)
               for gid, make in D1_GRAPHS.items() for kind in SWEEP_KINDS},
        malformed={f"ff_sweep-{case}": (_G, *bad(_G.num_vertices))
                   for case, bad in _BAD_SWEEP_ARGS.items()},
        check=_sweep_ok,
    ),
    "d2_sweep": Kernel(
        call=kernels.d2_sweep,
        oracle=(reference, "d2_sweep"),
        draw=st.builds(sweep_case, incidences(), st.sampled_from(SWEEP_KINDS), SEEDS),
        fixed={f"{gid}-{kind}": partial(_cases, [make], sweep_case, kind)
               for gid, make in D2_GRAPHS.items() for kind in SWEEP_KINDS},
        malformed={
            **{f"d2_sweep-{case}": (*head(_BIP), *bad(_BIP.num_rows))
               for case, bad in _BAD_SWEEP_ARGS.items()},
            "d2_sweep-num-rows-zero": (_BIP.incidence, 0),
            "d2_sweep-num-rows-past-n": (_BIP.incidence, _BIP.incidence.num_vertices + 1),
        },
        check=_sweep_ok,
    ),
    "capacity_sweep": Kernel(
        call=kernels.capacity_sweep,
        oracle=(reference, "capacity_sweep"),
        draw=st.builds(capacity_case, simple_graphs(), st.sampled_from(CAPACITY_KINDS),
                       SEEDS),
        fixed={f"{gid}-{kind}": partial(_cases, [make], capacity_case, kind)
               for gid, make in D1_GRAPHS.items() for kind in CAPACITY_KINDS},
        malformed={f"capacity_sweep-{case}": (_G, *bad)
                   for case, bad in _BAD_CAPACITY_ARGS.items()},
        check=_capacity_ok,
    ),
    "detect_conflicts": _detect_row("detect_conflicts", "classic"),
    "detect_cross_conflicts": _detect_row("detect_cross_conflicts", "cross"),
    "d2_conflicts": _detect_row("d2_conflicts", "d2"),
    "count_monochromatic_edges": Kernel(
        call=kernels.count_monochromatic_edges,
        oracle=(reference, "count_monochromatic_edges"),
        draw=st.builds(verify_case, simple_graphs(), st.sampled_from(VERIFY_KINDS), SEEDS),
        fixed={kind: partial(_cases, VERIFY_GRAPHS, verify_case, kind, seeds=range(2))
               for kind in VERIFY_KINDS},
        malformed={f"count_monochromatic_edges-{case}": (_K6_MINUS, colors)
                   for case, colors in _BAD_COLORS.items()},
        check=lambda args, got: type(got) is int and got == d1_truth(*args),
    ),
    "d2_violating_column": Kernel(
        call=kernels.d2_violating_column,
        oracle=(reference, "d2_violating_column"),
        draw=st.builds(verify_case, incidences(), st.sampled_from(VERIFY_KINDS), SEEDS),
        fixed={kind: partial(_cases, VERIFY_INCIDENCES, verify_case, kind, seeds=range(2))
               for kind in VERIFY_KINDS},
        malformed={f"d2_violating_column-{case}": (*head(_COVER), colors) for case, colors
                   in {**_BAD_COLORS, "below-minus-one": _BELOW_MINUS_ONE}.items()},
        check=lambda args, got: type(got) is int and got == d2_truth(*args),
    ),
    "d2_drain_pass": Kernel(
        call=call_drain,
        oracle=(reference, "d2_drain_pass"),
        draw=st.builds(drain_case, incidences(), st.integers(1, 8), SEEDS,
                       st.sampled_from(["ff", "lu"]), st.booleans()),
        fixed={**{f"{gid}-{choice}": (lambda make=make, choice=choice: [
                   drain_case(bip, C, seed, choice, free_mask=seed % 2 == 1)
                   for bip in [make()] for C in (1, 2, 5) for seed in range(6)])
                  for gid, make in DRAIN_GRAPHS.items() for choice in ("ff", "lu")},
               **{f"swap-only-{choice}": (lambda choice=choice: [
                   swap_only_case(sizes, choice) for sizes in SWAP_ONLY_SIZES])
                  for choice in ("ff", "lu")}},
        malformed={
            "drain-colors-int32": _bad(_DRAIN, colors=np.zeros(_NR, dtype=np.int32)),
            "drain-colors-short": _bad(_DRAIN, colors=np.zeros(_NR - 1, dtype=np.int64)),
            "drain-colors-strided": _bad(_DRAIN, colors=np.zeros(2 * _NR, dtype=np.int64)[::2]),
            "drain-colors-readonly": _bad(_DRAIN, colors=np.lib.stride_tricks.as_strided(
                np.zeros(_NR, dtype=np.int64), writeable=False)),
            "drain-colors-too-big": _bad(_DRAIN, colors=np.full(_NR, _C, dtype=np.int64)),
            "drain-colors-below-minus-one": _bad(_DRAIN, colors=np.full(_NR, -2, dtype=np.int64)),
            "drain-sizes-int": _bad(_DRAIN, sizes=np.zeros(_C, dtype=np.int64)),
            "drain-under-short": _bad(_DRAIN, under=np.zeros(_C, dtype=bool)),
            "drain-candidate-out-of-range": _bad(_DRAIN, candidates=np.array([_NR])),
            "drain-candidate-negative": _bad(_DRAIN, candidates=np.array([-1])),
            "drain-candidate-float": _bad(_DRAIN, candidates=np.array([0.0])),
            "drain-candidate-uncolored": _bad(_DRAIN, colors=np.full(_NR, -1, dtype=np.int64),
                                              candidates=np.array([0])),
            "drain-num-rows": _bad(_DRAIN, num_rows=10**6),
            "drain-choice": _bad(_DRAIN, choice="random"),
        },
        check=_drain_ok,
    ),
    "shuffle_drain": Kernel(
        call=call_shuffle,
        oracle=(reference, "shuffle_drain"),
        draw=st.builds(shuffle_case, simple_graphs(), st.sampled_from(["ff", "lu"]),
                       st.sampled_from(["vertex", "color"]),
                       st.sampled_from(["unit", "degree"])),
        fixed={f"{gid}-{c}-{t}-{w}": (lambda make=make, v=(c, t, w): [shuffle_case(make(), *v)])
               for gid, make in SHUFFLE_GRAPHS.items() for c, t, w in SHUFFLE_VARIANTS},
        malformed={
            "shuffle-choice": _bad(_SHUFFLE, choice="bogus"),
            "shuffle-traversal": _bad(_SHUFFLE, traversal="bogus"),
            # fractional weights would be truncated into an integer sizes array
            "shuffle-sizes-int": _bad(_SHUFFLE, sizes=np.zeros(_SC, dtype=np.int64),
                                      vertex_w=np.full(80, 0.5)),
            "shuffle-sizes-readonly": _bad(_SHUFFLE, sizes=np.lib.stride_tricks.as_strided(
                np.zeros(_SC), writeable=False)),
            "shuffle-sizes-nan": _bad(_SHUFFLE, sizes=np.full(_SC, np.nan)),
            "shuffle-colors-int32": _bad(_SHUFFLE, colors=np.zeros(80, dtype=np.int32)),
            "shuffle-colors-short": _bad(_SHUFFLE, colors=np.zeros(79, dtype=np.int64)),
            "shuffle-colors-too-big": _bad(_SHUFFLE, colors=np.full(80, _SC, dtype=np.int64)),
            "shuffle-colors-negative": _bad(_SHUFFLE, colors=np.full(80, -1, dtype=np.int64)),
            "shuffle-weights-short": _bad(_SHUFFLE, vertex_w=np.ones(79)),
            "shuffle-weights-int": _bad(_SHUFFLE, vertex_w=np.ones(80, dtype=np.int64)),
            "shuffle-weights-inf": _bad(_SHUFFLE, vertex_w=np.full(80, np.inf)),
            "shuffle-g-nan": _bad(_SHUFFLE, g=float("nan")),
            "shuffle-g-inf": _bad(_SHUFFLE, g=float("inf")),
        },
        check=_shuffle_ok,
    ),
    "sched_commit": Kernel(
        call=call_commit,
        oracle=(reference, "sched_commit"),
        draw=st.builds(commit_case, simple_graphs(), st.integers(1, 6), SEEDS),
        fixed={gid: (lambda make=make: [commit_case(g, C, C, length=2 * g.num_vertices)
                                        for g in [make()] for C in (1, 3)])
               for gid, make in COMMIT_GRAPHS.items()},
        malformed={
            "commit-colors-short": _bad(_COMMIT, colors=np.zeros(3, dtype=np.int64)),
            "commit-vertex-out-of-range": _bad(_COMMIT, vertices=np.full(200, 150)),
            "commit-length-mismatch": _bad(_COMMIT, targets=np.zeros(3, dtype=np.int64)),
            "commit-vertices-2d": _bad(_COMMIT, vertices=np.zeros((2, 100), dtype=np.int64)),
            "commit-target-negative": _bad(_COMMIT, targets=np.full(200, -1)),
        },
    ),
    "csr_assemble": Kernel(
        call=kernels.csr_assemble,
        oracle=(reference, "csr_assemble"),
        draw=edge_arrays(),
        fixed=ASSEMBLE_CASES,
        malformed={
            "assemble-u-float": (np.array([0.0, 1.0]), _ids(1, 2), 3),
            "assemble-u-2d": (np.zeros((2, 2), dtype=np.int64), _ids(0, 1, 1, 0), 3),
            "assemble-length-mismatch": (_ids(0, 1), _ids(1), 3),
            "assemble-negative-id": (_ids(-1), _ids(1), 3),
            "assemble-id-past-n": (_ids(3), _ids(1), 3),
            "assemble-n-negative": (_ids(), _ids(), -1),
        },
        check=_assemble_ok,
    ),
    "csr_check": Kernel(
        call=call_check,
        oracle=(reference, "csr_check"),
        draw=csrs(),
        fixed={case: (lambda arrays=arrays: [csr_case(*arrays)])
               for case, (_, *arrays) in CHECK_CASES.items()},
        malformed={
            "check-indptr-empty": csr_case([], []),
            "check-indptr-int32": raw_csr_case(np.zeros(1, dtype=np.int32), _ids()),
            "check-indices-float": raw_csr_case(_ids(0, 1, 2), np.array([1.0, 0.0])),
            "check-indices-2d": raw_csr_case(_ids(0, 1, 2), _ids(1, 0).reshape(2, 1)),
            "check-indptr-strided": raw_csr_case(_ids(0, 9, 1, 9, 2)[::2], _ids(1, 0)),
        },
        check=_csr_ok,
    ),
}

#: every malformed-input call
MALFORMED = {case: partial(row.call, *args)
             for row in KERNELS.values() for case, args in row.malformed.items()}


# ----------------------------------------------------------------------
# the three generic checks
# ----------------------------------------------------------------------
def run(name: str, args: tuple, path: str = "default"):
    """Row *name* down *path* (see :func:`on_path`), on private copies of
    the arrays in *args*."""
    with on_path(path):
        return KERNELS[name].call(
            *(a.copy() if isinstance(a, np.ndarray) else a for a in args))


def assert_c_matches_oracle(name: str, args: tuple):
    """The oracle, the library-disabled path and the default dispatch (C
    when the library loaded) agree bit for bit; returns the result."""
    outs = []
    for path in ("reference", "numpy", "default"):
        outs.append(run(name, args, path))
    for got in outs[1:]:
        assert_same(outs[0], got)
    check = KERNELS[name].check
    assert check is None or check(args, outs[0])
    return outs[0]


def assert_rejected(call, path: str, error=ValueError) -> None:
    """*call* raises *error* on *path*, before any pointer reaches C."""
    with on_path(path), pytest.raises(error):
        call()


def assert_dispatch_runs_c(monkeypatch, *names: str) -> None:
    """On every fixed case of the rows *names*, the default dispatch gives
    the oracle's result with the oracle replaced by a failure."""
    if compiled.load() is None:
        pytest.skip(f"no compiled library: {compiled.failure_reason()}")
    for name in names:
        row = KERNELS[name]
        cases = [args for make in row.fixed.values() for args in make()]
        want = [run(name, args, "reference") for args in cases]
        with monkeypatch.context() as m:
            m.setattr(*row.oracle, lambda *a, **k: pytest.fail(f"{name}: the oracle ran"))
            for args, expected in zip(cases, want):
                assert_same(expected, run(name, args))


# bindings of the checks to test names, one kernel family at a time
def differential(*names: str, examples: int = 150):
    """Check 1 on hypothesis inputs of the rows *names*."""
    @settings(max_examples=examples, deadline=None)
    @given(data=st.data())
    def test(self, data):
        name = data.draw(st.sampled_from(names))
        assert_c_matches_oracle(name, data.draw(KERNELS[name].draw))
    return test


def fixed_differential(*names: str):
    """Check 1 on the fixed cases of the rows *names*, one test per case id."""
    ids = list(dict.fromkeys(case for name in names for case in KERNELS[name].fixed))

    @pytest.mark.parametrize("case", ids)
    def test(self, case):
        for name in names:
            for args in KERNELS[name].fixed.get(case, list)():
                assert_c_matches_oracle(name, args)
    return test


def dispatch_runs_c(*names: str):
    """Check 3 on the rows *names*."""
    def test(self, monkeypatch):
        assert_dispatch_runs_c(monkeypatch, *names)
    return test


def rejects(*names: str):
    """Check 2 on the malformed cases of the rows *names*, one test per
    case and path."""
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("case", [c for n in names for c in KERNELS[n].malformed])
    def test(case, path):
        assert_rejected(MALFORMED[case], path)
    return test


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
class TestSweepDifferential:
    test_ff_sweep = differential("ff_sweep")
    test_d2_sweep = differential("d2_sweep")
    test_capacity_sweep = differential("capacity_sweep")
    test_ff_sweep_fixed_graphs = fixed_differential("ff_sweep")
    test_d2_sweep_fixed_graphs = fixed_differential("d2_sweep")
    test_capacity_sweep_fixed_graphs = fixed_differential("capacity_sweep")
    test_dispatch_runs_c_when_loaded = dispatch_runs_c("ff_sweep", "d2_sweep",
                                                       "capacity_sweep")

    def test_capacity_sweep_on_table2_stand_ins(self):
        """Balanced Recoloring's sweep on the four Table II stand-ins."""
        for name in ("uk2002", "copapers", "channel", "cnr"):
            graph = load_dataset(name, scale=0.1, seed=0)
            colors, num_colors = assert_c_matches_oracle(
                "capacity_sweep", capacity_case(graph, "recoloring", 0))
            assert num_colors > 1 and colors.min() == 0


test_sweep_rejects_bad_inputs = rejects("ff_sweep", "d2_sweep", "capacity_sweep")


def test_c_sweeps_guard_graph_indices():
    """Unvalidated graphs with out-of-range indices fail cleanly in C."""
    if compiled.load() is None:
        pytest.skip(f"no compiled library: {compiled.failure_reason()}")
    dangling = CSRGraph(np.array([0, 1, 1]), np.array([5]), validate=False)
    with pytest.raises(ValueError, match="valid CSR"):
        kernels.ff_sweep(dangling)
    with pytest.raises(ValueError, match="valid CSR"):
        kernels.capacity_sweep(dangling, np.array([0, 1]), 1.0)
    g = complete_graph(4)  # rows 0 and 1 touch rows, not columns
    with pytest.raises(ValueError, match="incidence"):
        kernels.d2_sweep(CSRGraph(g.indptr, g.indices, validate=False), 2)


# ----------------------------------------------------------------------
# conflict detection
# ----------------------------------------------------------------------
class TestDetectDifferential:
    test_d1_rules = differential("detect_conflicts", "detect_cross_conflicts")
    test_d2_rule = differential("d2_conflicts")
    test_fixed_graphs = fixed_differential("detect_conflicts", "detect_cross_conflicts",
                                           "d2_conflicts")
    test_dispatch_runs_c_when_loaded = dispatch_runs_c(
        "detect_conflicts", "detect_cross_conflicts", "d2_conflicts")

    @settings(max_examples=100, deadline=None)
    @given(bip=incidences(), parts=st.integers(1, 4), seed=SEEDS)
    def test_d2_cols_subsets_union_to_the_full_scan(self, bip, parts, seed):
        """Each column subset keeps its per-column meaning on every path,
        and the subsets of a partition union to the full scan."""
        args = detect_case(bip, "subset", seed)
        inc, work = bip.incidence, args[3]
        cols = np.unique(np.concatenate(
            [inc.indices[inc.indptr[r]:inc.indptr[r + 1]] for r in work] or [[]]))
        cols = np.random.default_rng(seed).permutation(cols.astype(np.int64))
        union = [assert_c_matches_oracle("d2_conflicts", (*args, share))
                 for share in np.array_split(cols, parts)]
        full = assert_c_matches_oracle("d2_conflicts", args)
        assert np.array_equal(full, np.unique(np.concatenate(union)))

    @pytest.mark.parametrize("case", sorted(GROUP_RETRIES))
    def test_d2_group_rule(self, case):
        """The retry sets of the hand-built groups, pinned, on every path."""
        for args, want in zip(_group_cases()[case], GROUP_RETRIES[case]):
            got = assert_c_matches_oracle("d2_conflicts", args)
            if want is not None:
                assert got.tolist() == want

    def test_every_d2_round_keeps_the_row_rule(self, monkeypatch):
        """Every detection of the mp and superstep rounds, on the Jacobian
        stand-ins and on their square covers, returns the retry set of the
        row-at-a-time rule the per-column loop replaced."""
        calls = []
        detect = kernels.d2_conflicts

        def recorded(graph, num_rows, colors, work=None, **kwargs):
            got = detect(graph, num_rows, colors, work, **kwargs)
            calls.append((graph, num_rows, np.array(colors), np.array(work), got))
            return got

        monkeypatch.setattr(kernels, "d2_conflicts", recorded)
        for name in ("jacrand", "jacband"):
            graph = load_dataset(name, scale=0.05, seed=1)
            bip = BipartiteGraph.from_incidence(graph, _incidence_rows(graph))
            for mode, threads in (("mp", 2), ("superstep", 4)):
                before = len(calls)
                # mp: every round to convergence, not one and the tail
                rounds = {"max_rounds": 100} if mode == "mp" else {}
                execute(graph, RunConfig("d2-optimistic", mode=mode, threads=threads,
                                         strategy_kwargs=rounds))
                if mode == "mp":
                    mp_partial_d2(bip, num_workers=2, **rounds)
                else:
                    optimistic_partial_d2(bip, num_threads=4)
                assert len(calls) > before + 2, (name, mode)
        for graph, num_rows, colors, work, got in calls:
            assert_same(_row_rule(graph, num_rows, colors, work), got)

    def test_stale_snapshot_finalized_higher_neighbor(self):
        """Vertex 0 speculated against a stale snapshot and took the color
        of its finalized higher-id neighbor 1: the classic rule misses it,
        the cross and d2 rules retry 0, and every path agrees."""
        graph = from_edge_arrays(np.array([0, 1]), np.array([1, 2]), num_vertices=3)
        colors = np.array([5, 5, 2], dtype=np.int64)
        heads = {"detect_conflicts": (graph,), "detect_cross_conflicts": (graph,),
                 "d2_conflicts": head(BipartiteGraph.square_cover(graph))}
        got = {name: assert_c_matches_oracle(name, (*h, colors, np.array([0]))).tolist()
               for name, h in heads.items()}
        assert got == {"detect_conflicts": [], "detect_cross_conflicts": [0],
                       "d2_conflicts": [0]}
        # the finalized neighbor in work too: every rule retries the higher id
        for name, h in heads.items():
            assert assert_c_matches_oracle(name, (*h, colors, np.array([0, 1]))).tolist() == [1]

    def test_out_of_core_graph(self, tmp_path):
        from repro.graph.store import load_graph, save_graph

        graph = load_dataset("cnr", scale=0.05, seed=0)
        mapped = load_graph(save_graph(graph, tmp_path / "g.csrg"))
        assert mapped.out_of_core
        args = detect_case(graph, "subset", 2)
        for name in ("detect_conflicts", "detect_cross_conflicts"):
            want = assert_c_matches_oracle(name, args)
            assert want.size
            assert_same(want, assert_c_matches_oracle(name, (mapped, *args[1:])))

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


test_detect_rejects_bad_inputs = rejects("detect_conflicts", "detect_cross_conflicts",
                                         "d2_conflicts")


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def outcome(fn):
    """What *fn* returns, or the type and message of what it raises."""
    try:
        return fn()
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def violations_key(violations) -> list:
    return [(v.kind, v.vertices.tolist(), v.detail) for v in violations]


class TestVerifyDifferential:
    test_d1_count = differential("count_monochromatic_edges")
    test_d2_first_column = differential("d2_violating_column")
    test_fixed_graphs = fixed_differential("count_monochromatic_edges",
                                           "d2_violating_column")
    def test_dispatch_runs_c_when_loaded(self, monkeypatch):
        """Check 3 on both rows, and the verifiers built on them reach C
        through the dispatchers: with the oracles replaced by a failure
        they still give the oracle's verdicts on an improper coloring."""
        names = ("count_monochromatic_edges", "d2_violating_column")
        assert_dispatch_runs_c(monkeypatch, *names)
        graph = erdos_renyi_graph(200, 0.05, seed=1)
        bip = BipartiteGraph.square_cover(graph)
        colors = verify_case(graph, "improper", 3)[-1]
        full = np.where(colors < 0, 0, colors)  # is_proper stops at a -1
        checks = [
            lambda: is_proper(graph, full),
            lambda: assert_proper(graph, full),
            lambda: violations_key(check_invariants(graph, full)),
            lambda: is_partial_d2_proper(bip, colors),
            lambda: assert_partial_d2_proper(bip, colors),
        ]
        with on_path("reference"):
            want = [outcome(check) for check in checks]
        assert want[0] is False and want[3] is False
        assert want[1][0] is AssertionError and want[4][0] is AssertionError
        for name in names:
            monkeypatch.setattr(*KERNELS[name].oracle,
                                lambda *a, name=name, **k: pytest.fail(f"{name}: the oracle ran"))
        assert [outcome(check) for check in checks] == want

    def test_out_of_core_graph(self, tmp_path, monkeypatch):
        """Mapped graphs give the same verdicts, and C reads them in place."""
        from repro.graph.store import load_graph, save_graph

        graph = load_dataset("cnr", scale=0.05, seed=0)
        bip = BipartiteGraph.from_incidence(jacobian_band_pattern(400, 80, 4, seed=2), 400)
        cases = [("count_monochromatic_edges", graph,
                  load_graph(save_graph(graph, tmp_path / "g.csrg"))),
                 ("d2_violating_column", bip,
                  load_graph(save_graph(bip.incidence, tmp_path / "inc.csrg")))]
        assert all(mapped.out_of_core for _, _, mapped in cases)
        runs = []
        for name, item, mapped in cases:
            for seed, kind in enumerate(VERIFY_KINDS):
                args = verify_case(item, kind, seed)
                runs.append((name, (mapped, *args[1:])))
                assert_same(assert_c_matches_oracle(name, args),
                            assert_c_matches_oracle(*runs[-1]))
        if compiled.load() is None:
            return
        for attr in ("edge_arrays", "edge_chunks"):
            monkeypatch.setattr(CSRGraph, attr,
                                lambda *a, **k: pytest.fail("edge list built"))
        for name, args in runs:
            run(name, args)

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
        same on the oracle, the library-disabled path and the default
        dispatch."""
        graph = load_dataset("cnr", scale=0.05, seed=0)
        bip = BipartiteGraph.square_cover(erdos_renyi_graph(300, 0.03, seed=7))
        colors = verify_case(graph, kind, 8)[-1]
        full = np.where(colors < 0, 0, colors)  # colored, so the edge is named
        rows = verify_case(bip, kind, 9)[-1]
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
        for path in ("reference", "numpy", "default"):
            with on_path(path):
                runs[path] = [outcome(check) for check in checks]
        assert runs["reference"] == runs["numpy"] == runs["default"]
        assert runs["reference"][1][1].startswith("edge (")
        if kind != "uncolored":
            assert runs["reference"][5][1].startswith("distance-2 violation")


#: the verifiers built on the two checks, by test id
_VERIFIERS = {
    "is_proper": partial(is_proper, _K6_MINUS),
    "assert_proper": partial(assert_proper, _K6_MINUS),
    "count_conflicts": partial(count_conflicts, _K6_MINUS),
    "conflicting_vertices": partial(conflicting_vertices, _K6_MINUS),
    "check_invariants": partial(check_invariants, _K6_MINUS),
    "is_partial_d2_proper": partial(is_partial_d2_proper, _COVER),
    "assert_partial_d2_proper": partial(assert_partial_d2_proper, _COVER),
}
_BAD_VERIFIES = {
    **{f"{name}-{case}": partial(check, colors) for name, check in _VERIFIERS.items()
       for case, colors in _BAD_COLORS.items()},
    **{f"{name}-below-minus-one": partial(_VERIFIERS[name], _BELOW_MINUS_ONE)
       for name in ("is_partial_d2_proper", "assert_partial_d2_proper")},
    **{case: MALFORMED[case] for name in ("count_monochromatic_edges", "d2_violating_column")
       for case in KERNELS[name].malformed},
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", list(_BAD_VERIFIES))
def test_verifiers_reject_malformed_colors(case, path):
    """Non-integer, non-1-D or wrong-length colors, and D2 colors below -1,
    raise ``ValueError`` on every path before any pointer reaches C --
    except a 1-D length mismatch in ``assert_proper``, which stays an
    ``AssertionError``."""
    error = (AssertionError if case in ("assert_proper-short", "assert_proper-long")
             else ValueError)
    assert_rejected(_BAD_VERIFIES[case], path, error)


# ----------------------------------------------------------------------
# CSR assembly and validation
# ----------------------------------------------------------------------
class TestCSRDifferential:
    test_assemble = differential("csr_assemble")
    test_check = differential("csr_check", examples=300)
    test_fixed_cases = fixed_differential("csr_assemble", "csr_check")
    test_dispatch_runs_c_when_loaded = dispatch_runs_c("csr_assemble", "csr_check")

    def test_each_invariant_names_its_error(self):
        """Each fault raises its own message, the first in test order when
        there are two, on every path."""
        for case, (want, *arrays) in CHECK_CASES.items():
            assert assert_c_matches_oracle("csr_check", csr_case(*arrays)) == want, case

    @pytest.mark.parametrize("scale", [0.05, 0.25])
    def test_datasets_are_byte_identical(self, scale):
        for name in DATASETS:
            for seed in (0, 1):
                prints = []
                for path in ("reference", "default"):
                    with on_path(path):
                        prints.append(load_dataset(name, scale=scale, seed=seed).fingerprint())
                assert prints[0] == prints[1], (name, scale, seed)

    def test_mapped_store_round_trip(self, tmp_path):
        """A validated load of a mapped store passes clean and names the
        same fault on every path once one index is moved to a vertex its
        row does not hold."""
        graph = load_dataset("cnr", scale=0.05, seed=0)
        path = save_graph(graph, tmp_path / "g.csrg")
        for p in ("reference", "numpy", "default"):
            with on_path(p):
                mapped = load_graph(path, validate=True)
                assert mapped.out_of_core and mapped == graph
        indptr, indices = graph.indptr, graph.indices
        x = next(x for x in range(graph.num_vertices)
                 if indptr[x + 1] > indptr[x]
                 and indices[indptr[x + 1] - 1] + 1 not in (x, graph.num_vertices))
        flipped = np.load(path / INDICES, mmap_mode="r+")
        flipped[indptr[x + 1] - 1] += 1
        flipped.flush()
        del flipped
        for p in ("reference", "numpy", "default"):
            with on_path(p), pytest.raises(ValueError, match=f"^{_E[5]}$"):
                load_graph(path, validate=True)

    def test_builders_reach_c(self, monkeypatch):
        """from_edge_arrays and CSRGraph validation run the C loops when the
        library loaded."""
        if compiled.load() is None:
            pytest.skip(f"no compiled library: {compiled.failure_reason()}")
        for name in ("csr_assemble", "csr_check"):
            monkeypatch.setattr(reference, name,
                                lambda *a, name=name, **k: pytest.fail(f"{name}: the oracle ran"))
        assert erdos_renyi_graph(200, 0.05, seed=1) == _G
        with pytest.raises(ValueError, match=_E[3]):
            CSRGraph(np.array([0, 1]), np.array([0]))


test_csr_rejects_bad_inputs = rejects("csr_assemble", "csr_check")


# ----------------------------------------------------------------------
# the D2 drain pass, the shuffle drain and the Sched-Rev commit
# ----------------------------------------------------------------------
class TestKernelDifferential:
    test_drain_pass = differential("d2_drain_pass", examples=120)
    test_shuffle_drain = differential("shuffle_drain", examples=120)
    test_sched_commit = differential("sched_commit", examples=120)
    test_drain_pass_fixed_graphs = fixed_differential("d2_drain_pass")
    test_shuffle_drain_fixed_graphs = fixed_differential("shuffle_drain")
    test_sched_commit_fixed_graphs = fixed_differential("sched_commit")
    test_dispatch_runs_c_when_loaded = dispatch_runs_c("d2_drain_pass", "shuffle_drain",
                                                       "sched_commit")

    def test_shuffle_drain_on_table2_stand_ins(self):
        """VFF/VLU/CFF/CLU with both weights on the four Table II stand-ins."""
        for name in ("uk2002", "copapers", "channel", "cnr"):
            graph = load_dataset(name, scale=0.1, seed=0)
            for variant in SHUFFLE_VARIANTS:
                _, _, moves, events = assert_c_matches_oracle(
                    "shuffle_drain", shuffle_case(graph, *variant))
                assert moves > 0 and events

    def test_empty_candidates_and_plan_are_noops(self):
        empty = np.empty(0, dtype=np.int64)
        drain = KERNELS["d2_drain_pass"].fixed["band-cover-ff"]()[0]
        assert run("d2_drain_pass", (*drain[:6], empty, "ff"))[-1] == 0
        graph, colors, _, _ = KERNELS["sched_commit"].fixed["band"]()[0]
        assert run("sched_commit", (graph, colors, empty, empty))[-1] == 0


@pytest.mark.parametrize("case", [c for c in MALFORMED
                                  if c.startswith(("drain-", "commit-", "shuffle-"))])
def test_malformed_input_is_rejected_before_c(case):
    for path in PATHS:
        assert_rejected(MALFORMED[case], path)


def test_c_guards_graph_indices():
    """An unvalidated incidence whose rows touch rows, or a graph with an
    out-of-range neighbor, fails cleanly in C."""
    if compiled.load() is None:
        pytest.skip(f"no compiled library: {compiled.failure_reason()}")
    dangling = CSRGraph(np.array([0, 1, 1]), np.array([5]), validate=False)
    with pytest.raises(ValueError, match="valid CSR"):
        kernels.shuffle_drain(dangling, np.zeros(2, dtype=np.int64), np.array([2.0, 0.0]),
                              1.0, choice="ff", traversal="vertex", vertex_w=np.ones(2))
    g = complete_graph(4)
    bad = CSRGraph(g.indptr, g.indices, validate=False)
    colors = np.array([0, 0], dtype=np.int64)
    sizes = np.array([2.0, 0.0])
    under = np.array([False, True, False])
    with pytest.raises(ValueError, match="incidence"):
        kernels.d2_drain_pass(bad, 2, colors, sizes, under, 1.0,
                              np.array([0, 1]), choice="ff")


# ----------------------------------------------------------------------
# every C loop has a row
# ----------------------------------------------------------------------
def test_every_c_loop_has_a_row(monkeypatch):
    """The fixed cases of every row, run on the default path, call each
    exported C loop of ``SOURCE``, so a new loop with no dispatcher or no
    row fails here."""
    lib = compiled.load()
    if lib is None:
        pytest.skip(f"no compiled library: {compiled.failure_reason()}")
    cases = [(name, args) for name, row in KERNELS.items()
             for make in row.fixed.values() for args in make()]
    called = set()

    class Recording:
        def __getattr__(self, name):
            fn = getattr(lib, name)

            def record(*args):
                called.add(name)
                return fn(*args)
            return record

    monkeypatch.setattr(compiled, "_state", (Recording(), None))
    for name, args in cases:
        run(name, args)
    assert called == set(compiled.signatures())


# ----------------------------------------------------------------------
# end to end: the default dispatch == the oracles
# ----------------------------------------------------------------------
# meta keys that name the resolved backend or record the thread team's
# history
_RUN_STATE_KEYS = {"backend", "pool_reused"}


def _meta(coloring, skip=_RUN_STATE_KEYS) -> dict:
    return {k: v.to_dict() if k == "trace" else v
            for k, v in coloring.meta.items() if k not in skip}


def assert_run_matches(graph, config, path: str, skip=_RUN_STATE_KEYS, oracle=None):
    """*config* by default and *oracle* (default: *config*) on *path* give
    the same coloring, meta and ``drain_round`` events; returns the default
    result and its events."""
    runs = []
    for where, cfg in (("default", config), (path, oracle or config)):
        rec = Recorder()
        with on_path(where):
            result = execute(graph, cfg, recorder=rec)
        runs.append((result, [(e["source_bin"], e["moves"], e["rsd_percent"])
                              for e in rec.events if e["kind"] == "drain_round"]))
    (result, drains), (other, other_drains) = runs
    default, other = result.coloring, other.coloring
    assert np.array_equal(default.colors, other.colors)
    assert (default.num_colors, default.strategy) == (other.num_colors, other.strategy)
    assert _meta(default, skip) == _meta(other, skip)
    assert drains == other_drains
    return result, drains


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
def test_execute_matches_python_loops(strategy, mode, extra, how):
    graph = (load_dataset("cnr", scale=0.05, seed=0) if strategy.startswith("sched")
             else erdos_renyi_graph(250, 0.03, seed=7))
    skip = _RUN_STATE_KEYS if how == "reference-backend" else {"pool_reused"}
    result, default_drains = assert_run_matches(
        graph, RunConfig(strategy, mode=mode, **extra),
        "reference" if how == "reference-backend" else "numpy", skip)
    if strategy == "d2-balanced":
        assert default_drains and result.coloring.meta["moves"] > 0
    else:
        assert result.coloring.meta["committed"] > 0


#: every (strategy, mode) of the registry, the parallel modes on two
#: threads; then a corrupt block repaired after the run, and stale-snapshot
#: workers, whose collisions with finalized higher-id neighbors only the
#: cross and d2 detection rules catch (round 1 is speculated only under
#: an explicit ``max_rounds``; the ids leave ``strategy_kwargs`` out)
TIER_CASES = [(s, m, {} if m == "sequential" else {"threads": 2})
              for s, spec in STRATEGIES.items() for m in spec.modes] + [
    ("greedy-ff", "mp", {"threads": 2, "on_failure": "repair",
                         "fault_plan": "corrupt@r0.w1"}),
    *((s, "mp", {"threads": 2, "fault_plan": "stale@r1.w0",
                 "strategy_kwargs": {"max_rounds": 100}})
      for s in ("greedy-ff", "d2-optimistic", "d2-balanced")),
]


@pytest.mark.parametrize("strategy,mode,extra", TIER_CASES,
                         ids=["-".join([s, m, *(f"{k}={v}" for k, v in sorted(e.items())
                                                if k != "strategy_kwargs")])
                              for s, m, e in TIER_CASES])
def test_sweeps_end_to_end_match_reference(strategy, mode, extra):
    """The default run and a ``backend="reference"`` run agree, and the
    reference run calls no C kernel: the tripwire stands in for the
    library, on the team threads too."""
    d2 = strategy.startswith("d2")
    graph = (erdos_renyi_graph(300, 0.03, seed=7) if d2
             else load_dataset("cnr", scale=0.05, seed=0))
    config = RunConfig(strategy, mode=mode, seed=0, **extra)
    result, _ = assert_run_matches(graph, config, "compiled",
                                   oracle=config.replace(backend="reference"))
    if "fault_plan" in extra:
        assert result.coloring.meta["faults"]["injected"] == 1
    (assert_distance2_proper if d2 else assert_proper)(graph, result.coloring)
    if STRATEGIES[strategy].same_color_count:
        assert result.coloring.num_colors == result.initial.num_colors


def test_concurrent_jobs_keep_their_own_tier(monkeypatch):
    """Two threads execute at once, one per tier: each result names its
    own tier, and the ``reference`` thread never asks for the library."""
    graph = load_dataset("cnr", scale=0.05, seed=0)
    callers, real, barrier = set(), compiled.load, threading.Barrier(2)
    monkeypatch.setattr(compiled, "load", lambda: callers.add(threading.get_ident()) or real())

    def job(tier):
        barrier.wait()
        return threading.get_ident(), [
            execute(graph, RunConfig(s, backend=tier)).coloring.meta["backend"]
            for s in ("recoloring", "vff", "greedy-ff")]

    with ThreadPoolExecutor(2) as team:
        (ref_thread, ref), (_, vec) = team.map(job, kernels.BACKENDS)
    assert (ref, vec) == (["reference"] * 3, ["vectorized"] * 3)
    assert ref_thread not in callers


def test_inline_transport_matches_reference():
    graph = load_dataset("cnr", scale=0.05, seed=0)
    position = partition_positions(block_partition(graph, 2),
                                   graph.num_vertices)
    bip = BipartiteGraph.square_cover(erdos_renyi_graph(300, 0.03, seed=7))
    for hood in (Neighbourhood("d1", graph, graph.num_vertices, position),
                 Neighbourhood("d2", bip.incidence, bip.num_rows)):
        colors, meta = run_rounds(hood, 2, transport="inline", max_rounds=100)
        with on_path("reference"):
            oracle_colors, oracle_meta = run_rounds(hood, 2, transport="inline",
                                                    max_rounds=100)
        assert np.array_equal(colors, oracle_colors)
        assert meta == oracle_meta and meta["rounds"] > 1


def test_repair_matches_reference():
    graph = load_dataset("cnr", scale=0.05, seed=0)
    colors = kernels.ff_sweep(graph)
    u, v = graph.edge_arrays()
    broken = colors.copy()
    broken[u[::7]] = colors[v[::7]]  # monochromatic edges to repair
    fixed, repaired = repair_coloring(graph, broken)
    with on_path("reference"):
        oracle, oracle_repaired = repair_coloring(graph, broken)
    assert repaired.size > 0 and np.array_equal(repaired, oracle_repaired)
    assert np.array_equal(fixed, oracle)


# ----------------------------------------------------------------------
# build, cache and fallback
# ----------------------------------------------------------------------
#: when this module was imported: a library built in this session is newer
_SESSION_START = time.time()


def test_library_loads_unless_cc_is_false():
    """With a C compiler every exported loop of ``SOURCE`` resolves.  Under
    ``CC=false`` the load fails, the kernels run their oracles, and this
    session built no library into the cache."""
    lib = compiled.load()
    if os.environ.get("CC") == "false":
        assert lib is None
        assert "exited with status" in compiled.failure_reason()
        built = [path for path in compiled.cache_dir().glob("*.so")
                 if path.stat().st_mtime >= _SESSION_START]
        assert built == []
        return
    assert lib is not None, compiled.failure_reason()
    names = compiled.signatures()
    assert names and all(getattr(lib, name) for name in names)


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A first load in this process, with an empty private cache."""
    monkeypatch.setattr(compiled, "_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv("CC", raising=False)
    return tmp_path


def assert_fallback_matches_reference(reason_part: str) -> None:
    """The load failed for the expected reason, and every kernel gives the
    oracle's result on the first input of each fixed case."""
    assert compiled.load() is None
    reason = compiled.failure_reason()
    assert reason and reason_part in reason
    for name, row in KERNELS.items():
        for make in row.fixed.values():
            args = make()[0]
            assert_same(run(name, args, "reference"), run(name, args))


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

    def test_parameter_type_without_a_ctypes_type(self, fresh, monkeypatch):
        """The argtypes come from the prototypes in SOURCE; a parameter type
        the loader cannot declare fails the load before anything is built."""
        monkeypatch.setattr(compiled, "SOURCE", compiled.SOURCE
                            + "int64_t halve(float x) { return (int64_t)(x / 2); }\n")
        monkeypatch.setattr(compiled, "_build",
                            lambda cc, path: pytest.fail("built a library"))
        assert_fallback_matches_reference("halve: no ctypes type for parameter 'float x'")

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
        args = KERNELS["d2_drain_pass"].fixed["band-cover-ff"]()[0]
        barrier = threading.Barrier(8)
        out = [None] * 8

        def worker(i):
            barrier.wait()
            out[i] = (compiled.load(), run("d2_drain_pass", args))

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
        want = run("d2_drain_pass", args, "reference")
        for _, got in out:
            assert_same(want, got)


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
