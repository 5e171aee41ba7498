"""Synthetic graph generators.

These provide both textbook graphs used by the test-suite (paths, cycles,
cliques, Erdős–Rényi) and the structured families used as stand-ins for the
paper's UFl Sparse Matrix Collection inputs (see ``repro.graph.datasets``):

- :func:`rmat_graph` — Kronecker/R-MAT power-law graphs (web-crawl-like
  degree skew, as in ``cnr`` / ``uk-2002``);
- :func:`clique_overlay_graph` — union of power-law-sized cliques
  (co-authorship structure, as in ``coPapersDBLP``; cliques pin down a large
  lower bound on the number of Greedy-FF colors);
- :func:`grid_3d_graph` — 3-D stencils (CFD meshes, as in ``Channel``);
- :func:`road_network_graph` — tree-plus-shortcuts with average degree
  barely above two (as in ``Europe-osm``).

Everything is vectorized with NumPy; no per-edge Python loops.
"""

from __future__ import annotations

import numpy as np

from ..util import as_rng, check_positive
from .build import from_edge_arrays
from .csr import CSRGraph

__all__ = [
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "erdos_renyi_graph",
    "rmat_graph",
    "powerlaw_cluster_graph",
    "grid_3d_graph",
    "road_network_graph",
    "clique_overlay_graph",
    "jacobian_band_pattern",
    "random_sparse_pattern",
    # the raw endpoint arrays behind four of the graphs above, so a dataset
    # stand-in can combine them and assemble its graph once
    "rmat_edges",
    "grid_3d_edges",
    "road_network_edges",
    "clique_edges",
]


# ----------------------------------------------------------------------
# textbook graphs
# ----------------------------------------------------------------------
def empty_graph(n: int) -> CSRGraph:
    """Graph with *n* vertices and no edges."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    e = np.empty(0, dtype=np.int64)
    return from_edge_arrays(e, e, num_vertices=n)


def path_graph(n: int) -> CSRGraph:
    """Path 0-1-...-(n-1)."""
    if n <= 1:
        return empty_graph(max(n, 0))
    u = np.arange(n - 1, dtype=np.int64)
    return from_edge_arrays(u, u + 1, num_vertices=n)


def cycle_graph(n: int) -> CSRGraph:
    """Cycle on *n* vertices (n >= 3)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    u = np.arange(n, dtype=np.int64)
    return from_edge_arrays(u, (u + 1) % n, num_vertices=n)


def star_graph(n: int) -> CSRGraph:
    """Star: center 0 joined to 1..n-1."""
    if n < 1:
        raise ValueError(f"star needs n >= 1, got {n}")
    if n == 1:
        return empty_graph(1)
    leaves = np.arange(1, n, dtype=np.int64)
    return from_edge_arrays(np.zeros(n - 1, dtype=np.int64), leaves, num_vertices=n)


def complete_graph(n: int) -> CSRGraph:
    """Clique K_n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    iu = np.triu_indices(n, k=1)
    return from_edge_arrays(iu[0].astype(np.int64), iu[1].astype(np.int64), num_vertices=n)


def erdos_renyi_graph(n: int, p: float, *, seed=None) -> CSRGraph:
    """G(n, p) sampled via the expected-edge-count trick.

    For efficiency we sample ``Binomial(n*(n-1)/2, p)`` candidate pairs
    uniformly (with replacement; duplicates are collapsed by the builder),
    which matches G(n, p) closely for the sparse regimes used here.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = as_rng(seed)
    if n < 2 or p == 0.0:
        return empty_graph(max(n, 0))
    if p > 0.3:  # dense: exact sampling over all pairs
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < p
        return from_edge_arrays(iu[mask].astype(np.int64), iv[mask].astype(np.int64), num_vertices=n)
    total_pairs = n * (n - 1) // 2
    m = rng.binomial(total_pairs, p)
    u = rng.integers(0, n, size=m, dtype=np.int64)
    v = rng.integers(0, n, size=m, dtype=np.int64)
    return from_edge_arrays(u, v, num_vertices=n)


# ----------------------------------------------------------------------
# structured families (dataset stand-ins)
# ----------------------------------------------------------------------
def rmat_graph(
    scale: int,
    edge_factor: float,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=None,
) -> CSRGraph:
    """R-MAT graph with ``n = 2**scale`` vertices, ``~ edge_factor * n`` edges.

    Each edge picks one of four quadrants per bit level with probabilities
    ``(a, b, c, d=1-a-b-c)``; skewed parameters produce heavy-tailed degree
    distributions like web crawls.  Duplicate edges and self-loops are
    collapsed, so the realized edge count is slightly below the target.
    """
    return from_edge_arrays(*rmat_edges(scale, edge_factor, a=a, b=b, c=c, seed=seed),
                            num_vertices=1 << scale)


def rmat_edges(scale: int, edge_factor: float, *, a: float = 0.57, b: float = 0.19,
               c: float = 0.19, seed=None) -> tuple[np.ndarray, np.ndarray]:
    """The raw endpoint arrays of :func:`rmat_graph`, repeats and loops kept."""
    check_positive("scale", scale)
    check_positive("edge_factor", edge_factor)
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError(f"quadrant probabilities must be non-negative: {(a, b, c, d)}")
    rng = as_rng(seed)
    n = 1 << scale
    m = int(edge_factor * n)
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    # per bit level, choose quadrant for every edge at once
    p_right = b + d  # P(column bit = 1)
    for _ in range(scale):
        r_col = rng.random(m) < p_right
        # row bit depends on the column choice: P(row=1 | col) per R-MAT
        p_down = np.where(r_col, d / p_right, c / (a + c))
        r_row = rng.random(m) < p_down
        u = (u << 1) | r_row
        v = (v << 1) | r_col
    # permute vertex ids so low ids are not systematically high degree
    perm = rng.permutation(n).astype(np.int64)
    return perm[u], perm[v]


def powerlaw_cluster_graph(n: int, attach: int, *, triangle_p: float = 0.5, seed=None) -> CSRGraph:
    """Preferential attachment with triangle closure (Holme–Kim style).

    Produces power-law degrees *and* clustering; used for the
    ``coPapersDBLP`` stand-in in combination with a clique overlay.
    """
    check_positive("n", n)
    check_positive("attach", attach)
    if attach >= n:
        raise ValueError(f"attach ({attach}) must be < n ({n})")
    rng = as_rng(seed)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    # repeated-nodes list for preferential sampling
    repeated = list(range(attach))
    for new in range(attach, n):
        targets = rng.choice(repeated, size=min(attach, len(repeated)), replace=False)
        # triangle step: with prob triangle_p, also link to a neighbor of a target
        extra = []
        for t in targets:
            if rng.random() < triangle_p and repeated:
                extra.append(repeated[rng.integers(len(repeated))])
        all_t = np.unique(np.concatenate([targets, np.asarray(extra, dtype=np.int64)]) if extra else targets)
        all_t = all_t[all_t != new]
        us.append(np.full(all_t.shape[0], new, dtype=np.int64))
        vs.append(all_t.astype(np.int64))
        repeated.extend(all_t.tolist())
        repeated.extend([new] * len(all_t))
    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    return from_edge_arrays(u, v, num_vertices=n)


def grid_3d_graph(nx: int, ny: int, nz: int, *, stencil: int = 6) -> CSRGraph:
    """3-D grid with a 6-, 18-, or 26-point stencil.

    The 18-point stencil (faces + edges, no corners) matches the ``Channel``
    input's max degree of 18 and its ~12-color Greedy-FF profile.
    """
    return from_edge_arrays(*grid_3d_edges(nx, ny, nz, stencil=stencil),
                            num_vertices=nx * ny * nz)


def grid_3d_edges(nx: int, ny: int, nz: int, *,
                  stencil: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """The raw endpoint arrays of :func:`grid_3d_graph`, both directions."""
    for name, val in (("nx", nx), ("ny", ny), ("nz", nz)):
        check_positive(name, val)
    if stencil not in (6, 18, 26):
        raise ValueError(f"stencil must be 6, 18, or 26, got {stencil}")
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                nz_terms = abs(dx) + abs(dy) + abs(dz)
                if nz_terms == 0:
                    continue
                if stencil == 6 and nz_terms > 1:
                    continue
                if stencil == 18 and nz_terms > 2:
                    continue
                offsets.append((dx, dy, dz))

    xs, ys, zs = np.meshgrid(
        np.arange(nx, dtype=np.int64),
        np.arange(ny, dtype=np.int64),
        np.arange(nz, dtype=np.int64),
        indexing="ij",
    )
    xs, ys, zs = xs.ravel(), ys.ravel(), zs.ravel()

    def vid(x, y, z):
        return (x * ny + y) * nz + z

    all_u = []
    all_v = []
    for dx, dy, dz in offsets:
        ok = (
            (xs + dx >= 0) & (xs + dx < nx)
            & (ys + dy >= 0) & (ys + dy < ny)
            & (zs + dz >= 0) & (zs + dz < nz)
        )
        all_u.append(vid(xs[ok], ys[ok], zs[ok]))
        all_v.append(vid(xs[ok] + dx, ys[ok] + dy, zs[ok] + dz))
    return np.concatenate(all_u), np.concatenate(all_v)


def road_network_graph(n: int, *, shortcut_frac: float = 0.06, seed=None) -> CSRGraph:
    """Road-network stand-in: random tree plus a few shortcut edges.

    Average degree lands just above 2 with a small maximum degree, like
    ``Europe-osm`` (avg 2.12, Greedy-FF uses ~5 colors).
    """
    return from_edge_arrays(*road_network_edges(n, shortcut_frac=shortcut_frac,
                                                seed=seed), num_vertices=n)


def road_network_edges(n: int, *, shortcut_frac: float = 0.06,
                       seed=None) -> tuple[np.ndarray, np.ndarray]:
    """The raw endpoint arrays of :func:`road_network_graph`."""
    check_positive("n", n)
    if shortcut_frac < 0:
        raise ValueError(f"shortcut_frac must be >= 0, got {shortcut_frac}")
    rng = as_rng(seed)
    # random tree: each vertex v >= 1 attaches to a recent vertex (locality
    # keeps degrees small, like road segments chaining)
    children = np.arange(1, n, dtype=np.int64)
    window = np.maximum(1, (children * 0.05).astype(np.int64))
    parents = children - 1 - (rng.random(n - 1) * window).astype(np.int64)
    parents = np.clip(parents, 0, None)
    k = int(shortcut_frac * n)
    su = rng.integers(0, n, size=k, dtype=np.int64)
    sv = np.clip(su + rng.integers(1, 50, size=k), 0, n - 1)
    return np.concatenate([children, su]), np.concatenate([parents, sv])


def clique_overlay_graph(
    n: int,
    num_cliques: int,
    *,
    min_size: int = 3,
    max_size: int = 30,
    exponent: float = 2.2,
    base: CSRGraph | None = None,
    seed=None,
) -> CSRGraph:
    """Union of power-law-sized cliques over *n* vertices.

    Models co-authorship (every paper's author set is a clique) and, more
    importantly for this reproduction, controls the Greedy-FF color count:
    a clique of size *k* forces at least *k* colors.  If *base* is given its
    edges are included (overlay on an existing graph).
    """
    if base is not None and base.num_vertices != n:
        raise ValueError("base graph vertex count mismatch")
    return from_edge_arrays(*clique_edges(
        n, num_cliques, min_size=min_size, max_size=max_size, exponent=exponent,
        base_edges=None if base is None else base.edge_arrays(), seed=seed),
        num_vertices=n)


def clique_edges(n: int, num_cliques: int, *, min_size: int = 3, max_size: int = 30,
                 exponent: float = 2.2, base_edges: tuple[np.ndarray, np.ndarray] | None = None,
                 seed=None) -> tuple[np.ndarray, np.ndarray]:
    """The raw endpoint arrays of :func:`clique_overlay_graph`: its cliques,
    then the endpoint arrays *base_edges* if given, in one concatenation."""
    check_positive("n", n)
    check_positive("num_cliques", num_cliques)
    if not 2 <= min_size <= max_size:
        raise ValueError(f"need 2 <= min_size <= max_size, got {min_size}, {max_size}")
    if max_size > n:
        raise ValueError(f"max_size ({max_size}) exceeds n ({n})")
    rng = as_rng(seed)
    # power-law sizes via inverse transform on a discrete Pareto
    uvals = rng.random(num_cliques)
    sizes = (min_size * (1 - uvals) ** (-1.0 / (exponent - 1.0))).astype(np.int64)
    sizes = np.clip(sizes, min_size, max_size)
    all_u = []
    all_v = []
    pairs = {int(s): np.triu_indices(int(s), k=1) for s in np.unique(sizes)}
    for s in sizes:
        members = rng.choice(n, size=int(s), replace=False).astype(np.int64)
        iu, iv = pairs[int(s)]
        all_u.append(members[iu])
        all_v.append(members[iv])
    if base_edges is not None:
        all_u.append(base_edges[0])
        all_v.append(base_edges[1])
    return np.concatenate(all_u), np.concatenate(all_v)


# ----------------------------------------------------------------------
# bipartite incidence patterns (Jacobian-compression stand-ins)
# ----------------------------------------------------------------------
def jacobian_band_pattern(
    num_rows: int, num_cols: int, band: int, *, seed=None
) -> CSRGraph:
    """Banded tall-skinny sparsity pattern as a bipartite incidence graph.

    Models the Jacobian of a discretized 1-D operator evaluated on a fine
    grid: row *i* has nonzeros in a window of *band* consecutive columns
    centered on its projection ``i * num_cols / num_rows`` (clipped at the
    column range).  With ``seed`` given, each row additionally gets one
    uniformly random off-band nonzero (a coupling term), which breaks the
    perfect band structure the way real constraint Jacobians do.

    The returned graph follows the :class:`repro.bipartite.BipartiteGraph`
    vertex layout — rows on ``[0, num_rows)``, columns on ``[num_rows,
    num_rows + num_cols)`` — so ``BipartiteGraph.from_incidence(g,
    num_rows)`` wraps it directly.
    """
    check_positive("num_rows", num_rows)
    check_positive("num_cols", num_cols)
    check_positive("band", band)
    band = min(int(band), num_cols)
    rows = np.repeat(np.arange(num_rows, dtype=np.int64), band)
    center = (np.arange(num_rows, dtype=np.int64) * num_cols) // num_rows
    start = np.clip(center - (band - 1) // 2, 0, num_cols - band)
    cols = (np.repeat(start, band)
            + np.tile(np.arange(band, dtype=np.int64), num_rows))
    if seed is not None:
        rng = as_rng(seed)
        extra = rng.integers(0, num_cols, size=num_rows, dtype=np.int64)
        rows = np.concatenate([rows, np.arange(num_rows, dtype=np.int64)])
        cols = np.concatenate([cols, extra])
    return from_edge_arrays(rows, cols + num_rows,
                            num_vertices=num_rows + num_cols)


def random_sparse_pattern(
    num_rows: int, num_cols: int, nnz_per_row: int, *, seed=None
) -> CSRGraph:
    """Uniform random tall-skinny pattern as a bipartite incidence graph.

    Each row draws *nnz_per_row* column indices uniformly at random
    (duplicates collapse, so realized row degrees are at most that) — the
    unstructured Jacobian case where column collisions, and hence
    distance-2 conflicts between rows, are frequent.  Same vertex layout
    as :func:`jacobian_band_pattern`: rows first, then columns.
    """
    check_positive("num_rows", num_rows)
    check_positive("num_cols", num_cols)
    check_positive("nnz_per_row", nnz_per_row)
    rng = as_rng(seed)
    rows = np.repeat(np.arange(num_rows, dtype=np.int64), nnz_per_row)
    cols = rng.integers(0, num_cols, size=num_rows * nnz_per_row,
                        dtype=np.int64)
    return from_edge_arrays(rows, cols + num_rows,
                            num_vertices=num_rows + num_cols)
