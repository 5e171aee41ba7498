"""Named synthetic stand-ins for the paper's Table II inputs.

The paper's experiments use six graphs from the UFl Sparse Matrix
Collection (plus the custom biological network MG2).  Those files are not
redistributable here, so each is replaced by a generator configured to
match the *qualitative* properties the experiments depend on: degree skew,
Greedy-FF color count regime, and color-class size skew.  The substitution
table lives in DESIGN.md §2.

Sizes are scaled down (Python-friendly) but preserve the orderings that
matter: ``mg2`` has the most FF colors, then ``uk2002``, then ``copapers``
and ``cnr``, while ``channel`` (~12) and ``europe_osm`` (~5) have very few.
Pass ``scale`` to grow or shrink every dataset together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .build import from_edge_arrays
from .csr import CSRGraph
from .generators import (
    clique_edges,
    grid_3d_edges,
    jacobian_band_pattern,
    random_sparse_pattern,
    rmat_edges,
    road_network_edges,
    road_network_graph,
)

__all__ = ["DatasetSpec", "DATASETS", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: its builder plus provenance notes."""

    name: str
    paper_input: str
    description: str
    builder: Callable[[float, int], CSRGraph]

    def build(self, scale: float = 1.0, seed: int = 0) -> CSRGraph:
        """Materialize the graph at the given *scale* with the given *seed*."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return self.builder(scale, seed)


def _scaled(base: int, scale: float, minimum: int = 64) -> int:
    return max(minimum, int(base * scale))


# Each stand-in hands its raw edge arrays to from_edge_arrays once, and
# keeps no reference to a part once it is merged, so the build's peak
# memory holds one copy of the edge list.
def _cnr(scale: float, seed: int) -> CSRGraph:
    # web crawl: heavy-tailed RMAT + moderate cliques -> ~60-90 FF colors
    sc = max(8, int(round(math.log2(_scaled(16384, scale)))))
    return from_edge_arrays(*clique_edges(
        1 << sc, _scaled(180, scale), min_size=4, max_size=40, exponent=2.1,
        base_edges=rmat_edges(sc, 6.0, a=0.57, b=0.19, c=0.19, seed=seed),
        seed=seed + 1), num_vertices=1 << sc)


def _copapers(scale: float, seed: int) -> CSRGraph:
    # co-authorship: clique-dominated with a sparse backbone -> few hundred colors
    n = _scaled(16384, scale)
    return from_edge_arrays(*clique_edges(
        n, _scaled(1200, scale), min_size=5, max_size=110, exponent=2.0,
        base_edges=road_network_edges(n, shortcut_frac=0.1, seed=seed),
        seed=seed + 1), num_vertices=n)


def _channel(scale: float, seed: int) -> CSRGraph:
    # CFD mesh: 18-point stencil.  Vertices are randomly relabeled so that
    # natural-order Greedy-FF sees an irregular sweep (like the UFl file's
    # mesh numbering), giving ~12 skewed color classes instead of the
    # perfectly periodic (and already balanced) pattern of lexicographic
    # grid order.
    side = max(6, int(round(26 * scale ** (1 / 3))))
    nz = max(4, side * 2 // 3)
    perm = np.random.default_rng(seed).permutation(side * side * nz).astype(np.int64)
    u, v = grid_3d_edges(side, side, nz, stencil=18)
    u, v = perm[u], perm[v]
    return from_edge_arrays(u, v, num_vertices=perm.shape[0])


def _mg2(scale: float, seed: int) -> CSRGraph:
    # dense biological network: dense RMAT + many large cliques -> most colors
    sc = max(8, int(round(math.log2(_scaled(12288, scale)))))
    return from_edge_arrays(*clique_edges(
        1 << sc, _scaled(420, scale), min_size=8, max_size=260, exponent=1.95,
        base_edges=rmat_edges(sc, 22.0, a=0.55, b=0.2, c=0.2, seed=seed),
        seed=seed + 1), num_vertices=1 << sc)


def _uk2002(scale: float, seed: int) -> CSRGraph:
    # .uk web crawl: extreme degree skew, several hundred FF colors
    sc = max(9, int(round(math.log2(_scaled(32768, scale)))))
    return from_edge_arrays(*clique_edges(
        1 << sc, _scaled(420, scale), min_size=5, max_size=190, exponent=2.0,
        base_edges=rmat_edges(sc, 8.0, a=0.62, b=0.17, c=0.17, seed=seed),
        seed=seed + 1), num_vertices=1 << sc)


def _europe_osm(scale: float, seed: int) -> CSRGraph:
    # road network: avg degree ~2.1, a handful of FF colors
    return road_network_graph(_scaled(50000, scale), shortcut_frac=0.05, seed=seed)


def _jacband(scale: float, seed: int) -> CSRGraph:
    # banded constraint Jacobian: tall-skinny (10:1), band 7 + one random
    # coupling nonzero per row.  Incidence layout: rows first, then columns
    # (wrap with BipartiteGraph.from_incidence for the one-sided engines;
    # the d2 strategy rows work on it directly).
    nr = _scaled(16000, scale)
    return jacobian_band_pattern(nr, max(64, nr // 10), 7, seed=seed)


def _jacrand(scale: float, seed: int) -> CSRGraph:
    # unstructured Jacobian: tall-skinny (8:1), ~6 random nonzeros per row
    # -> frequent column collisions, the hard case for optimistic D2
    nr = _scaled(12000, scale)
    return random_sparse_pattern(nr, max(64, nr // 8), 6, seed=seed)


DATASETS: dict[str, DatasetSpec] = {
    "cnr": DatasetSpec(
        "cnr", "CNR (325K vertices, web crawl)",
        "RMAT + clique overlay web-crawl stand-in", _cnr,
    ),
    "copapers": DatasetSpec(
        "copapers", "coPapersDBLP (540K vertices, co-authorship)",
        "clique-overlay co-authorship stand-in", _copapers,
    ),
    "channel": DatasetSpec(
        "channel", "Channel (4.8M vertices, CFD mesh)",
        "3-D 18-point stencil mesh stand-in", _channel,
    ),
    "mg2": DatasetSpec(
        "mg2", "MG2 (11M vertices, biological network)",
        "dense RMAT + large-clique overlay stand-in", _mg2,
    ),
    "uk2002": DatasetSpec(
        "uk2002", "uk-2002 (18.5M vertices, web crawl)",
        "highly skewed RMAT + clique overlay stand-in", _uk2002,
    ),
    "europe_osm": DatasetSpec(
        "europe_osm", "Europe-osm (50.9M vertices, road network)",
        "tree-plus-shortcuts road-network stand-in", _europe_osm,
    ),
    "jacband": DatasetSpec(
        "jacband", "banded constraint Jacobian (tall-skinny pattern)",
        "bipartite incidence: banded rows + one random coupling nonzero",
        _jacband,
    ),
    "jacrand": DatasetSpec(
        "jacrand", "unstructured Jacobian (tall-skinny pattern)",
        "bipartite incidence: uniform random nonzeros, frequent collisions",
        _jacrand,
    ),
}


def load_dataset(name: str, *, scale: float = 1.0, seed: int = 0) -> CSRGraph:
    """Build the named dataset stand-in (see :data:`DATASETS` for names)."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}") from None
    return spec.build(scale=scale, seed=seed)
