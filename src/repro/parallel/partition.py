"""Vertex partitioning strategies for the mp round driver.

How vertices are split across workers drives the conflict rate of the
speculative rounds in :func:`repro.parallel.mp.mp_greedy_ff`: workers
cannot see each other's in-round proposals, so every *cross-partition*
edge is a potential monochromatic race.  Three strategies with different
cut sizes:

- :func:`block_partition` — contiguous id ranges (the OpenMP-static
  default; cut quality depends entirely on the vertex numbering);
- :func:`random_partition` — uniformly scattered (worst-case cut, useful
  as the adversarial control);
- :func:`bfs_partition` — breadth-first clustered blocks (locality-aware;
  fewest cross edges on mesh-like and community-structured graphs).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..util import as_rng

__all__ = ["PARTITIONS", "block_partition", "random_partition",
           "bfs_partition", "cut_edges", "partition_by_name"]


def _split(order: np.ndarray, num_parts: int) -> list[np.ndarray]:
    return [part for part in np.array_split(order, num_parts) if part.shape[0]]


def block_partition(graph: CSRGraph, num_parts: int) -> list[np.ndarray]:
    """Contiguous id blocks of near-equal size."""
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    return _split(np.arange(graph.num_vertices, dtype=np.int64), num_parts)


def random_partition(graph: CSRGraph, num_parts: int, *, seed=None) -> list[np.ndarray]:
    """Uniformly random assignment (equal sizes, maximal expected cut)."""
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    order = as_rng(seed).permutation(graph.num_vertices).astype(np.int64)
    return _split(order, num_parts)


def bfs_partition(graph: CSRGraph, num_parts: int, *, seed=None) -> list[np.ndarray]:
    """Equal-size blocks cut from a breadth-first traversal.

    BFS visits each connected region contiguously, so consecutive blocks
    share few edges — a cheap stand-in for a real graph partitioner.
    """
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    n = graph.num_vertices
    rng = as_rng(seed)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    indptr, indices = graph.indptr, graph.indices
    # seed BFS at a random vertex of each unvisited region
    for start in rng.permutation(n):
        if visited[start]:
            continue
        queue = [int(start)]
        visited[start] = True
        while queue:
            v = queue.pop(0)
            order[pos] = v
            pos += 1
            for w in indices[indptr[v] : indptr[v + 1]]:
                w = int(w)
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    return _split(order, num_parts)


#: Registered partitioner names, in documentation order.
PARTITIONS = ("block", "random", "bfs")


def partition_by_name(graph: CSRGraph, num_parts: int, name: str = "block",
                      *, seed=None) -> list[np.ndarray]:
    """Resolve a partitioner by *name* and run it.

    The front door of :func:`repro.parallel.mp.mp_greedy_ff` — one
    spelling of the name set, one error message.  ``seed``
    is ignored by the deterministic ``"block"`` strategy.
    """
    if name == "block":
        return block_partition(graph, num_parts)
    if name == "random":
        return random_partition(graph, num_parts, seed=seed)
    if name == "bfs":
        return bfs_partition(graph, num_parts, seed=seed)
    raise ValueError(
        f"partition must be one of {sorted(PARTITIONS)}, got {name!r}")


def cut_edges(graph: CSRGraph, parts: list[np.ndarray]) -> int:
    """Number of edges whose endpoints land in different parts."""
    owner = np.full(graph.num_vertices, -1, dtype=np.int64)
    for i, part in enumerate(parts):
        if np.any(owner[part] >= 0):
            raise ValueError("parts overlap")
        owner[part] = i
    if np.any(owner < 0):
        raise ValueError("parts do not cover every vertex")
    u, v = graph.edge_arrays()
    return int(np.count_nonzero(owner[u] != owner[v]))
