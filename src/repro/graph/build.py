"""Constructors producing :class:`~repro.graph.csr.CSRGraph` instances.

All builders normalize their input the same way: self-loops dropped,
duplicate edges collapsed, adjacency symmetrized, neighbor lists sorted.
Every builder ends in :func:`from_edge_arrays`, which assembles the CSR
with :func:`repro.kernels.csr_assemble`: a counting sort in C (two linear
bucket passes) when the compiled kernels load, else its oracle, the
sort-based NumPy assembly of :mod:`repro.kernels.reference`.  The CSR of
a simple graph is canonical, so both give the same arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .csr import CSRGraph

__all__ = [
    "from_edge_arrays",
    "from_edge_list",
    "from_adjacency",
    "from_scipy_sparse",
    "from_networkx",
]


def from_edge_arrays(
    u: np.ndarray, v: np.ndarray, *, num_vertices: int | None = None
) -> CSRGraph:
    """Build a graph from parallel endpoint arrays.

    Parameters
    ----------
    u, v:
        Integer arrays of equal length; each position describes one
        undirected edge.  Order, duplicates, and self-loops are all
        tolerated and normalized away.  A non-integer endpoint (a float,
        a bool) raises :class:`ValueError` instead of being truncated;
        empty arrays may have any dtype.
    num_vertices:
        Total vertex count; defaults to ``max(endpoint) + 1``.
    """
    from ..kernels import csr_assemble  # repro.kernels imports this package

    u, v = np.asarray(u).ravel(), np.asarray(v).ravel()
    for arr in (u, v):
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"endpoints must be integers, got {arr.dtype}")
    u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
    if num_vertices is None:
        num_vertices = int(max(u.max(initial=-1), v.max(initial=-1)) + 1)
    return CSRGraph(*csr_assemble(u, v, num_vertices))


def from_edge_list(
    edges: Iterable[tuple[int, int]], *, num_vertices: int | None = None
) -> CSRGraph:
    """Build a graph from an iterable of ``(u, v)`` pairs."""
    pairs = np.asarray(list(edges), dtype=np.int64)
    if pairs.size == 0:
        return from_edge_arrays(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            num_vertices=num_vertices or 0,
        )
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be pairs")
    return from_edge_arrays(pairs[:, 0], pairs[:, 1], num_vertices=num_vertices)


def from_adjacency(adj: Sequence[Sequence[int]]) -> CSRGraph:
    """Build a graph from an adjacency-list-of-lists (symmetrized)."""
    us, vs = [], []
    for u, nbrs in enumerate(adj):
        for w in nbrs:
            us.append(u)
            vs.append(int(w))
    return from_edge_arrays(
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        num_vertices=len(adj),
    )


def from_scipy_sparse(mat) -> CSRGraph:
    """Build a graph from any scipy sparse matrix (pattern only).

    The matrix is treated as the adjacency structure of an undirected graph:
    values are ignored, the pattern is symmetrized, the diagonal dropped.
    This matches how the paper ingests UFl Sparse Matrix Collection inputs.
    """
    coo = mat.tocoo()
    if coo.shape[0] != coo.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got {coo.shape}")
    return from_edge_arrays(
        coo.row.astype(np.int64), coo.col.astype(np.int64), num_vertices=coo.shape[0]
    )


def from_networkx(g) -> CSRGraph:
    """Build a graph from a ``networkx`` graph (nodes relabeled 0..n-1)."""
    nodes = list(g.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    us = np.fromiter((index[a] for a, _ in g.edges()), dtype=np.int64, count=g.number_of_edges())
    vs = np.fromiter((index[b] for _, b in g.edges()), dtype=np.int64, count=g.number_of_edges())
    return from_edge_arrays(us, vs, num_vertices=len(nodes))
