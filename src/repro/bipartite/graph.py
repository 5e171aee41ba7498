"""Bipartite view over :class:`~repro.graph.csr.CSRGraph`.

The Jacobian-compression workload colors the *rows* of a sparse matrix
pattern so that rows sharing a column get distinct colors — a one-sided
(partial) distance-2 coloring of the bipartite row/column graph (Taş/Kaya,
*Greed is Good*).  Rather than introduce a second storage format, a
:class:`BipartiteGraph` is a thin validated view over an ordinary
*incidence* ``CSRGraph``: vertices ``[0, num_rows)`` are the row side,
``[num_rows, n)`` the column side, and every edge crosses the bipartition.
One representation means the whole existing substrate — generators,
datasets, the graph store, the mp thread team, ``edge_chunks`` streaming —
works on bipartite inputs unchanged.

Two constructions cover the two workloads:

- :meth:`BipartiteGraph.from_matrix_pattern` — a tall-skinny sparsity
  pattern given as COO row/column index arrays (the Jacobian case);
- :meth:`BipartiteGraph.square_cover` — the *square cover* of a general
  graph ``G``: rows = columns = ``V(G)``, with row ``u`` incident to
  column ``v`` iff ``u == v`` or ``u ~ v``.  Rows within two hops of each
  other in the cover are exactly the vertex pairs within distance two in
  ``G``, so a one-sided partial coloring of the cover *is* a full
  distance-2 coloring of ``G`` — this is how the bipartite engine powers
  the ``d2-optimistic``/``d2-balanced`` registry strategies.

Distance-2 neighborhoods are iterated through the two-hop row → column →
row expansion and never materialized as a row×row graph (whose edge count
is quadratic in column degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..graph.build import from_edge_arrays
from ..graph.csr import CSRGraph

__all__ = ["BipartiteGraph"]


@dataclass(frozen=True)
class BipartiteGraph:
    """A row/column bipartition of an incidence ``CSRGraph``.

    ``incidence`` holds rows on vertices ``[0, num_rows)`` and columns on
    ``[num_rows, n)``; construction validates that every edge crosses the
    bipartition.  The view is immutable, like the graph it wraps.
    """

    incidence: CSRGraph
    num_rows: int

    def __post_init__(self):
        n = self.incidence.num_vertices
        if not 0 < self.num_rows <= n:
            raise ValueError(
                f"num_rows must be in [1, {n}], got {self.num_rows}")
        indptr, indices = self.incidence.indptr, self.incidence.indices
        row_nbrs = indices[: indptr[self.num_rows]]
        if row_nbrs.size and row_nbrs.min() < self.num_rows:
            raise ValueError(
                "not bipartite: a row vertex is adjacent to another row")
        col_nbrs = indices[indptr[self.num_rows] :]
        if col_nbrs.size and col_nbrs.max() >= self.num_rows:
            raise ValueError(
                "not bipartite: a column vertex is adjacent to another column")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix_pattern(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        *,
        num_rows: int | None = None,
        num_cols: int | None = None,
    ) -> "BipartiteGraph":
        """Build the view from a COO sparsity pattern.

        *rows* / *cols* are parallel index arrays (one nonzero each);
        duplicates are collapsed.  Shape defaults to ``max index + 1``
        per side.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise ValueError(
                f"index arrays differ in length: {rows.shape} vs {cols.shape}")
        if rows.size and (rows.min() < 0 or cols.min() < 0):
            raise ValueError("matrix indices must be non-negative")
        nr = int(num_rows) if num_rows is not None else int(rows.max(initial=-1)) + 1
        nc = int(num_cols) if num_cols is not None else int(cols.max(initial=-1)) + 1
        if nr < 1 or nc < 1:
            raise ValueError(f"pattern shape must be positive, got {nr}x{nc}")
        if rows.size and (rows.max() >= nr or cols.max() >= nc):
            raise ValueError(f"index exceeds the {nr}x{nc} pattern shape")
        incidence = from_edge_arrays(rows, cols + nr, num_vertices=nr + nc)
        return cls(incidence, nr)

    @classmethod
    def from_incidence(cls, graph: CSRGraph, num_rows: int) -> "BipartiteGraph":
        """Wrap an existing incidence graph (validates the bipartition)."""
        return cls(graph, num_rows)

    @classmethod
    def square_cover(cls, graph: CSRGraph) -> "BipartiteGraph":
        """The bipartite cover whose partial coloring is a full D2 coloring.

        Rows and columns both stand for ``V(graph)``; row ``u`` meets
        column ``v`` iff ``u == v`` or ``u ~ v``.  Two rows share a column
        exactly when their vertices are within distance two in *graph*.
        """
        n = graph.num_vertices
        if n == 0:
            raise ValueError("square_cover needs a non-empty graph")
        src, dst = graph.edge_arrays()  # one direction per undirected edge
        ident = np.arange(n, dtype=np.int64)
        u = np.concatenate([src, dst, ident])
        v = np.concatenate([dst + n, src + n, ident + n])
        return cls(from_edge_arrays(u, v, num_vertices=2 * n), n)

    # ------------------------------------------------------------------
    # shape and adjacency
    # ------------------------------------------------------------------
    @property
    def num_cols(self) -> int:
        """Number of column vertices."""
        return self.incidence.num_vertices - self.num_rows

    @property
    def num_nonzeros(self) -> int:
        """Number of (row, column) incidences — the pattern's nnz."""
        return self.incidence.num_edges

    @property
    def row_degrees(self) -> np.ndarray:
        """Nonzeros per row."""
        return self.incidence.degrees[: self.num_rows]

    @property
    def col_degrees(self) -> np.ndarray:
        """Nonzeros per column."""
        return self.incidence.degrees[self.num_rows :]

    def cols_of_row(self, r: int) -> np.ndarray:
        """Column indices (0-based, column-local) of row *r*'s nonzeros."""
        return self.incidence.neighbors(r) - self.num_rows

    def rows_of_col(self, c: int) -> np.ndarray:
        """Row indices of column *c*'s nonzeros."""
        return self.incidence.neighbors(self.num_rows + c)

    def d2_degree(self, r: int) -> int:
        """Two-hop expansion size of row *r* (Σ column degrees), its own
        slots included — the work-unit cost of distance-2 processing it."""
        indptr = self.incidence.indptr
        cols = self.incidence.indices[indptr[r] : indptr[r + 1]]
        return int((indptr[cols + 1] - indptr[cols]).sum())

    def d2_neighbors(self, r: int) -> np.ndarray:
        """Distinct rows sharing at least one column with *r* (*r* excluded).

        Computed through the row → column → row expansion; the row×row
        graph is never materialized.
        """
        indptr, indices = self.incidence.indptr, self.incidence.indices
        cols = indices[indptr[r] : indptr[r + 1]]
        if cols.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        parts = [indices[indptr[c] : indptr[c + 1]] for c in cols]
        two_hop = np.unique(np.concatenate(parts))
        return two_hop[two_hop != r]

    def iter_d2_neighborhoods(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(row, d2_neighbors(row))`` for every row, in id order."""
        for r in range(self.num_rows):
            yield r, self.d2_neighbors(r)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BipartiteGraph({self.num_rows}x{self.num_cols}, "
                f"nnz={self.num_nonzeros})")
