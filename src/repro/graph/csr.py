"""Compressed-sparse-row undirected graph.

The CSR layout mirrors the paper's implementation (Sec. V: "Compressed
Sparse Row Representation of the graph") and the guides' advice on
cache-friendly contiguous access: the neighbors of vertex ``v`` are the
contiguous slice ``indices[indptr[v]:indptr[v+1]]``, so a greedy coloring
sweep touches memory almost sequentially.

Instances are logically immutable: algorithms never mutate a graph, they
produce new arrays (colorings, community assignments) indexed by vertex.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

__all__ = ["CSRGraph"]

#: Bytes fed to the hash per update when digesting an array.  Bounds the
#: transient copy a fingerprint makes, so hashing a memory-mapped graph
#: streams from disk instead of pulling the whole file into RAM.
_HASH_CHUNK_BYTES = 4 * 1024 * 1024


def _frozen_view(arr: np.ndarray) -> np.ndarray:
    """A non-writeable view of *arr* (the caller's array stays writeable).

    Graph identity (``__eq__``/``__hash__``/``fingerprint``) is cached on
    the assumption that the CSR arrays never change after construction;
    freezing the stored views turns an accidental in-place write into an
    immediate ``ValueError`` instead of a silently stale cache key.
    """
    view = arr.view()
    view.flags.writeable = False
    return view


def _hash_chunked(h, arr: np.ndarray) -> None:
    """Feed *arr*'s buffer to hash *h* in bounded chunks.

    Byte-identical to ``h.update(arr.tobytes())`` — the same byte stream
    in the same order — but without materializing a full copy, which for
    a memory-mapped array would be the entire on-disk file.
    """
    view = memoryview(np.ascontiguousarray(arr)).cast("B")
    for offset in range(0, view.nbytes, _HASH_CHUNK_BYTES):
        h.update(view[offset : offset + _HASH_CHUNK_BYTES])


class CSRGraph:
    """Undirected graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row pointer.
    indices:
        integer array of length ``2m`` holding, for each vertex, its sorted
        neighbor list (each undirected edge appears twice).
    validate:
        when true (default), structural invariants are checked eagerly.

    Notes
    -----
    Self-loops and parallel edges are disallowed: coloring semantics assume
    a simple graph (a self-loop would make a vertex uncolorable).
    """

    __slots__ = ("indptr", "indices", "mmap_paths", "_degrees",
                 "_edge_arrays", "_fingerprint")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *, validate: bool = True):
        self.indptr = _frozen_view(np.ascontiguousarray(indptr, dtype=np.int64))
        self.indices = _frozen_view(np.ascontiguousarray(indices, dtype=np.int64))
        #: ``(indptr_path, indices_path)`` when the arrays are memory-mapped
        #: ``.npy`` files from :mod:`repro.graph.store`, else ``None``.
        self.mmap_paths: tuple[str, str] | None = None
        self._degrees: np.ndarray | None = None
        self._edge_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._fingerprint: str | None = None
        if validate:
            self.check()

    @property
    def out_of_core(self) -> bool:
        """True when the CSR arrays stream from memory-mapped files.

        Out-of-core graphs keep their hot paths chunked: the big
        derived arrays (:meth:`edge_arrays`) are never memoized, and the
        conflict/invariant scanners iterate :meth:`edge_chunks` instead
        of materializing every edge at once.
        """
        return self.mmap_paths is not None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (each stored twice internally)."""
        return self.indices.shape[0] // 2

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex (cached)."""
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ (0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self.degrees.max(initial=0))

    def degree(self, v: int) -> int:
        """Degree of vertex *v*."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the sorted neighbor list of *v*."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``{u, v}`` is an edge (binary search on the sorted row)."""
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.shape[0] and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        indptr, indices = self.indptr, self.indices
        for u in range(self.num_vertices):
            for w in indices[indptr[u] : indptr[u + 1]]:
                if u < w:
                    yield (u, int(w))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(u, v)`` arrays with one entry per undirected edge, u < v.

        Memoized (like :attr:`degrees`): the graph is immutable, and the
        conflict-detection and modularity kernels call this every round.
        Callers must treat the returned arrays as read-only.
        """
        if self.out_of_core:
            # never memoized: pinning 2m entries in RAM would defeat the
            # memory-mapped store; callers that can stream should iterate
            # edge_chunks() instead of calling this at all
            parts = list(self.edge_chunks()) or [
                (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
            return (np.concatenate([p[0] for p in parts]),
                    np.concatenate([p[1] for p in parts]))
        if self._edge_arrays is None:
            n = self.num_vertices
            src = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
            mask = src < self.indices
            self._edge_arrays = (src[mask], self.indices[mask])
        return self._edge_arrays

    #: Directed entries per edge_chunks() slice — 1M entries is ~24 MiB of
    #: transient arrays, independent of graph size.
    EDGE_CHUNK = 1 << 20

    def edge_chunks(self, chunk: int | None = None):
        """Yield ``(u, v)`` edge arrays (u < v) in bounded-memory chunks.

        For in-RAM graphs this degenerates to one yield of the memoized
        :meth:`edge_arrays` (zero extra cost); for out-of-core graphs it
        walks the CSR row structure in slices of at most *chunk* directed
        entries, so the transient footprint stays constant no matter how
        large the mapped file is.  Concatenating every yield reproduces
        :meth:`edge_arrays` exactly.
        """
        if not self.out_of_core and chunk is None:
            yield self.edge_arrays()
            return
        limit = int(chunk or self.EDGE_CHUNK)
        n = self.num_vertices
        indptr = self.indptr
        lo = 0
        while lo < n:
            target = int(indptr[lo]) + limit
            hi = int(np.searchsorted(indptr, target, side="right")) - 1
            hi = min(max(hi, lo + 1), n)
            start, stop = int(indptr[lo]), int(indptr[hi])
            src = np.repeat(np.arange(lo, hi, dtype=np.int64),
                            np.diff(indptr[lo : hi + 1]))
            dst = np.asarray(self.indices[start:stop])
            mask = src < dst
            yield src[mask], dst[mask]
            lo = hi

    # ------------------------------------------------------------------
    # validation / conversion
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Validate CSR invariants; raise ``ValueError`` on violation.

        Checks: monotone indptr, index bounds, sorted rows, no self-loops,
        no duplicate neighbors, and symmetry (u in adj(v) iff v in adj(u)),
        with :func:`repro.kernels.csr_check`: one linear C pass when the
        compiled kernels load, else its NumPy oracle.
        """
        from ..kernels import csr_check  # repro.kernels imports this module

        csr_check(self)

    def to_scipy_sparse(self):
        """Convert to a ``scipy.sparse.csr_array`` of 1s (unweighted)."""
        from scipy.sparse import csr_array

        n = self.num_vertices
        data = np.ones(self.indices.shape[0], dtype=np.float64)
        return csr_array((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))

    def subgraph(self, vertices: np.ndarray) -> "CSRGraph":
        """Induced subgraph on *vertices* (relabeled 0..k-1 in given order)."""
        from .build import from_edge_arrays

        vertices = np.asarray(vertices, dtype=np.int64)
        if len(np.unique(vertices)) != len(vertices):
            raise ValueError("vertices for subgraph must be unique")
        relabel = np.full(self.num_vertices, -1, dtype=np.int64)
        relabel[vertices] = np.arange(len(vertices))
        u, v = self.edge_arrays()
        keep = (relabel[u] >= 0) & (relabel[v] >= 0)
        return from_edge_arrays(relabel[u[keep]], relabel[v[keep]], num_vertices=len(vertices))

    # ------------------------------------------------------------------
    # mutation (always returns a new graph; self is never modified)
    # ------------------------------------------------------------------
    def mutate(self, batch) -> tuple["CSRGraph", np.ndarray]:
        """Apply a :class:`~repro.graph.delta.MutationBatch`.

        Returns ``(mutated_graph, dirty_vertices)``; ``self`` is untouched
        (its arrays are frozen and its cached fingerprint stays valid).
        See :func:`repro.graph.delta.apply_delta`.
        """
        from .delta import apply_delta

        return apply_delta(self, batch)

    def add_edges(self, u, v) -> tuple["CSRGraph", np.ndarray]:
        """New graph with edges ``{u[i], v[i]}`` added, plus dirty vertices."""
        from .delta import MutationBatch

        pairs = np.column_stack([np.atleast_1d(np.asarray(u, dtype=np.int64)),
                                 np.atleast_1d(np.asarray(v, dtype=np.int64))])
        return self.mutate(MutationBatch.from_edges(add=pairs))

    def remove_edges(self, u, v) -> tuple["CSRGraph", np.ndarray]:
        """New graph with edges ``{u[i], v[i]}`` removed, plus dirty vertices."""
        from .delta import MutationBatch

        pairs = np.column_stack([np.atleast_1d(np.asarray(u, dtype=np.int64)),
                                 np.atleast_1d(np.asarray(v, dtype=np.int64))])
        return self.mutate(MutationBatch.from_edges(remove=pairs))

    def add_vertices(self, count: int) -> tuple["CSRGraph", np.ndarray]:
        """New graph with *count* isolated vertices appended (ids ``n..n+count-1``)."""
        from .delta import MutationBatch

        return self.mutate(MutationBatch.from_edges(add_vertices=count))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, max_deg={self.max_degree})"

    def fingerprint(self) -> str:
        """Stable full-content digest (hex SHA-256), cached after first call.

        Covers the complete ``indptr`` and ``indices`` arrays plus a
        format tag, so two graphs share a fingerprint iff their CSR
        content is byte-identical.  Independent of process, platform, and
        ``PYTHONHASHSEED`` — it is the graph half of the serving layer's
        content-addressed cache keys (see :mod:`repro.serve.fingerprint`).
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(b"CSRGraph/v1")
            h.update(np.int64(self.num_vertices).tobytes())
            _hash_chunked(h, self.indptr)
            _hash_chunked(h, self.indices)
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __getstate__(self) -> dict:
        # the memoized O(m) arrays would bloat pickles
        return {"indptr": self.indptr, "indices": self.indices,
                "mmap_paths": self.mmap_paths,
                "_fingerprint": self._fingerprint}

    def __setstate__(self, state: dict) -> None:
        self.indptr = _frozen_view(np.asarray(state["indptr"]))
        self.indices = _frozen_view(np.asarray(state["indices"]))
        self.mmap_paths = state.get("mmap_paths")
        self._degrees = None
        self._edge_arrays = None
        self._fingerprint = state.get("_fingerprint")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __hash__(self) -> int:
        # Full-content digest, not a prefix: large graphs that differ only
        # past the first bytes of ``indices`` must not collide.  Cached, so
        # repeated hashing is O(1) after the first call, and consistent
        # with __eq__ (equal arrays => equal digest).
        return int.from_bytes(bytes.fromhex(self.fingerprint()[:16]), "big")
