"""Graph mutation: delta batches over an immutable :class:`CSRGraph`.

A :class:`MutationBatch` is a validated, canonicalized description of one
round of graph churn — edges added, edges removed, vertices appended —
and :func:`apply_delta` compacts it into a **new** CSR graph plus the set
of *dirty* vertices (every endpoint the mutation touched).  The base
graph is never modified: its arrays are read-only views and its cached
fingerprint stays valid, so serving-layer cache entries keyed on the base
keep working while the delta-derived graph gets a fresh identity.

New vertices are always appended at the end (ids ``n .. n+k-1``); old
ids are never renumbered, so a coloring of the base graph remains
index-aligned with the mutated graph — the property the incremental
recoloring strategy (:mod:`repro.coloring.incremental`) relies on.

Batches are content-addressed: :meth:`MutationBatch.digest` is a stable
SHA-256 over the canonical edge arrays, which the serving layer combines
with the base job's key into a per-region cache key (see
:func:`repro.serve.fingerprint.mutation_job_key`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .csr import CSRGraph

__all__ = ["MutationBatch", "apply_delta", "parse_mutation_spec", "random_churn"]


def _canonical_pairs(pairs, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Normalize an edge collection to sorted, unique ``(u, v)`` with u < v."""
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be (k, 2) pairs, got shape {arr.shape}")
    if arr.min() < 0:
        raise ValueError(f"{what} endpoints must be non-negative")
    u = np.minimum(arr[:, 0], arr[:, 1])
    v = np.maximum(arr[:, 0], arr[:, 1])
    if np.any(u == v):
        bad = int(u[np.nonzero(u == v)[0][0]])
        raise ValueError(f"{what} contains self-loop ({bad}, {bad})")
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    keep = np.ones(u.shape[0], dtype=bool)
    keep[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return np.ascontiguousarray(u[keep]), np.ascontiguousarray(v[keep])


@dataclass(frozen=True)
class MutationBatch:
    """One canonical batch of graph mutations.

    Build with :meth:`from_edges` (or :meth:`from_dict` for wire
    payloads): edge lists are canonicalized to ``u < v``, sorted, and
    deduplicated, and an edge appearing in both the add and remove sets
    is rejected — a batch must have one unambiguous meaning.
    """

    add_u: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    add_v: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    remove_u: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    remove_v: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    add_vertices: int = 0

    @classmethod
    def from_edges(cls, *, add=(), remove=(), add_vertices: int = 0) -> "MutationBatch":
        """Canonicalize ``(u, v)`` collections into a batch."""
        if add_vertices < 0:
            raise ValueError(f"add_vertices must be >= 0, got {add_vertices}")
        au, av = _canonical_pairs(add, "add_edges")
        ru, rv = _canonical_pairs(remove, "remove_edges")
        if au.size and ru.size:
            # canonical arrays are unique per set, so intersect1d is exact
            both = np.intersect1d(au * (2 ** 31) + av, ru * (2 ** 31) + rv,
                                  assume_unique=False)
            if both.size:
                u, v = int(both[0] // 2 ** 31), int(both[0] % 2 ** 31)
                raise ValueError(
                    f"edge ({u}, {v}) appears in both add and remove sets"
                )
        return cls(au, av, ru, rv, int(add_vertices))

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return (self.add_u.size == 0 and self.remove_u.size == 0
                and self.add_vertices == 0)

    @property
    def num_changes(self) -> int:
        """Edges added + edges removed + vertices appended."""
        return int(self.add_u.size + self.remove_u.size + self.add_vertices)

    def digest(self) -> str:
        """Stable hex SHA-256 of the canonical batch content.

        Process- and platform-independent (pure content hash), so equal
        batches hash equally on client and server — the delta half of the
        serving layer's per-region cache keys.
        """
        h = hashlib.sha256()
        h.update(b"repro.graph/delta/v1")
        h.update(np.int64(self.add_vertices).tobytes())
        for arr in (self.add_u, self.add_v, self.remove_u, self.remove_v):
            h.update(np.int64(arr.size).tobytes())
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON payload that :meth:`from_dict` restores exactly."""
        return {
            "add_edges": np.column_stack([self.add_u, self.add_v]).tolist(),
            "remove_edges": np.column_stack([self.remove_u, self.remove_v]).tolist(),
            "add_vertices": self.add_vertices,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MutationBatch":
        """Inverse of :meth:`to_dict`; validation errors name the field."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"delta must be a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"add_edges", "remove_edges", "add_vertices"})
        if unknown:
            raise ValueError(
                f"unknown delta field(s) {unknown}; expected "
                "add_edges/remove_edges/add_vertices"
            )
        count = data.get("add_vertices", 0)
        if isinstance(count, bool) or not isinstance(count, int):
            raise ValueError(
                f"add_vertices must be an int, got {type(count).__name__}"
            )
        try:
            return cls.from_edges(add=data.get("add_edges", ()),
                                  remove=data.get("remove_edges", ()),
                                  add_vertices=count)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid delta: {exc}") from None


def apply_delta(graph: CSRGraph, batch: MutationBatch) -> tuple[CSRGraph, np.ndarray]:
    """Apply *batch* to *graph*; return ``(mutated_graph, dirty_vertices)``.

    The result is a compacted CSR graph (not a lazy overlay): the edge
    set is rebuilt vectorized in one sort pass, so downstream kernels see
    the same cache-friendly layout as any freshly built graph.  *graph*
    itself is untouched — its arrays are read-only and its cached
    fingerprint remains the base identity.

    ``dirty_vertices`` is the sorted, unique set of vertices whose
    neighborhood changed: every endpoint of an added or removed edge plus
    every appended vertex; the ``incremental`` strategy
    (:func:`repro.coloring.incremental.incremental_recolor`) records its
    size.

    Raises ``ValueError`` when a removed edge does not exist, an added
    edge already exists, or an endpoint is out of range — a delta that
    does not describe a real change has no stable meaning to cache.
    """
    if not isinstance(batch, MutationBatch):
        raise TypeError(
            f"apply_delta needs a MutationBatch, got {type(batch).__name__}"
        )
    n = graph.num_vertices
    n_new = n + batch.add_vertices
    for name, (eu, ev), bound in (
        ("remove_edges", (batch.remove_u, batch.remove_v), n),
        ("add_edges", (batch.add_u, batch.add_v), n_new),
    ):
        if eu.size and max(int(eu.max()), int(ev.max())) >= bound:
            raise ValueError(
                f"{name} endpoint out of range: graph has {bound} vertices "
                "(added edges may reach appended vertices, removed edges may not)"
            )

    u0, v0 = graph.edge_arrays()
    keys0 = u0 * n_new + v0
    if batch.remove_u.size:
        rkeys = batch.remove_u * n_new + batch.remove_v
        present = np.isin(rkeys, keys0, assume_unique=True)
        if not present.all():
            i = int(np.nonzero(~present)[0][0])
            raise ValueError(
                f"cannot remove edge ({int(batch.remove_u[i])}, "
                f"{int(batch.remove_v[i])}): not in graph"
            )
        keep = ~np.isin(keys0, rkeys, assume_unique=True)
        u0, v0 = u0[keep], v0[keep]
    if batch.add_u.size:
        akeys = batch.add_u * n_new + batch.add_v
        dup = np.isin(akeys, keys0, assume_unique=True)
        if dup.any():
            i = int(np.nonzero(dup)[0][0])
            raise ValueError(
                f"cannot add edge ({int(batch.add_u[i])}, "
                f"{int(batch.add_v[i])}): already in graph"
            )
        u0 = np.concatenate([u0, batch.add_u])
        v0 = np.concatenate([v0, batch.add_v])

    from .build import from_edge_arrays

    mutated = from_edge_arrays(u0, v0, num_vertices=n_new)
    dirty = np.unique(np.concatenate([
        batch.add_u, batch.add_v, batch.remove_u, batch.remove_v,
        np.arange(n, n_new, dtype=np.int64),
    ]))
    return mutated, dirty


def random_churn(graph: CSRGraph, fraction: float, *, seed=None,
                 add_vertices: int = 0) -> MutationBatch:
    """A batch that removes and re-adds ``fraction`` of the edges randomly.

    Picks ``k = round(fraction * m)`` existing edges to remove and draws
    ``k`` uniformly random non-edges to add (rejection-sampled against
    both the graph and itself), modeling steady-state churn at constant
    density.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n, m = graph.num_vertices, graph.num_edges
    if n < 2:
        raise ValueError("random_churn needs at least 2 vertices")
    k = int(round(fraction * m))
    rng = np.random.default_rng(seed)
    u0, v0 = graph.edge_arrays()
    existing = set((u0 * n + v0).tolist())
    remove = np.empty((0, 2), dtype=np.int64)
    if k and m:
        pick = rng.choice(m, size=min(k, m), replace=False)
        remove = np.column_stack([u0[pick], v0[pick]])
    added: list[tuple[int, int]] = []
    chosen: set[int] = set()
    # dense graphs could starve rejection sampling; bound the attempts
    attempts = 0
    while len(added) < k and attempts < 100 * (k + 1):
        attempts += 1
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        key = lo * n + hi
        if key in existing or key in chosen:
            continue
        chosen.add(key)
        added.append((lo, hi))
    return MutationBatch.from_edges(add=added, remove=remove,
                                    add_vertices=add_vertices)


def parse_mutation_spec(spec: str, graph: CSRGraph, *, seed=None) -> MutationBatch:
    """Parse the CLI ``--mutate`` spec into a batch.

    Two forms, ``;``-separated clauses:

    - explicit: ``add=1-2,3-4;remove=5-6;vertices=2``
    - random churn: ``churn=0.01`` (fraction of edges removed and
      replaced by random non-edges; deterministic for a fixed *seed*)
    """
    clauses: dict[str, str] = {}
    for part in filter(None, (p.strip() for p in spec.split(";"))):
        if "=" not in part:
            raise ValueError(
                f"mutation clause {part!r} must look like key=value "
                "(add=U-V,..., remove=U-V,..., vertices=K, or churn=F)"
            )
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key in clauses:
            raise ValueError(f"duplicate mutation clause {key!r}")
        clauses[key] = value.strip()
    unknown = sorted(set(clauses) - {"add", "remove", "vertices", "churn"})
    if unknown:
        raise ValueError(
            f"unknown mutation clause(s) {unknown}; expected "
            "add/remove/vertices/churn"
        )
    if "churn" in clauses:
        if len(clauses) > 1:
            raise ValueError("churn=F cannot be combined with other clauses")
        try:
            fraction = float(clauses["churn"])
        except ValueError:
            raise ValueError(
                f"churn must be a number, got {clauses['churn']!r}"
            ) from None
        return random_churn(graph, fraction, seed=seed)

    def pairs(text: str, what: str) -> list[tuple[int, int]]:
        out = []
        for token in filter(None, (t.strip() for t in text.split(","))):
            a, sep, b = token.partition("-")
            if not sep:
                raise ValueError(f"{what} edge {token!r} must look like U-V")
            try:
                out.append((int(a), int(b)))
            except ValueError:
                raise ValueError(
                    f"{what} edge {token!r} has non-integer endpoints"
                ) from None
        return out

    try:
        vertices = int(clauses.get("vertices", "0"))
    except ValueError:
        raise ValueError(
            f"vertices must be an int, got {clauses['vertices']!r}"
        ) from None
    return MutationBatch.from_edges(
        add=pairs(clauses.get("add", ""), "add"),
        remove=pairs(clauses.get("remove", ""), "remove"),
        add_vertices=vertices,
    )
