"""Content-addressed identity for coloring jobs.

A job is fully determined by its input graph and its
:class:`~repro.run.RunConfig`: ``execute`` is deterministic for a fixed
seed, so two jobs with equal content must produce bit-identical
colorings.  This module turns that observation into stable keys:

- :func:`graph_fingerprint` — the graph half, delegating to the cached
  :meth:`repro.graph.CSRGraph.fingerprint` full-content SHA-256 digest
  (complete ``indptr`` and ``indices``, never a prefix);
- :func:`config_fingerprint` — the config half, a SHA-256 of the
  canonical JSON serialization of :meth:`RunConfig.to_dict` (sorted keys,
  fixed separators), so dict ordering and whitespace never matter.  The
  kernel tier (``backend``) is hashed as ``null`` whatever it names: both
  tiers compute the same coloring, so configs that differ only in it are
  one job.  A ``backend="reference"`` submit may therefore be answered
  from a cached result the C tier computed, whose ``meta["backend"]``
  says ``vectorized``; the colors are the same.  Keys of configs without
  a backend are unchanged by this rule, and an entry stored under an
  explicit backend re-keys and misses, never returns a wrong result;
- :func:`job_key` — the combined cache key used by the result cache and
  the in-flight deduplication of the scheduler.

All digests are pure content hashes — independent of process, platform,
object identity, and ``PYTHONHASHSEED`` — so a key computed by a client
in one process addresses the same cache entry in the server, and a
result a durable store row holds under its key is found by the next
service run.
"""

from __future__ import annotations

import hashlib
import json

from ..graph.csr import CSRGraph
from ..run.config import RunConfig

__all__ = ["config_fingerprint", "graph_fingerprint", "job_key",
           "mutation_job_key"]


def graph_fingerprint(graph: CSRGraph) -> str:
    """Hex SHA-256 of the graph's full CSR content (cached on the graph)."""
    if not isinstance(graph, CSRGraph):
        raise TypeError(
            f"graph_fingerprint needs a CSRGraph, got {type(graph).__name__}"
        )
    return graph.fingerprint()


def config_fingerprint(config: RunConfig | dict) -> str:
    """Hex SHA-256 of the config's canonical JSON serialization.

    *config* is a :class:`RunConfig` or the dict its
    :meth:`~RunConfig.to_dict` returned (a caller that already
    serialized it passes the dict; the digest is the same).  Raises
    ``ValueError`` (naming the field) for configs that cannot be
    serialized — a custom machine instance, a non-JSON seed — because an
    unserializable config has no stable identity to cache under.
    """
    if isinstance(config, RunConfig):
        config = config.to_dict()
    elif not isinstance(config, dict):
        raise TypeError(
            f"config_fingerprint needs a RunConfig, got {type(config).__name__}"
        )
    # the kernel tier never changes a result, so it is not part of a job
    canonical = json.dumps({**config, "backend": None}, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def job_key(graph: CSRGraph, config: RunConfig | dict) -> str:
    """The content-addressed cache key for one (graph, config) job;
    *config* as for :func:`config_fingerprint`."""
    h = hashlib.sha256()
    h.update(b"repro.serve/job/v1:")
    h.update(graph_fingerprint(graph).encode("ascii"))
    h.update(b":")
    h.update(config_fingerprint(config).encode("ascii"))
    return h.hexdigest()


def mutation_job_key(base_key: str, delta_digest: str,
                     config: RunConfig | dict) -> str:
    """Cache key for an incremental re-color of a mutated graph.

    The identity is ``(base job, delta, config)`` rather than the mutated
    graph's own fingerprint: the base job's key already pins both the base
    graph *and* the base coloring the incremental strategy carries
    forward, and the delta digest (:meth:`repro.graph.delta.MutationBatch
    .digest`) pins the churn region.  Two mutations of the same base
    therefore share cache entries exactly when their deltas match —
    invalidation is per-region, not per-graph — while the same delta on a
    *different* base (different graph or different base coloring) keys
    separately, as it must.
    """
    h = hashlib.sha256()
    h.update(b"repro.serve/mutate/v1:")
    h.update(base_key.encode("ascii"))
    h.update(b":")
    h.update(delta_digest.encode("ascii"))
    h.update(b":")
    h.update(config_fingerprint(config).encode("ascii"))
    return h.hexdigest()
