"""Content-addressed result cache: an in-memory LRU under a byte budget.

The cache maps :func:`~repro.serve.fingerprint.job_key` digests to
:class:`~repro.run.RunResult` objects.  Hot entries live in memory under
a byte-size budget (the coloring arrays dominate, so accounting follows
``ndarray.nbytes``); when the budget overflows, least-recently-used
entries are evicted.  The cache is memory-only: the durable copy of a
result is the job store row of the job that computed it (see
:meth:`repro.serve.store.JobStore.result`), which the scheduler reads
on a memory miss and puts back here.  Admission asks first, with
:meth:`ResultCache.probe`, so a repeat in memory is answered without a
scheduler round.

The same LRU also memoizes built dataset graphs (:meth:`ResultCache.graph`)
under the same byte budget, so a repeated request skips the build.  A graph
entry is keyed by a tuple, which no hex digest can equal, is charged its
CSR array bytes plus the fixed overhead, and is dropped on eviction.
Concurrent requests for one unbuilt graph build it once.

Hit/miss/eviction counts live in one :class:`repro.obs.Counters` map:
:meth:`ResultCache.stats` reads it, and every add is mirrored into the
recorder passed at construction (resolved via
:func:`repro.obs.as_recorder`, so the process-installed recorder is
honored) as ``serve.cache.<stats key>``.

All operations are thread-safe — the batching scheduler's worker pool
publishes results concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable

from ..graph.csr import CSRGraph
from ..obs import Counters, as_recorder
from ..run.config import RunResult

__all__ = ["DEFAULT_MAX_BYTES", "ResultCache"]

#: Default in-memory budget: generous for colorings (64 MiB ≈ 8M vertices).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Fixed per-entry overhead charged on top of the array payload.
_ENTRY_OVERHEAD = 512


def _entry_bytes(result: RunResult) -> int:
    """Byte cost of one cached result (coloring arrays + fixed overhead)."""
    cost = _ENTRY_OVERHEAD + result.coloring.colors.nbytes
    if result.initial is not None:
        cost += result.initial.colors.nbytes
    return cost


class ResultCache:
    """In-memory LRU result cache keyed by content digest.

    Parameters
    ----------
    max_bytes:
        In-memory budget; entries are evicted LRU-first once the resident
        payload exceeds it.  An entry larger than the whole budget is
        admitted and immediately evicted, never pinned.
    recorder:
        Observability sink that mirrors each count as
        ``serve.cache.<stats key>`` (plus the ``serve.cache.graph_bytes``
        gauge); resolves like every other ``recorder=`` argument in the
        codebase.
    """

    def __init__(self, *, max_bytes: int = DEFAULT_MAX_BYTES, recorder=None):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._rec = as_recorder(recorder)
        self._lock = threading.RLock()
        # str keys hold RunResults, tuple keys memoized CSRGraphs
        self._entries: OrderedDict[str | tuple, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._graphs = 0
        self._graph_bytes = 0
        self._building: dict[tuple, Future] = {}
        self._counts = Counters("serve.cache", (
            "hits", "misses", "evictions",
            "graph_hits", "graph_builds", "graph_evictions"), self._rec)

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> RunResult | None:
        """Return the cached result for *key* (refreshing its recency), or
        ``None`` on a miss; ``gets == hits + misses`` always holds."""
        return self._lookup(key, count_miss=True)

    def probe(self, key: str) -> RunResult | None:
        """:meth:`get` for the admission check: a hit counts and refreshes
        recency exactly as ``get`` does, a miss counts nothing.  A job the
        probe misses is looked up again by its round, whose ``get`` is the
        one counted probe for it."""
        return self._lookup(key, count_miss=False)

    def put(self, key: str, result: RunResult) -> None:
        """Insert (or refresh) *key* → *result* and enforce the budget."""
        if not isinstance(result, RunResult):
            raise TypeError(
                f"ResultCache stores RunResult objects, got {type(result).__name__}"
            )
        with self._lock:
            self._admit(key, result, _entry_bytes(result))

    def graph(self, key: tuple, build: Callable[[], CSRGraph]) -> CSRGraph:
        """The graph memoized under *key*, built by ``build()`` on a miss.

        A built graph joins the LRU charged its CSR array bytes plus the
        fixed overhead; one larger than the whole budget is returned but
        not pinned.  Concurrent calls for one unbuilt key build it once:
        the others wait for that build and share its graph (counted as
        hits) or its exception.  A build that raises is not memoized.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._counts.add("graph_hits")
                return entry[0]
            flight = self._building.get(key)
            builder = flight is None
            if builder:
                flight = self._building[key] = Future()
        if not builder:
            graph = flight.result()
            self._counts.add("graph_hits")
            return graph
        try:
            graph = build()
        except BaseException as exc:
            with self._lock:
                del self._building[key]
            flight.set_exception(exc)
            raise
        cost = _ENTRY_OVERHEAD + graph.indptr.nbytes + graph.indices.nbytes
        with self._lock:
            del self._building[key]
            self._counts.add("graph_builds")
            if cost <= self.max_bytes:
                self._admit(key, graph, cost)
        flight.set_result(graph)
        return graph

    def drop_graphs(self) -> None:
        """Release every memoized graph; results stay."""
        with self._lock:
            for key in [k for k in self._entries if not isinstance(k, str)]:
                self._charge(key, -self._entries.pop(key)[1])

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        """Number of results resident in memory (memoized graphs excluded)."""
        with self._lock:
            return len(self._entries) - self._graphs

    def clear(self) -> None:
        """Drop every entry, memoized graphs included."""
        with self._lock:
            self._entries.clear()
            self._bytes = self._graphs = self._graph_bytes = 0
            self._rec.gauge("serve.cache.graph_bytes", 0)

    def stats(self) -> dict:
        """Counter snapshot: hits/misses/evictions plus occupancy.

        ``entries``/``evictions`` count results; the ``graph_*`` keys
        count the graph memo.  ``bytes`` is everything resident against
        ``max_bytes``, of which ``graph_bytes`` is the graphs' share.
        """
        with self._lock:
            return {
                **self._counts.snapshot(),
                "entries": len(self._entries) - self._graphs,
                "bytes": self._bytes,
                "graph_entries": self._graphs,
                "graph_bytes": self._graph_bytes,
                "max_bytes": self.max_bytes,
            }

    # ------------------------------------------------------------------
    # internals (callers hold the lock unless noted)
    # ------------------------------------------------------------------
    def _lookup(self, key: str, *, count_miss: bool) -> RunResult | None:
        """The result under *key*, refreshed and counted as a hit; takes
        the lock itself."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self._counts.add("misses")
                return None
            self._entries.move_to_end(key)
            self._counts.add("hits")
            return entry[0]

    def _charge(self, key: str | tuple, cost: int) -> None:
        """Add an entry's *cost* to the resident totals (negative: remove)."""
        self._bytes += cost
        if not isinstance(key, str):
            self._graphs += 1 if cost > 0 else -1
            self._graph_bytes += cost
            self._rec.gauge("serve.cache.graph_bytes", self._graph_bytes)

    def _admit(self, key: str | tuple, value, cost: int) -> None:
        if key in self._entries:
            self._charge(key, -self._entries.pop(key)[1])
        self._entries[key] = (value, cost)
        self._charge(key, cost)
        while self._bytes > self.max_bytes and self._entries:
            old_key, (_, old_cost) = self._entries.popitem(last=False)
            self._charge(old_key, -old_cost)
            self._counts.add("evictions" if isinstance(old_key, str)
                             else "graph_evictions")
