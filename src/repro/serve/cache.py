"""Content-addressed result cache: in-memory LRU with on-disk spill.

The cache maps :func:`~repro.serve.fingerprint.job_key` digests to
:class:`~repro.run.RunResult` objects.  Hot entries live in memory under
a byte-size budget (the coloring arrays dominate, so accounting follows
``ndarray.nbytes``); when the budget overflows, least-recently-used
entries are evicted — and, when a ``spill_dir`` is configured, their
colorings are written as ``<key>.npz`` first, so a later ``get`` can
restore the result from disk instead of recomputing.

A disk-restored result carries the bit-identical coloring (and initial
coloring) plus a recomputed balance report; the transient run artifacts
(execution trace, machine-time estimate, wall timings) are not persisted
— ``meta["served_from"] == "disk"`` marks such results.

The same LRU also memoizes built dataset graphs (:meth:`ResultCache.graph`)
under the same byte budget, so a repeated request skips the build.  A graph
entry is keyed by a tuple, which no hex digest can equal, is charged its
CSR array bytes plus the fixed overhead, and is dropped on eviction — never
spilled or persisted.  Concurrent requests for one unbuilt graph build it
once.

Hit/miss/eviction/spill counters are exported through :mod:`repro.obs`:
every operation counts into the recorder passed at construction (resolved
via :func:`repro.obs.as_recorder`, so the process-installed recorder is
honored) under ``serve.cache.*`` names, and :meth:`ResultCache.stats`
returns the same numbers as a plain dict.

Spill I/O is treated as best-effort: a write failure (ENOSPC, permission)
is counted under ``spill_errors`` and — after two consecutive failures —
degrades the cache to memory-only mode rather than letting the ``OSError``
propagate out of the scheduler thread.  A spill file that fails to *load*
(truncated write, bit rot, schema drift) is quarantined by renaming it to
``<key>.npz.corrupt`` and counted under ``spill_corrupt``; the ``get``
simply misses and the job recomputes.  The chaos plan kinds ``spill``
(injected ENOSPC) and ``spillrot`` (torn write) exercise both paths
deterministically.

All operations are thread-safe — the batching scheduler's worker pool
publishes results concurrently.
"""

from __future__ import annotations

import errno
import json
import threading
from collections import OrderedDict
from concurrent.futures import Future
from pathlib import Path
from typing import Callable

import numpy as np

from ..coloring.balance import balance_report
from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from ..obs import NULL, as_recorder
from ..resilience import NO_FAULTS
from ..run.config import RunConfig, RunResult

__all__ = ["DEFAULT_MAX_BYTES", "ResultCache"]

#: Consecutive spill-write failures before the cache stops trying disk.
_SPILL_DEGRADE_AFTER = 2

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
    """LRU result cache keyed by content digest, with optional disk spill.

    Parameters
    ----------
    max_bytes:
        In-memory budget; entries are evicted LRU-first once the resident
        payload exceeds it.  An entry larger than the whole budget is
        admitted and immediately spilled/evicted, never pinned.
    spill_dir:
        When set, evicted colorings are written as ``<key>.npz`` under
        this directory (created on demand) and restored on later misses.
    write_through:
        When true (requires *spill_dir*), every :meth:`put` spills to
        disk immediately instead of waiting for eviction.  This is what
        makes a durable service's results crash-safe: once a result is
        published, a restarted service finds it on disk and never
        re-executes the job — the store row only ever points at a spill
        file that exists.
    recorder:
        Observability sink for the ``serve.cache.*`` counters; resolves
        like every other ``recorder=`` argument in the codebase.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` whose ``spill`` /
        ``spillrot`` specs inject write failures at chosen spill
        occurrences (chaos testing); defaults to no faults.
    """

    def __init__(self, *, max_bytes: int = DEFAULT_MAX_BYTES,
                 spill_dir: str | Path | None = None,
                 write_through: bool = False, recorder=None,
                 fault_plan=None):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if write_through and spill_dir is None:
            raise ValueError("write_through=True needs a spill_dir")
        self.max_bytes = int(max_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.write_through = bool(write_through)
        self._rec = as_recorder(recorder)
        self._plan = fault_plan if fault_plan is not None else NO_FAULTS
        self._lock = threading.RLock()
        # str keys hold RunResults, tuple keys memoized CSRGraphs
        self._entries: OrderedDict[str | tuple, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._graphs = 0
        self._graph_bytes = 0
        self._graph_hits = 0
        self._graph_builds = 0
        self._graph_evictions = 0
        self._building: dict[tuple, Future] = {}
        self._hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._evictions = 0
        self._spills = 0
        self._spill_attempts = 0
        self._spill_errors = 0
        self._spill_error_streak = 0
        self._spill_corrupt = 0
        self._spill_degraded = False

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> RunResult | None:
        """Return the cached result for *key*, or ``None`` on a miss.

        Memory first (refreshing recency), then the spill directory; a
        disk hit is re-admitted to memory so repeated access stays fast.

        Counter semantics: ``hits`` counts results served from memory,
        ``misses`` counts every memory miss — including the ones rescued
        from disk, of which ``disk_hits`` is the subset — so
        ``gets == hits + misses`` always holds.

        The disk read happens outside the lock (it is I/O), so two
        threads can both miss in memory and both restore the same file;
        the state is re-checked under the lock before admitting, and the
        loser adopts the winner's entry instead of double-admitting —
        exactly one restore per key ever reaches ``_admit``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self._rec.count("serve.cache.hits")
                return entry[0]
        restored = self._load_spilled(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                # raced: another thread admitted while we were reading disk
                self._entries.move_to_end(key)
                self._hits += 1
                self._rec.count("serve.cache.hits")
                return entry[0]
            self._misses += 1
            self._rec.count("serve.cache.misses")
            if restored is not None:
                self._disk_hits += 1
                self._rec.count("serve.cache.disk_hits")
                self._admit(key, restored, _entry_bytes(restored))
                return restored
            return None

    def put(self, key: str, result: RunResult) -> None:
        """Insert (or refresh) *key* → *result* and enforce the budget."""
        if not isinstance(result, RunResult):
            raise TypeError(
                f"ResultCache stores RunResult objects, got {type(result).__name__}"
            )
        with self._lock:
            self._admit(key, result, _entry_bytes(result))
            if self.write_through:
                path = self._spill_path(key)
                if path is not None and not path.exists():
                    self._spill(key, result)

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
                self._graph_hit_locked()
                return entry[0]
            flight = self._building.get(key)
            builder = flight is None
            if builder:
                flight = self._building[key] = Future()
        if not builder:
            graph = flight.result()
            with self._lock:
                self._graph_hit_locked()
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
            self._graph_builds += 1
            self._rec.count("serve.cache.graph_builds")
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
            if key in self._entries:
                return True
        path = self._spill_path(key)
        return path is not None and path.exists()

    def __len__(self) -> int:
        """Number of results resident in memory (memoized graphs excluded)."""
        with self._lock:
            return len(self._entries) - self._graphs

    def clear(self, *, purge_spill: bool = False) -> None:
        """Drop every in-memory entry, memoized graphs included.

        By default spilled files survive — persistence across cache
        instances is a feature (a restarted service warm-starts from its
        spill directory).  Pass ``purge_spill=True`` when clear must mean
        *gone*: the spill files are deleted too, so no "cleared" result
        can resurrect through a later ``get``/``__contains__``.
        """
        with self._lock:
            self._entries.clear()
            self._bytes = self._graphs = self._graph_bytes = 0
            self._rec.gauge("serve.cache.graph_bytes", 0)
            if purge_spill:
                self._purge_spill_locked()

    def _purge_spill_locked(self) -> None:
        """Delete every spill artifact (``.npz`` plus stray ``.tmp``)."""
        if self.spill_dir is None or not self.spill_dir.is_dir():
            return
        for path in (list(self.spill_dir.glob("*.npz"))
                     + list(self.spill_dir.glob("*.npz.tmp"))
                     + list(self.spill_dir.glob("*.npz.corrupt"))):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent external delete
                pass

    @property
    def degraded(self) -> bool:
        """True once repeated spill failures forced memory-only mode."""
        with self._lock:
            return self._spill_degraded

    def stats(self) -> dict:
        """Counter snapshot: hits/misses/evictions/spills plus occupancy.

        ``entries``/``evictions`` count results; the ``graph_*`` keys
        count the graph memo.  ``bytes`` is everything resident against
        ``max_bytes``, of which ``graph_bytes`` is the graphs' share.
        """
        with self._lock:
            return {
                "hits": self._hits,
                "disk_hits": self._disk_hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "spills": self._spills,
                "spill_errors": self._spill_errors,
                "spill_corrupt": self._spill_corrupt,
                "degraded": self._spill_degraded,
                "entries": len(self._entries) - self._graphs,
                "bytes": self._bytes,
                "graph_hits": self._graph_hits,
                "graph_builds": self._graph_builds,
                "graph_evictions": self._graph_evictions,
                "graph_entries": self._graphs,
                "graph_bytes": self._graph_bytes,
                "max_bytes": self.max_bytes,
                "write_through": self.write_through,
            }

    # ------------------------------------------------------------------
    # internals (callers hold the lock unless noted)
    # ------------------------------------------------------------------
    def _graph_hit_locked(self) -> None:
        self._graph_hits += 1
        self._rec.count("serve.cache.graph_hits")

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
            old_key, (old_value, old_cost) = self._entries.popitem(last=False)
            self._charge(old_key, -old_cost)
            if isinstance(old_key, str):
                self._evictions += 1
                self._rec.count("serve.cache.evictions")
                self._spill(old_key, old_value)
            else:  # a memoized graph: dropped, never spilled
                self._graph_evictions += 1
                self._rec.count("serve.cache.graph_evictions")

    def _spill_path(self, key: str) -> Path | None:
        if self.spill_dir is None:
            return None
        return self.spill_dir / f"{key}.npz"

    def _spill(self, key: str, result: RunResult) -> None:
        path = self._spill_path(key)
        if path is None or self._spill_degraded:
            return
        try:
            config_json = json.dumps(result.config.to_dict(), sort_keys=True)
        except ValueError:
            return  # unserializable config: evict without persisting
        idx, self._spill_attempts = self._spill_attempts, self._spill_attempts + 1
        try:
            self._write_spill_locked(key, path, result, config_json, idx)
        except OSError as exc:
            # full disk / revoked permissions must not escape the
            # scheduler thread: count, and after repeated failures stop
            # touching the disk entirely (memory-only mode)
            self._spill_errors += 1
            self._spill_error_streak += 1
            self._rec.count("serve.cache.spill_errors")
            self._rec.event("serve_cache_spill_error",
                            key=key, error=str(exc))
            if self._spill_error_streak >= _SPILL_DEGRADE_AFTER:
                self._spill_degraded = True
                self._rec.event("serve_cache_degraded",
                                after_errors=self._spill_errors)
            return
        self._spill_error_streak = 0
        self._spills += 1
        self._rec.count("serve.cache.spills")

    def _write_spill_locked(self, key: str, path: Path, result: RunResult,
                            config_json: str, idx: int) -> None:
        """One spill write attempt (occurrence *idx*); raises OSError."""
        if self._plan.for_op("spill", idx) is not None:
            raise OSError(errno.ENOSPC, "injected ENOSPC (chaos plan)")
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "colors": result.coloring.colors,
            "num_colors": np.int64(result.coloring.num_colors),
            "strategy": np.str_(result.coloring.strategy),
            "config": np.str_(config_json),
        }
        if result.initial is not None:
            payload["initial_colors"] = result.initial.colors
            payload["initial_num_colors"] = np.int64(result.initial.num_colors)
            payload["initial_strategy"] = np.str_(result.initial.strategy)
        tmp = path.with_suffix(".npz.tmp")
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
        if self._plan.for_op("spillrot", idx) is not None:
            # torn write: publish a truncated file so the read path's
            # quarantine sees exactly what a mid-write crash leaves
            data = tmp.read_bytes()
            tmp.write_bytes(data[: max(1, len(data) // 2)])
        tmp.replace(path)  # atomic publish: readers never see partial files

    def _load_spilled(self, key: str) -> RunResult | None:
        path = self._spill_path(key)
        if path is None or not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as npz:
                config = RunConfig.from_dict(json.loads(str(npz["config"])))
                coloring = Coloring(
                    npz["colors"], int(npz["num_colors"]), str(npz["strategy"]),
                    meta={"served_from": "disk"},
                )
                initial = None
                if "initial_colors" in npz:
                    initial = Coloring(
                        npz["initial_colors"], int(npz["initial_num_colors"]),
                        str(npz["initial_strategy"]),
                        meta={"served_from": "disk"},
                    )
        except Exception as exc:  # noqa: BLE001 - any unreadable file is rot
            # truncated/corrupt spill: quarantine (rename, keep for
            # forensics) so the next get misses cleanly and recomputes
            # instead of crashing the scheduler thread on every lookup
            with self._lock:
                self._spill_corrupt += 1
            self._rec.count("serve.cache.spill_corrupt")
            self._rec.event("serve_cache_spill_corrupt",
                            key=key, error=str(exc))
            try:
                path.rename(path.with_name(path.name + ".corrupt"))
            except OSError:  # pragma: no cover - raced external delete
                pass
            return None
        return RunResult(
            config=config, coloring=coloring, initial=initial,
            balance=balance_report(coloring), trace=None, machine_time=None,
            wall_s={"initial": 0.0, "strategy": 0.0, "verify": 0.0, "total": 0.0},
            recorder=NULL, resilience={},
        )
