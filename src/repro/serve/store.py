"""Durable job state: the :class:`JobStore` interface and its two backends.

The serving pipeline (queue → scheduler → cache) keeps hot state in
memory; what survives a process death is whatever the *job store* wrote.
A store records **job lifecycle** and the one durable copy of each
result: one row per admitted job (monotonic id, content key, canonical
config JSON, tenant/priority, status, error, bookkeeping metadata), a
handle to the submitted graph so an interrupted job can be re-run after
a restart, and — on the row of the job that computed it — the coloring.
The ``done`` transition of that job writes the coloring in the same
statement that sets the status, so a row is ``done`` with its result or
it is not ``done``; :meth:`JobStore.result` finds it again by key.

Status moves through ``pending → running → done/failed`` and every
transition is atomic and checked: a compare-and-set against the legal
predecessor states, so two racing actors can never both move the same
job, and an illegal move (finishing a job twice, running a done job)
raises :class:`StoreError` naming the actual state.  The one backward
edge, ``running → pending``, is recovery: a restarted service re-admits
jobs that died mid-flight.

Two implementations:

- :class:`MemoryStore` — dict + counter, nothing on disk.  The default;
  a service built on it behaves bit-for-bit like the pre-store service
  (same ids from 1, same lifecycle), it just forgets on exit, results
  included.
- :class:`SqliteStore` — one directory holding ``jobs.sqlite`` (WAL
  mode, ``AUTOINCREMENT`` so ids survive restarts and are never
  reissued; results as raw little-endian ``int64`` color bytes in the
  row) and ``graphs/`` (submitted graphs as :mod:`repro.graph.store`
  directories, deduplicated by content fingerprint; an already-on-disk
  mmap store is referenced in place, never copied).
"""

from __future__ import annotations

import json
import sqlite3
import threading
from abc import ABC, abstractmethod
from itertools import count
from pathlib import Path

import numpy as np

from ..coloring.balance import balance_report
from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from ..obs import NULL
from ..run.config import RunConfig, RunResult

__all__ = ["JOB_STATES", "ChaosStore", "JobStore", "MemoryStore",
           "SqliteStore", "StoreError", "open_store"]

#: Lifecycle states a job moves through (strictly forward, except the
#: recovery edge running → pending).
JOB_STATES = ("pending", "running", "done", "failed")

#: Legal predecessor states per target state (the compare half of every
#: transition's compare-and-set).
_ALLOWED_FROM = {
    "running": ("pending",),
    "done": ("pending", "running"),  # pending → done: cache/dedup hits
    "failed": ("pending", "running"),
    "pending": ("running", "pending"),  # recovery requeue (idempotent)
}


class StoreError(RuntimeError):
    """An illegal store operation (bad transition, unknown job, no data)."""


def _encode(result: RunResult) -> tuple[bytes, dict]:
    """A result's row payload: the color bytes (the coloring, then the
    initial coloring if any) and the meta that reads them back."""
    colorings = [result.coloring]
    if result.initial is not None:
        colorings.append(result.initial)
    blob = b"".join(c.colors.astype("<i8", copy=False).tobytes()
                    for c in colorings)
    return blob, {"num_vertices": int(result.coloring.num_vertices),
                  "colorings": [[c.strategy, int(c.num_colors)]
                                for c in colorings]}


def _payload_bytes(meta: dict) -> int:
    """How long a row's color bytes must be, by its meta; raises on bad meta."""
    return 8 * int(meta["num_vertices"]) * len(meta["colorings"])


def _decode(config_json, meta_json, blob: bytes) -> RunResult | None:
    """The result a row's payload holds, or ``None`` for a poisoned row.

    The bytes come from disk: a length that does not match the row's
    vertex count, unparseable JSON or colors outside the palette make
    the row unreadable, never the reader crash.
    """
    try:
        meta = json.loads(meta_json)
        if len(blob) != _payload_bytes(meta):
            return None
        arrays = np.frombuffer(blob, dtype="<i8").reshape(
            len(meta["colorings"]), int(meta["num_vertices"]))
        coloring, *initial = [
            Coloring(colors.astype(np.int64), int(num_colors), str(strategy),
                     meta={"served_from": "store"})
            for colors, (strategy, num_colors) in zip(arrays, meta["colorings"])]
        config = RunConfig.from_dict(json.loads(config_json))
    except (KeyError, TypeError, ValueError):
        return None
    return RunResult(
        config=config, coloring=coloring, initial=initial[0] if initial else None,
        balance=balance_report(coloring), trace=None, machine_time=None,
        wall_s={"initial": 0.0, "strategy": 0.0, "verify": 0.0, "total": 0.0},
        recorder=NULL, resilience={})


class JobStore(ABC):
    """Narrow persistence interface the serving layers read/write through.

    A *record* is a plain dict with the keys ``id``, ``key``, ``status``,
    ``config`` (the :meth:`~repro.run.RunConfig.to_dict` mapping),
    ``graph_ref``, ``tenant``, ``priority``, ``source``, ``error``,
    ``meta`` (dict), ``submitted_at``, ``finished_at``.  Result payloads
    are not part of a record; :meth:`result` reads them by key.
    """

    #: Whether state written here survives process death.
    persistent: bool = False

    # -- lifecycle ------------------------------------------------------
    @abstractmethod
    def allocate(self, *, key: str, config: dict, graph_ref: str | None = None,
                 tenant: str | None = None, priority: str = "normal",
                 meta: dict | None = None,
                 submitted_at: float | None = None) -> int:
        """Insert one ``pending`` job; returns its monotonic id (never reused)."""

    @abstractmethod
    def transition(self, job_id: int, status: str, *, source: str | None = None,
                   error: str | None = None, meta: dict | None = None,
                   finished_at: float | None = None,
                   result: RunResult | None = None) -> None:
        """Atomically move *job_id* to *status*, or raise :class:`StoreError`.

        The move succeeds only from a legal predecessor state (see
        ``pending → running → done/failed`` plus the recovery edge
        ``running → pending``); *meta* is merged into the stored dict.
        *result*, passed on the ``done`` move of the job that computed
        it, is written in the same atomic step (a store that keeps no
        results ignores it).
        """

    # -- queries --------------------------------------------------------
    @abstractmethod
    def get(self, job_id: int) -> dict | None:
        """The record for *job_id*, or ``None`` when unknown."""

    @abstractmethod
    def by_status(self, *statuses: str) -> list[dict]:
        """All records currently in any of *statuses*, in id order."""

    @abstractmethod
    def counts(self) -> dict:
        """Job depth by status: ``{status: count}`` for every known state."""

    def result(self, key: str) -> RunResult | None:
        """The result stored under content *key*, or ``None``.

        ``None`` also means "results are not kept" (the memory store).
        """
        return None

    # -- graph payloads -------------------------------------------------
    def persist_graph(self, graph: CSRGraph) -> str | None:
        """Make *graph* recoverable; returns a ref for :meth:`load_graph`.

        ``None`` means "not persisted" (the memory store) — such a job
        cannot be re-run after a restart, only served from its result.
        """
        return None

    def load_graph(self, ref: str) -> CSRGraph:
        """Reopen a graph persisted by :meth:`persist_graph`."""
        raise StoreError(f"{type(self).__name__} does not persist graphs "
                         f"(ref {ref!r})")

    # -- misc -----------------------------------------------------------
    def describe(self) -> dict:
        """JSON-ready identity + depth summary (the ``/stats`` block)."""
        return {"kind": type(self).__name__, "persistent": self.persistent,
                "by_status": self.counts()}

    def close(self) -> None:
        """Release any underlying handles (idempotent)."""


def _check_transition(job_id: int, current: str | None, status: str) -> None:
    if status not in _ALLOWED_FROM:
        raise StoreError(f"unknown target status {status!r}; "
                         f"choose from {list(JOB_STATES)}")
    if current is None:
        raise StoreError(f"unknown job id {job_id}")
    if current == status == "pending":
        return  # idempotent requeue of a never-dispatched job
    if current not in _ALLOWED_FROM[status]:
        raise StoreError(
            f"job {job_id} is {current!r}; cannot transition to {status!r} "
            f"(legal from {list(_ALLOWED_FROM[status])})")


class MemoryStore(JobStore):
    """In-process store: the pre-durability behavior, made explicit.

    Ids count from 1 exactly like the old in-queue counter, transitions
    are enforced the same way as the sqlite backend (so tests exercise
    identical semantics), and nothing touches disk.
    """

    persistent = False

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._ids = count(1)
        self._rows: dict[int, dict] = {}

    def allocate(self, *, key, config, graph_ref=None, tenant=None,
                 priority="normal", meta=None, submitted_at=None) -> int:
        with self._lock:
            job_id = next(self._ids)
            self._rows[job_id] = {
                "id": job_id, "key": key, "status": "pending",
                "config": dict(config), "graph_ref": graph_ref,
                "tenant": tenant, "priority": priority, "source": None,
                "error": None, "meta": dict(meta or {}),
                "submitted_at": submitted_at, "finished_at": None,
            }
            return job_id

    def transition(self, job_id, status, *, source=None, error=None,
                   meta=None, finished_at=None, result=None) -> None:
        with self._lock:
            row = self._rows.get(job_id)
            _check_transition(job_id, row["status"] if row else None, status)
            row["status"] = status
            if source is not None:
                row["source"] = source
            if error is not None:
                row["error"] = error
            if meta:
                row["meta"].update(meta)
            if finished_at is not None:
                row["finished_at"] = finished_at

    def get(self, job_id):
        with self._lock:
            row = self._rows.get(job_id)
            return dict(row, meta=dict(row["meta"])) if row else None

    def by_status(self, *statuses):
        with self._lock:
            return [dict(row, meta=dict(row["meta"]))
                    for row in sorted(self._rows.values(), key=lambda r: r["id"])
                    if row["status"] in statuses]

    def counts(self):
        with self._lock:
            out = {state: 0 for state in JOB_STATES}
            for row in self._rows.values():
                out[row["status"]] += 1
            return out


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    key TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    config TEXT NOT NULL,
    graph_ref TEXT,
    tenant TEXT,
    priority TEXT NOT NULL DEFAULT 'normal',
    source TEXT,
    error TEXT,
    meta TEXT NOT NULL DEFAULT '{}',
    submitted_at REAL,
    finished_at REAL,
    result BLOB
);
CREATE INDEX IF NOT EXISTS jobs_by_status ON jobs (status);
CREATE INDEX IF NOT EXISTS jobs_by_key ON jobs (key);
"""

_COLUMNS = ("id", "key", "status", "config", "graph_ref", "tenant",
            "priority", "source", "error", "meta", "submitted_at",
            "finished_at")

#: Every record column, plus the payload length that ``_record`` checks.
_SELECT = (f"SELECT {', '.join(_COLUMNS)}, length(result) AS result_bytes "
           "FROM jobs")


class SqliteStore(JobStore):
    """sqlite-backed store rooted at one directory.

    Layout: ``<root>/jobs.sqlite`` (WAL journal — readers never block the
    writer, and a mid-transaction crash rolls back to a consistent
    state) and ``<root>/graphs/<fingerprint>/`` (submitted graphs as
    :mod:`repro.graph.store` directories, content-deduplicated).  A
    computed job's ``done`` row carries its colors in the ``result``
    column, found by key through an index.  A store directory made
    before that column existed opens too: the column is added, and its
    old rows serve their summary without a payload.  ``AUTOINCREMENT``
    makes job ids monotonic across restarts *and* deletes — an id
    observed by any client is never reissued, so chained ``/mutate``
    base ids can never collide with a later job.

    The connection is shared across threads behind one lock (the HTTP
    front submits from handler threads while the scheduler transitions
    from workers); every write commits immediately, so durability is
    per-operation.
    """

    persistent = True

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.graphs_dir = self.root / "graphs"
        #: fingerprint -> ref of every graph this instance has persisted
        self._persisted: dict[str, str] = {}
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.root / "jobs.sqlite",
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            columns = {row["name"] for row in
                       self._conn.execute("PRAGMA table_info(jobs)")}
            if "result" not in columns:  # made before results lived in rows
                self._conn.execute("ALTER TABLE jobs ADD COLUMN result BLOB")
            self._conn.commit()

    # -- lifecycle ------------------------------------------------------
    def allocate(self, *, key, config, graph_ref=None, tenant=None,
                 priority="normal", meta=None, submitted_at=None) -> int:
        payload = json.dumps(config, sort_keys=True)
        meta_json = json.dumps(meta or {}, sort_keys=True)
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO jobs (key, config, graph_ref, tenant, priority,"
                " meta, submitted_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (key, payload, graph_ref, tenant, priority, meta_json,
                 submitted_at))
            self._conn.commit()
            return int(cur.lastrowid)

    def transition(self, job_id, status, *, source=None, error=None,
                   meta=None, finished_at=None, result=None) -> None:
        if result is not None:
            blob, payload_meta = _encode(result)
            meta = {**(meta or {}), **payload_meta}
        with self._lock:
            row = self._conn.execute(
                "SELECT status, meta FROM jobs WHERE id = ?",
                (int(job_id),)).fetchone()
            _check_transition(job_id, row["status"] if row else None, status)
            sets = ["status = ?"]
            args: list = [status]
            if source is not None:
                sets.append("source = ?")
                args.append(source)
            if error is not None:
                sets.append("error = ?")
                args.append(error)
            if meta:
                try:
                    merged = json.loads(row["meta"])
                except (json.JSONDecodeError, TypeError):
                    merged = {}  # poisoned meta: start fresh, keep moving
                merged.update(meta)
                sets.append("meta = ?")
                args.append(json.dumps(merged, sort_keys=True))
            if finished_at is not None:
                sets.append("finished_at = ?")
                args.append(finished_at)
            if result is not None:
                sets.append("result = ?")
                args.append(blob)
            # compare-and-set: the WHERE re-checks the predecessor state
            # inside the write, so a racing transition loses loudly
            allowed = _ALLOWED_FROM[status]
            marks = ",".join("?" * len(allowed))
            cur = self._conn.execute(
                f"UPDATE jobs SET {', '.join(sets)} WHERE id = ? "
                f"AND status IN ({marks})",
                (*args, int(job_id), *allowed))
            self._conn.commit()
            if cur.rowcount != 1 and not (status == "pending"
                                          and row["status"] == "pending"):
                raise StoreError(  # pragma: no cover - needs an exact race
                    f"job {job_id} moved concurrently; transition to "
                    f"{status!r} lost")

    # -- queries --------------------------------------------------------
    @staticmethod
    def _record(row) -> dict:
        rec = {name: row[name] for name in _COLUMNS}
        # A poisoned row (bit rot, external tampering, partial write from
        # a pre-WAL copy) must not crash readers — recovery in particular
        # walks every pending/running row.  Unparseable JSON degrades to
        # config=None + corrupt=True so callers can quarantine the job,
        # and so does a payload whose length the meta does not explain.
        try:
            rec["config"] = json.loads(rec["config"])
        except (json.JSONDecodeError, TypeError):
            rec["config"] = None
            rec["corrupt"] = True
        try:
            rec["meta"] = json.loads(rec["meta"])
        except (json.JSONDecodeError, TypeError):
            rec["meta"] = {}
            rec["corrupt"] = True
        if row["result_bytes"] is not None:
            try:
                intact = row["result_bytes"] == _payload_bytes(rec["meta"])
            except (KeyError, TypeError, ValueError):
                intact = False
            if not intact:
                rec["corrupt"] = True
        return rec

    def get(self, job_id):
        with self._lock:
            row = self._conn.execute(
                f"{_SELECT} WHERE id = ?", (int(job_id),)).fetchone()
        return self._record(row) if row else None

    def by_status(self, *statuses):
        marks = ",".join("?" * len(statuses))
        with self._lock:
            rows = self._conn.execute(
                f"{_SELECT} WHERE status IN ({marks}) ORDER BY id",
                statuses).fetchall()
        return [self._record(row) for row in rows]

    def result(self, key):
        """The first ``done`` row of *key* whose payload reads back whole."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT config, meta, result FROM jobs WHERE key = ? AND "
                "status = 'done' AND result IS NOT NULL ORDER BY id",
                (key,)).fetchall()
        for row in rows:
            found = _decode(row["config"], row["meta"], row["result"])
            if found is not None:
                return found
        return None

    def counts(self):
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        out = {state: 0 for state in JOB_STATES}
        for row in rows:
            out[row["status"]] = int(row["n"])
        return out

    # -- graph payloads -------------------------------------------------
    def persist_graph(self, graph: CSRGraph) -> str:
        """Persist *graph* under ``graphs/<fingerprint>``; dedup by content.

        A graph already memory-mapped from a :mod:`repro.graph.store`
        directory is referenced in place — re-running the job reopens
        the same store, no copy ever happens.  A fingerprint this
        instance has persisted before returns its ref without touching
        the disk: graph directories are content-addressed and never
        deleted, so the first check still holds.
        """
        from ..graph.store import is_graph_store, save_graph

        mmap_paths = getattr(graph, "mmap_paths", None)
        if mmap_paths:
            origin = Path(mmap_paths[0]).parent
            if is_graph_store(origin):
                return str(origin)
        fingerprint = graph.fingerprint()
        ref = self._persisted.get(fingerprint)
        if ref is None:
            dest = self.graphs_dir / fingerprint
            if not is_graph_store(dest):
                save_graph(graph, dest)
            ref = self._persisted[fingerprint] = str(dest)
        return ref

    def load_graph(self, ref: str) -> CSRGraph:
        from ..graph.store import load_graph

        try:
            return load_graph(ref, mmap=True)
        except ValueError as exc:
            raise StoreError(f"graph for ref {ref!r} is unrecoverable: "
                             f"{exc}") from None

    # -- misc -----------------------------------------------------------
    def describe(self):
        info = super().describe()
        info["path"] = str(self.root)
        return info

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class ChaosStore(JobStore):
    """Fault-injecting delegate around any :class:`JobStore`.

    Consults a :class:`~repro.resilience.FaultPlan` on every
    :meth:`transition`: when the plan's ``storeerr`` spec covers the
    current 0-based transition index, the call raises
    :class:`StoreError` *instead of* touching the inner store —
    modelling a wedged disk or a locked database at exactly that write.
    Everything else delegates untouched, so the wrapped store's
    semantics (ids, CAS transitions, recovery rows) are preserved and
    the chaos soak can assert the serving layers survive best-effort
    durability.
    """

    def __init__(self, inner: JobStore, plan) -> None:
        self.inner = inner
        self._plan = plan
        self._transitions = 0
        self._injected = 0
        self._lock = threading.Lock()

    @property
    def persistent(self) -> bool:  # type: ignore[override]
        return self.inner.persistent

    @property
    def injected(self) -> int:
        """How many transitions were failed by the plan so far."""
        with self._lock:
            return self._injected

    def allocate(self, **kwargs) -> int:
        return self.inner.allocate(**kwargs)

    def transition(self, job_id, status, **kwargs) -> None:
        with self._lock:
            idx, self._transitions = self._transitions, self._transitions + 1
            spec = self._plan.for_op("storeerr", idx)
            if spec is not None:
                self._injected += 1
        if spec is not None:
            raise StoreError(
                f"injected store failure (chaos plan, transition #{idx})")
        self.inner.transition(job_id, status, **kwargs)

    def get(self, job_id):
        return self.inner.get(job_id)

    def by_status(self, *statuses):
        return self.inner.by_status(*statuses)

    def result(self, key):
        return self.inner.result(key)

    def counts(self):
        return self.inner.counts()

    def persist_graph(self, graph):
        return self.inner.persist_graph(graph)

    def load_graph(self, ref):
        return self.inner.load_graph(ref)

    def describe(self):
        info = self.inner.describe()
        info["chaos"] = {"transitions": self._transitions,
                         "injected": self._injected}
        return info

    def close(self) -> None:
        self.inner.close()


def open_store(store) -> JobStore:
    """Coerce a ``store=`` argument: instance passes through, path opens
    a :class:`SqliteStore` rooted there, ``None`` means in-memory."""
    if store is None:
        return MemoryStore()
    if isinstance(store, JobStore):
        return store
    if isinstance(store, (str, Path)):
        return SqliteStore(store)
    raise TypeError(f"store must be a JobStore, a path, or None, "
                    f"got {type(store).__name__}")
