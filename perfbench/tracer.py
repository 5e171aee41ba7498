"""Span tracer that times calls into the repro layers from outside.

Tracing is installed by patching the public functions and methods each
layer exposes (module attributes and class attributes), so nothing under
``src/`` changes.  Every patched call records one span: name, start,
end, parent span and job id.  Spans live in memory and are
reduced to per-layer numbers when the traced run ends.

A layer's *self time* is its span's duration minus the part covered by
its child spans.  Child spans on the same thread nest strictly inside
their parent, so that part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: object
    child_s: float = 0.0


class Tracer:
    """Records spans around patched calls; ``install`` / ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: serve queue wait per dispatched job: admitted -> backend start
        self.queue_wait_ms: list[float] = []
        #: serve job key -> job id, filled by the load generator so spans
        #: raised below a cache probe can name the job they belong to
        self.key_to_job: dict[str, int] = {}

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_job(self, job) -> None:
        """Tag spans opened on this thread (outside any span) with *job*."""
        self._local.job = job

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str, fn, *args, job=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None:
            job = (self.spans[parent].job if parent is not None
                   else getattr(self._local, "job", None))
        record = Span(name, 0.0, 0.0, parent, job)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record.end = perf_counter()
            stack.pop()
            if parent is not None:
                self.spans[parent].child_s += record.end - record.start

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _wrap(self, name: str, orig, job_of=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            job = job_of(*args, **kwargs) if job_of is not None else None
            out = tracer.span(name, orig, *args, job=job, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return functools.wraps(orig)(traced)

    def patch_function(self, modules: list[str], attr: str, name: str, **hooks):
        """Wrap the function *attr* wherever one of *modules* binds it."""
        orig = getattr(importlib.import_module(modules[0]), attr)
        wrapped = self._wrap(name, orig, **hooks)
        for mod_name in modules:
            module = importlib.import_module(mod_name)
            if getattr(module, attr, None) is orig:
                self._patches.append((module, attr, orig))
                setattr(module, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, **hooks):
        """Wrap a plain method or classmethod defined on *cls*."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, **hooks))
        else:
            wrapped = self._wrap(name, raw, **hooks)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def install(self) -> "Tracer":
        """Patch every traced layer boundary (see :func:`_layer_points`)."""
        _layer_points(self)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s.end - s.start) - s.child_s
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def covered_s(self, start: float, end: float) -> float:
        """Wall time inside [start, end] during which any span was open."""
        roots = sorted((max(s.start, start), min(s.end, end))
                       for s in self.spans if s.parent is None)
        total, cur_a, cur_b = 0.0, None, None
        for a, b in roots:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    total += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            total += cur_b - cur_a
        return total


def _work_edges(graph, work=None, *_args, **_kwargs) -> int:
    if work is None:
        return int(graph.indptr[-1])
    deg = np.diff(graph.indptr)
    return int(deg[np.asarray(work, dtype=np.int64)].sum())


def _layer_points(tr: Tracer) -> None:
    """The public calls timed per layer; span names become metric names."""
    from repro.graph.csr import CSRGraph
    from repro.serve.backends import InlineBackend
    from repro.serve.cache import ResultCache
    from repro.serve.queue import SubmissionQueue
    from repro.serve.store import SqliteStore
    from repro.shm.pool import WarmPool
    from repro.shm.segments import SharedGraph

    def count_ff(_out, graph, work=None, *_a, **_k):
        tr.count("kernels.ff_sweep.calls")
        tr.count("kernels.ff_sweep.edges", _work_edges(graph, work))

    def count_moves(out, *_a, **_k):
        tr.count("kernels.shuffle_drain.moves", int(out))

    def count_builds(_out, *_a, **_k):
        tr.count("graph.build.calls")

    def count_transitions(_out, *_a, **_k):
        tr.count("serve.store.transitions")

    def job_of_backend(_self, job, *_a, **_k):
        # admitted -> backend start: the queue wait the pump imposes
        if job.submitted_at:
            with tr._lock:
                tr.queue_wait_ms.append((time.time() - job.submitted_at) * 1e3)
        return job.id

    def job_of_key(_self, key, *_a, **_k):
        return tr.key_to_job.get(key)

    tr.patch_function(["repro.graph.datasets", "repro.graph", "repro",
                       "repro.serve.api"], "load_dataset", "graph.build",
                      after=count_builds)
    tr.patch_method(CSRGraph, "fingerprint", "graph.fingerprint")
    tr.patch_function(["repro.run", "repro.run.pipeline", "repro",
                       "repro.serve.backends", "repro.run.mutate"],
                      "execute", "run.execute")
    tr.patch_function(["repro.run.pipeline"], "heal", "resilience.verify")
    tr.patch_function(["repro.kernels"], "ff_sweep", "kernels.ff_sweep",
                      after=count_ff)
    tr.patch_function(["repro.kernels"], "shuffle_drain",
                      "kernels.shuffle_drain", after=count_moves)
    tr.patch_function(["repro.kernels"], "d2_sweep", "kernels.d2_sweep")
    tr.patch_function(["repro.kernels"], "d2_conflicts", "kernels.d2_conflicts")
    tr.patch_function(["repro.kernels", "repro.parallel.recolor",
                       "repro.parallel.greedy", "repro.parallel.incremental"],
                      "detect_conflicts", "kernels.detect_conflicts")
    tr.patch_function(["repro.bipartite"], "balance_partial_d2",
                      "bipartite.balance")
    tr.patch_function(["repro.bipartite"], "mp_partial_d2", "bipartite.mp")
    tr.patch_function(["repro.parallel.mp"], "mp_greedy_ff", "parallel.mp")
    tr.patch_method(WarmPool, "ensure", "shm.pool.ensure")
    tr.patch_method(SharedGraph, "for_graph", "shm.publish")
    tr.patch_method(SubmissionQueue, "submit", "serve.queue.admit")
    tr.patch_method(ResultCache, "get", "serve.cache.get", job_of=job_of_key)
    tr.patch_method(ResultCache, "put", "serve.cache.put", job_of=job_of_key)
    tr.patch_method(SqliteStore, "transition", "serve.store.transition",
                    after=count_transitions)
    tr.patch_method(InlineBackend, "run", "serve.backend.run",
                    job_of=job_of_backend)
