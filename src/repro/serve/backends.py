"""Execution backends: *how* an admitted job actually runs.

The scheduler decides *when* a job runs (cache, dedup, batching); the
backend behind it decides *how*:

- :class:`InlineBackend` — the original path: one
  :func:`repro.run.execute` call on the scheduler's worker thread.
- :class:`ShardedBackend` — one large graph, many workers: the vertex
  set is cut with :mod:`repro.parallel.partition`, shards fan out across
  the mp thread team (:class:`~repro.shm.WarmPool`), every shard
  First-Fit-colors against a snapshot, and cross-shard
  boundary conflicts are repaired by the existing mp conflict-resolve
  rounds (:func:`repro.parallel.mp.detect_cross_conflicts`) — the
  Sarıyüce-style shard-then-repair structure, reusing the speculation
  protocol the repo already trusts.  The shard protocol's output is
  verified proper with :func:`repro.coloring.verify.assert_proper`
  before it leaves the backend.

The sharded backend composes with the registry rather than replacing it:

- ab-initio ``greedy-ff`` jobs are rewritten to the registered mp
  implementation (``mode="mp", threads=shards``) — the shard protocol
  *is* the final coloring;
- guided strategies (vff/vlu/cff/…) keep their sequential strategy but
  get their Greedy-FF **initial** coloring from the shard protocol, so
  the expensive full-graph sweep parallelizes while the strategy's
  semantics (and ``execute``'s invariant healing) stay untouched.

Jobs the protocol cannot help — graphs below ``min_vertices``, already
parallel modes, fault-plan runs, mutation jobs carrying a base coloring,
``shards=1`` — fall back to the inline path, counted and recorded, and
are then **bit-identical** to :class:`InlineBackend` by construction.

:func:`shard_rounds` runs the same protocol on the round driver's inline
transport, for the ``dispatch="inline"`` mode and for
``benchmarks/bench_shard.py``, whose critical-path model needs
contention-free per-shard compute times.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .. import kernels
from ..coloring.strategies import STRATEGIES, split_seed
from ..coloring.types import Coloring
from ..coloring.verify import assert_proper
from ..obs import as_recorder
from ..parallel.mp import Neighbourhood, partition_positions, run_rounds
from ..parallel.partition import PARTITIONS
from ..run import execute  # module attr: tests monkeypatch backends.execute

__all__ = ["DEFAULT_MIN_SHARD_VERTICES", "ExecutionBackend", "InlineBackend",
           "ShardRound", "ShardRun", "ShardedBackend", "resolve_backend",
           "shard_rounds"]

#: Below this many vertices a graph is not worth sharding: partition +
#: snapshot + conflict-scan overhead dominates the per-shard sweeps.
DEFAULT_MIN_SHARD_VERTICES = 2048


class ExecutionBackend:
    """How one primary job turns into a :class:`~repro.run.RunResult`.

    ``run`` may raise — the scheduler catches and fails the job; the
    backend never needs to.  Implementations must stay deterministic
    for a fixed job (config seed included): the serve layer's cache and
    dedup guarantees are built on it.
    """

    name = "backend"

    def run(self, job):
        raise NotImplementedError

    def stats(self) -> dict:
        """JSON-ready counters for ``/stats`` (empty when stateless)."""
        return {"backend": self.name}


class InlineBackend(ExecutionBackend):
    """The original path: one ``execute`` call, exactly as configured."""

    name = "inline"

    def run(self, job):
        return execute(job.graph, job.config, initial=job.initial)


@dataclass
class ShardRound:
    """One speculation round of the in-process shard replay."""

    attempted: int
    conflicts: int
    shard_seconds: list[float]
    detect_seconds: float


@dataclass
class ShardRun:
    """The in-process shard replay's coloring plus per-round timings."""

    coloring: Coloring
    rounds: list[ShardRound]

    def critical_path_s(self) -> float:
        """Modeled parallel wall time: per round, the slowest shard runs
        concurrently with its peers; merge + conflict detection are the
        sequential tail every transport pays."""
        return sum(max(r.shard_seconds) + r.detect_seconds
                   for r in self.rounds)

    def serial_s(self) -> float:
        """Total single-thread work the same rounds performed."""
        return sum(sum(r.shard_seconds) + r.detect_seconds
                   for r in self.rounds)


def shard_rounds(graph, shards: int, *, partition: str = "block", seed=None,
                 backend: str | None = None, max_rounds: int = 100) -> ShardRun:
    """Run the sharded round protocol in-process, timing each shard.

    The D1 neighbourhood of :func:`repro.parallel.mp.run_rounds` on its
    inline transport, so bit-identical to
    :func:`repro.parallel.mp.mp_greedy_ff` for equal ``(shards,
    partition, seed)`` — same partition order, same per-round re-split,
    same snapshot semantics, same conflict rule, same residual pass — the
    test-suite asserts it.  Shards are colored one after another here, so
    ``shard_seconds`` are contention-free measurements of each shard's
    real compute, which is what the bench's critical-path model needs on
    a single-CPU runner.
    """
    from ..parallel.partition import partition_by_name

    resolved = kernels.resolve_backend(backend)
    position = partition_positions(
        partition_by_name(graph, shards, partition, seed=seed),
        graph.num_vertices)
    captured: list[dict] = []
    colors, meta = run_rounds(
        Neighbourhood("d1", graph, graph.num_vertices, position), shards,
        transport="inline", max_rounds=max_rounds, backend=resolved,
        capture=captured)
    rounds = [ShardRound(attempted=int(r["work"].shape[0]),
                         conflicts=r["conflicts"], shard_seconds=r["sweep_s"],
                         detect_seconds=r["detect_s"]) for r in captured]
    coloring = Coloring(colors, int(colors.max(initial=-1)) + 1,
                        strategy="greedy-ff-mp",
                        meta={"workers": shards, "partition": partition,
                              "backend": resolved, **meta})
    return ShardRun(coloring=coloring, rounds=rounds)


class ShardedBackend(ExecutionBackend):
    """Cut one big graph into shards and color them concurrently.

    Parameters
    ----------
    shards:
        Worker count the graph is cut for.  ``1`` makes every job an
        inline fallback (bit-identical to :class:`InlineBackend`).
    partition:
        Partitioner name (see :data:`repro.parallel.partition.PARTITIONS`);
        fewer cross-shard edges mean fewer boundary-repair rounds.
    dispatch:
        ``"pool"`` (default) sweeps the shards concurrently on the
        process-wide mp thread team (:class:`~repro.shm.WarmPool`);
        ``"inline"`` runs the identical protocol one shard after another
        via :func:`shard_rounds` — same colorings.
    min_vertices:
        Smallest graph worth sharding; smaller jobs run inline.
    recorder:
        Observability sink for the ``serve_shard*`` events.
    """

    name = "sharded"

    def __init__(self, shards: int = 4, *, partition: str = "block",
                 dispatch: str = "pool",
                 min_vertices: int = DEFAULT_MIN_SHARD_VERTICES,
                 recorder=None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if partition not in PARTITIONS:
            raise ValueError(f"partition must be one of {sorted(PARTITIONS)}, "
                             f"got {partition!r}")
        if dispatch not in ("pool", "inline"):
            raise ValueError(f"dispatch must be 'pool' or 'inline', "
                             f"got {dispatch!r}")
        self.shards = int(shards)
        self.partition = partition
        self.dispatch = dispatch
        self.min_vertices = int(min_vertices)
        self._rec = as_recorder(recorder)
        self._lock = threading.Lock()
        self._sharded = 0
        self._fallbacks = 0

    # ------------------------------------------------------------------
    def supports(self, job) -> str | None:
        """``None`` when the job can shard, else the fallback reason."""
        config = job.config
        if self.shards < 2:
            return "shards < 2"
        if job.graph.num_vertices < self.min_vertices:
            return (f"graph too small to shard "
                    f"({job.graph.num_vertices} < {self.min_vertices} vertices)")
        if config.mode != "sequential":
            return f"mode {config.mode!r} already runs parallel"
        if config.fault_plan is not None:
            return "fault-plan jobs pin the inline path"
        spec = STRATEGIES[config.strategy]
        if spec.category == "guided":
            if job.initial is not None:
                return "job carries a precomputed initial coloring"
            return None
        if config.strategy == "greedy-ff":
            unknown = sorted(set(config.strategy_kwargs)
                             - set(spec.mp.accepts))
            if unknown:
                return (f"strategy kwarg(s) {unknown} have no mp "
                        "equivalent")
            return None
        return f"ab-initio strategy {config.strategy!r} has no sharded form"

    def run(self, job):
        reason = self.supports(job)
        if reason is not None:
            with self._lock:
                self._fallbacks += 1
            job.meta["backend"] = "inline"
            job.meta["fallback_reason"] = reason
            if self._rec.enabled:
                self._rec.event("serve_shard_fallback", job=job.id,
                                reason=reason)
            return execute(job.graph, job.config, initial=job.initial)

        config = job.config
        with self._lock:
            self._sharded += 1
        job.meta["backend"] = "sharded"
        job.meta["shards"] = self.shards
        if self._rec.enabled:
            self._rec.event("serve_shard_dispatch", job=job.id,
                            shards=self.shards, partition=self.partition,
                            dispatch=self.dispatch,
                            strategy=config.strategy)

        spec = STRATEGIES[config.strategy]
        if spec.category == "guided":
            # parallelize the expensive full-graph initial sweep; the
            # guided strategy itself runs unchanged on top of it
            init_seed, _ = split_seed(config.seed)
            initial = self._shard_coloring(job.graph, seed=init_seed,
                                           backend=config.backend)
            assert_proper(job.graph, initial)
            return execute(job.graph, config, initial=initial)
        # ab-initio greedy-ff: the shard protocol is the final coloring
        if self.dispatch == "inline":
            coloring = self._shard_coloring(job.graph, seed=config.seed,
                                            backend=config.backend)
            assert_proper(job.graph, coloring)
            return self._wrap(config, coloring)
        kwargs = dict(config.strategy_kwargs)
        kwargs["partition"] = self.partition
        derived = config.replace(mode="mp", threads=self.shards,
                                 strategy_kwargs=kwargs)
        result = execute(job.graph, derived)
        assert_proper(job.graph, result.coloring)
        return result

    # ------------------------------------------------------------------
    def _shard_coloring(self, graph, *, seed, backend) -> Coloring:
        """The shard protocol's coloring under the configured dispatch."""
        if self.dispatch == "inline":
            return shard_rounds(graph, self.shards, partition=self.partition,
                                seed=seed, backend=backend).coloring
        from ..parallel.mp import mp_greedy_ff

        return mp_greedy_ff(graph, num_workers=self.shards,
                            partition=self.partition, seed=seed,
                            backend=backend, recorder=self._rec)

    @staticmethod
    def _wrap(config, coloring: Coloring):
        """A :class:`RunResult` for a coloring produced outside ``execute``
        (mirrors the result cache's disk-restore construction)."""
        from ..coloring.balance import balance_report
        from ..obs import NULL
        from ..run.config import RunResult

        return RunResult(
            config=config, coloring=coloring, initial=None,
            balance=balance_report(coloring), trace=None, machine_time=None,
            wall_s={"initial": 0.0, "strategy": 0.0, "verify": 0.0,
                    "total": 0.0},
            recorder=NULL, resilience={},
        )

    def stats(self) -> dict:
        with self._lock:
            return {"backend": self.name, "shards": self.shards,
                    "partition": self.partition, "dispatch": self.dispatch,
                    "sharded_jobs": self._sharded,
                    "inline_fallbacks": self._fallbacks}


def resolve_backend(backend, *, recorder=None) -> ExecutionBackend:
    """Coerce a ``backend=`` argument: an instance passes through,
    ``None`` means inline, an int ``n`` means ``ShardedBackend(n)``
    (``n <= 1`` stays inline)."""
    if backend is None:
        return InlineBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, bool):
        raise TypeError("backend must be an ExecutionBackend, an int shard "
                        "count, or None, got a bool")
    if isinstance(backend, int):
        if backend <= 1:
            return InlineBackend()
        return ShardedBackend(backend, recorder=recorder)
    raise TypeError(f"backend must be an ExecutionBackend, an int shard "
                    f"count, or None, got {type(backend).__name__}")
