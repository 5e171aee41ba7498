"""The optimistic round driver: speculative coloring on a thread team.

The tick machine simulates shared-memory parallelism; this module runs
the speculation-and-iteration framework for real, on the process-wide
thread team of :mod:`repro.shm.pool`.  :func:`run_rounds` is its one
driver: each round the pending items are split into blocks along a
fixed partition order, every block is First-Fit-colored against the
round-start snapshot into its own output array (blocks cannot see each
other's in-round proposals, exactly like same-tick peers), the
proposals merge in block order, and the conflict rule picks the items to
retry next round.  It takes a :class:`Neighbourhood` (``d1``: a graph's
vertices; ``d2``: a bipartite graph's rows) and a transport: ``threads``
(the blocks sweep concurrently; each sweep is one compiled call that
releases the GIL) or ``inline`` (the blocks sweep in turn, for the
in-process replays).  :func:`mp_greedy_ff` and
:func:`repro.bipartite.mp_partial_d2` are thin adapters over it.

Determinism for fixed ``(num_workers, partition, seed)``: one worker ≡
the sequential sweep; threads ≡ inline, since both feed the same blocks
the same snapshot and merge in the same order; and stall/corrupt/stale
recovery is bit-identical to the fault-free run, since a retried block
re-colors the same items against the same snapshot.  A stalled block's
late result is thrown away, and it cannot touch shared state because it
sweeps into its own array.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .. import kernels
from ..coloring.types import Coloring
from ..kernels import detect_cross_conflicts  # re-exported
from ..graph.csr import CSRGraph
from ..obs import NULL, as_recorder
from ..resilience import NO_FAULTS, FaultPlan, resolve_fault_plan

__all__ = ["Neighbourhood", "detect_cross_conflicts", "mp_greedy_ff",
           "partition_positions", "run_rounds", "split_blocks"]

#: Per-block-attempt collection timeout (seconds) when none is given.  A
#: stalled block surfaces as a timeout after at most this long, instead
#: of hanging the whole run forever.
DEFAULT_ROUND_TIMEOUT = 60.0

#: Retries per failed block before degrading to in-process coloring.
DEFAULT_MAX_RETRIES = 2

#: Backoff base of the exponential backoff between retry attempts (seconds).
DEFAULT_BACKOFF = 0.05


@dataclass(frozen=True)
class Neighbourhood:
    """What the round driver colors and which conflicts it retries.

    ``Neighbourhood("d1", graph, graph.num_vertices, position)`` colors a
    graph's vertices; ``Neighbourhood("d2", incidence, num_rows)`` the
    rows of a bipartite incidence graph.  *position* ranks every item in
    the partition order each round's work list is re-split along
    (``None``: id order).  Kernels are looked up on :mod:`repro.kernels`
    at call time.
    """

    kind: str
    graph: CSRGraph
    size: int
    position: np.ndarray | None = None

    def sweep(self, block: np.ndarray, base: np.ndarray,
              backend: str) -> np.ndarray:
        """First-Fit proposals for *block*: each item sees the new colors
        of earlier block members and *base* for everyone else."""
        if self.kind == "d1":
            local = kernels.ff_sweep(self.graph, block, base, backend=backend)
        else:
            local = kernels.d2_sweep(self.graph, self.size, block, base,
                                     backend=backend)
        return np.ascontiguousarray(local[block])

    def detect(self, colors: np.ndarray, work: np.ndarray,
               backend: str) -> np.ndarray:
        if self.kind == "d1":
            return kernels.detect_cross_conflicts(self.graph, colors, work,
                                                  backend=backend)
        return kernels.d2_conflicts(self.graph, self.size, colors, work,
                                    backend=backend)


def _valid_proposals(res, block: np.ndarray, bound: int) -> bool:
    """A sane block result: one integer color in ``[0, bound)`` per item."""
    return (isinstance(res, np.ndarray) and res.shape == block.shape
            and np.issubdtype(res.dtype, np.integer)
            and bool(res.size == 0 or (res.min() >= 0 and res.max() < bound)))


class _Inline:
    """No team and no faults: blocks sweep in turn, timed for ``capture``."""

    name, reused = "in-process", False

    def __init__(self, nb, num_workers, backend, **guard):
        self.nb, self.backend = nb, backend

    def propose(self, round_idx, blocks, colors):
        self.snapshot, self.sweep_s, out = colors.copy(), [], []
        for block in blocks:
            t0 = perf_counter()
            out.append(self.nb.sweep(block, self.snapshot, self.backend))
            self.sweep_s.append(perf_counter() - t0)
        return out

    def close(self) -> None:
        pass


def _block_task(nb, block, base, backend, stall, released):
    """One block on the team.  A ``stall`` fault sleeps first; a block
    whose run ended mid-stall returns without sweeping."""
    if stall and released.wait(stall):
        return None
    return nb.sweep(block, base, backend)


class _Threads:
    """Blocks sweep concurrently on the process-wide thread team, guarded.

    :meth:`propose` submits every block up front, then collects each
    result with the round timeout; a timeout (stalled block), a raised
    exception or an invalid proposal array (corruption) fails the
    attempt, and the block is resubmitted with exponential backoff up to
    ``max_retries`` times.  Proposals return in block order, ``None``
    where every attempt failed (the driver salvages those in-process).
    """

    name = "threads"

    def __init__(self, nb, num_workers, backend, **guard):
        from ..shm import warm_pool

        self.nb, self.backend = nb, backend
        # plan, timeout, max_retries, backoff, rec, stats
        vars(self).update(guard)
        self.team = warm_pool()
        self.reused = self.team.ensure(num_workers)
        self.released = threading.Event()
        # the previous round's snapshot, for the "stale" fault (round -1)
        self.previous = np.full(nb.size, -1, dtype=np.int64)

    def propose(self, round_idx, blocks, colors):
        plan, rec, stats = self.plan, self.rec, self.stats
        snapshot, stale = colors.copy(), self.previous
        self.previous = snapshot

        def submit(w: int, attempt: int):
            spec = plan.for_task(round_idx, w, attempt)
            kind = None if spec is None else spec.kind
            if spec is not None:
                stats["injected"] += 1
                if rec.enabled:
                    rec.event("fault_injected", fault=kind, round=round_idx,
                              worker=w, attempt=attempt)
            handle = self.team.submit(
                _block_task, self.nb, blocks[w],
                stale if kind == "stale" else snapshot, self.backend,
                spec.duration if kind == "stall" else 0.0, self.released)
            return handle, kind == "corrupt"

        pending = [submit(w, 0) for w in range(len(blocks))]
        out: list[np.ndarray | None] = []
        for w, block in enumerate(blocks):
            handle, corrupt = pending[w]
            proposals: np.ndarray | None = None
            for attempt in range(self.max_retries + 1):
                if attempt:  # back off, then resubmit the failed block
                    time.sleep(self.backoff * (2 ** (attempt - 1)))
                    handle, corrupt = submit(w, attempt)
                try:
                    res = handle.result(timeout=self.timeout)
                    if corrupt:
                        res = plan.corrupt(res, round_idx, w)
                    valid = _valid_proposals(res, block, self.nb.size)
                    reason = None if valid else "corrupt"
                except FutureTimeout:
                    reason = "timeout"
                except Exception as exc:
                    reason = f"crash:{type(exc).__name__}"
                if reason is None:
                    proposals = res
                    if attempt:
                        stats["recovered"] += 1
                        if rec.enabled:
                            rec.event("fault_recovered", round=round_idx,
                                      worker=w, attempt=attempt)
                    break
                stats["detected"] += 1
                if rec.enabled:
                    rec.event("fault_detected", round=round_idx, worker=w,
                              attempt=attempt, reason=reason)
            out.append(proposals)
        return out

    def close(self) -> None:
        self.released.set()


_TRANSPORTS = {"inline": _Inline, "threads": _Threads}


def run_rounds(
    nb: Neighbourhood,
    num_workers: int,
    *,
    transport: str,
    max_rounds: int = 100,
    backend: str | None = None,
    plan: FaultPlan = NO_FAULTS,
    round_timeout: float = DEFAULT_ROUND_TIMEOUT,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    rec=NULL,
    capture: list | None = None,
) -> tuple[np.ndarray, dict]:
    """Color every item of *nb* in optimistic rounds: ``(colors, meta)``.

    Each round re-splits the work list into *num_workers* blocks along
    ``nb.position``, has *transport* (``"threads"`` or ``"inline"``)
    propose colors for every block against the round-start snapshot,
    merges the proposals in block order (a block whose retries are
    exhausted is salvaged in-process against the merged survivors) and
    retries what ``nb.detect`` flags.  Work left after *max_rounds* is
    finished by one sequential residual pass.  With one worker on the
    thread team the whole job is one in-process sweep.

    ``meta`` holds ``rounds``, ``conflicts`` (total retried items),
    ``faults`` (injected/detected/recovered/salvaged), ``degraded`` (any
    salvage or residual work), ``residual``, ``transport`` and
    ``pool_reused`` (the thread team was already wide enough).  *rec*
    gets the ``mp_pool``/``mp_round``/``mp_salvage``/``mp_degraded`` and
    ``fault_*`` events.  *capture* (inline transport only) receives one
    dict per round: ``blocks``, ``snapshot``, ``work``, ``sweep_s`` (per
    block), ``detect_s`` and ``conflicts``.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if max_rounds < 1:
        raise ValueError(
            f"max_rounds must be >= 1, got {max_rounds}; a run with no "
            "speculation rounds would silently color everything sequentially")
    if round_timeout <= 0:
        raise ValueError(f"round_timeout must be > 0, got {round_timeout}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if capture is not None and transport != "inline":
        raise ValueError("capture needs the inline transport")
    backend = kernels.resolve_backend(backend)
    colors = np.full(nb.size, -1, dtype=np.int64)
    work = np.arange(nb.size, dtype=np.int64)
    stats = {"injected": 0, "detected": 0, "recovered": 0, "salvaged": 0}
    meta = {"rounds": 1, "conflicts": 0, "faults": stats, "degraded": False,
            "residual": 0, "transport": "in-process", "pool_reused": False}
    if num_workers == 1 and transport != "inline":
        return nb.sweep(work, colors, backend), meta

    port = _TRANSPORTS[transport](
        nb, num_workers, backend, plan=plan, timeout=round_timeout,
        max_retries=max_retries, backoff=backoff, rec=rec, stats=stats)
    if rec.enabled and transport != "inline":
        rec.event("mp_pool", transport=port.name, reused=port.reused,
                  threads=num_workers)
    rounds = conflicts = 0
    try:
        while work.shape[0] and rounds < max_rounds:
            ordered = (work if nb.position is None
                       else work[np.argsort(nb.position[work])])
            blocks = split_blocks(ordered, num_workers)
            results = port.propose(rounds, blocks, colors)
            for block, res in zip(blocks, results):
                if res is not None:
                    colors[block] = res
            for block, res in zip(blocks, results):
                if res is None:  # degraded: color in-process, in block order
                    stats["salvaged"] += 1
                    if rec.enabled:
                        rec.event("mp_salvage", round=rounds,
                                  vertices=int(block.shape[0]))
                    colors[block] = nb.sweep(block, colors, backend)
            t0 = perf_counter()
            retry = nb.detect(colors, work, backend)
            detect_s = perf_counter() - t0
            conflicts += retry.shape[0]
            if capture is not None:
                capture.append({"blocks": blocks, "snapshot": port.snapshot,
                                "work": work, "sweep_s": port.sweep_s,
                                "detect_s": detect_s,
                                "conflicts": int(retry.shape[0])})
            if rec.enabled:
                rec.event("mp_round", index=rounds, workers=num_workers,
                          attempted=int(ordered.shape[0]),
                          conflicts=int(retry.shape[0]))
            work = retry
            rounds += 1
    finally:
        port.close()

    residual = int(work.shape[0])
    if residual:  # round cap hit: finish sequentially
        if rec.enabled:
            rec.event("mp_degraded", reason="max_rounds", residual=residual)
        colors[work] = nb.sweep(work, colors, backend)
    meta.update(rounds=rounds, conflicts=int(conflicts),
                degraded=bool(residual or stats["salvaged"]),
                residual=residual, transport=port.name,
                pool_reused=port.reused)
    return colors, meta


def mp_greedy_ff(
    graph: CSRGraph,
    *,
    num_workers: int = 2,
    max_rounds: int = 100,
    partition: str = "block",
    seed=None,
    backend: str | None = None,
    recorder=None,
    fault_plan: FaultPlan | str | None = None,
    round_timeout: float = DEFAULT_ROUND_TIMEOUT,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
) -> Coloring:
    """Greedy-FF coloring computed by *num_workers* threads of the team.

    Deterministic for fixed ``(num_workers, partition, seed)`` and
    independent of the team's width: the blocks merge in block order,
    so which thread sweeps a block never matters, and the result is
    bit-identical to the inline replay
    (:func:`repro.serve.backends.shard_rounds`).  With ``num_workers=1``
    the sweep runs in-process and equals the sequential First-Fit
    coloring.

    ``partition`` selects how vertices are split across workers (see
    :mod:`repro.parallel.partition`): ``"block"``, ``"random"``, or
    ``"bfs"`` — fewer cross-partition edges mean fewer speculative
    conflicts and fewer retry rounds.

    ``backend`` selects the FF-sweep kernel (see :mod:`repro.kernels`).
    Every backend produces bit-identical block colorings, so the overall
    result is backend-independent.

    Every round is guarded: each block's future is collected with
    ``round_timeout`` seconds, failed blocks (stalled, raised, corrupted
    proposals) are retried up to ``max_retries`` times with exponential
    ``backoff``, and a block whose retries are exhausted is colored
    in-process so the run *always* terminates with a proper coloring.
    ``fault_plan`` (a :class:`repro.resilience.FaultPlan`, a spec string,
    or the ``REPRO_FAULT_PLAN`` environment variable) injects such
    failures deterministically for testing.

    Returns a proper :class:`Coloring`; ``meta["rounds"]`` records how many
    speculation rounds were needed and ``meta["conflicts"]`` the total
    number of retried vertices.  ``meta["faults"]`` counts injected /
    detected / recovered faults and in-process-salvaged blocks;
    ``meta["residual"]`` is the number of vertices finished by the
    sequential residual pass after the round cap, and ``meta["degraded"]``
    is True whenever any work bypassed the team (salvage or residual) —
    truncation is never silent.  ``meta["transport"]`` names what ran and
    ``meta["pool_reused"]`` says whether the team was already wide enough.

    ``recorder`` (optional :class:`repro.obs.Recorder`) gets one
    ``mp_round`` event per speculation round (workers, vertices colored,
    conflicts) plus ``mp_pool`` / ``fault_injected`` / ``fault_detected``
    / ``fault_recovered`` / ``mp_salvage`` / ``mp_degraded`` events
    inside a ``greedy-ff-mp`` phase timer; attaching one never changes
    the result.
    """
    from .partition import PARTITIONS, partition_by_name

    if partition not in PARTITIONS:
        raise ValueError(
            f"partition must be one of {sorted(PARTITIONS)}, got {partition!r}")
    rec = as_recorder(recorder)
    resolved = kernels.resolve_backend(backend)
    position = None
    if num_workers > 1:
        # the partition fixes a global order; each round splits the
        # remaining work list along it, preserving the partitioner's locality
        position = partition_positions(
            partition_by_name(graph, num_workers, partition, seed=seed),
            graph.num_vertices)
    with rec.phase("greedy-ff-mp"):
        colors, meta = run_rounds(
            Neighbourhood("d1", graph, graph.num_vertices, position),
            num_workers, transport="threads", max_rounds=max_rounds,
            backend=resolved, plan=resolve_fault_plan(fault_plan),
            round_timeout=round_timeout, max_retries=max_retries,
            backoff=backoff, rec=rec)
    num_colors = int(colors.max(initial=-1)) + 1
    if rec.enabled:
        rec.event("coloring", strategy="greedy-ff-mp",
                  num_vertices=graph.num_vertices, num_colors=num_colors,
                  workers=num_workers, rounds=meta["rounds"],
                  conflicts=meta["conflicts"], backend=resolved,
                  degraded=meta["degraded"], transport=meta["transport"])
    return Coloring(colors, num_colors, strategy="greedy-ff-mp",
                    meta={"workers": num_workers, "partition": partition,
                          "backend": resolved, **meta})


def partition_positions(parts: list[np.ndarray], num_vertices: int) -> np.ndarray:
    """Each vertex's rank in the concatenated partition order.

    The order every round's work list is sorted by before re-splitting
    (:attr:`Neighbourhood.position`), so both transports and the serve
    layer's sharded backend split identically.
    """
    position = np.empty(num_vertices, dtype=np.int64)
    offset = 0
    for part in parts:
        position[part] = np.arange(offset, offset + part.shape[0])
        offset += part.shape[0]
    return position


def split_blocks(ordered: np.ndarray, num_workers: int) -> list[np.ndarray]:
    """The round's non-empty worker blocks, in partition order."""
    return [b for b in np.array_split(ordered, num_workers) if b.shape[0]]
