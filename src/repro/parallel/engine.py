"""Tick-synchronous shared-memory simulation engine.

Model
-----
*p* threads execute a work list under an OpenMP-``schedule(static,1)``-like
cyclic assignment: tick *t* processes items ``t*p .. t*p + p - 1``, item
``t*p + j`` on thread *j*.  Within a tick:

- **plain loads race** — a thread deciding a color sees the shared arrays
  as they stood when the tick began (writes by same-tick peers are not
  visible), which is exactly how adjacent vertices end up with the same
  color on real hardware;
- **atomics serialize** — bin-size counters use atomic read-modify-write,
  so a same-tick peer's committed increment *is* visible (matching the
  paper's "synchronized step").

A *superstep* is one full pass over the current work list followed by a
barrier and (for speculative algorithms) a conflict-detection phase;
:meth:`TickMachine.speculate` is the one driver of those rounds.  The
engine records an :class:`ExecutionTrace` — per-superstep, per-thread work
units, atomic counts, conflicts, and barrier crossings — which the machine
models in :mod:`repro.machine` turn into run-time estimates.

Work units are *edge touches*: processing vertex v costs
``deg(v) + VERTEX_OVERHEAD`` units, the dominant cost in all the paper's
kernels (adjacency scan + constant bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["VERTEX_OVERHEAD", "SuperstepRecord", "ExecutionTrace", "TickMachine"]

#: Fixed per-vertex bookkeeping cost added to the adjacency-scan cost.
VERTEX_OVERHEAD = 8


@dataclass
class SuperstepRecord:
    """Instrumentation for one superstep (one parallel pass + barrier)."""

    work_per_thread: np.ndarray  # float64[p], edge-touch units
    max_item_work: float = 0.0  # largest single work item (scheduling floor)
    atomic_ops: int = 0  # committed atomic RMW operations
    distinct_bins: int = 0  # distinct counters those atomics touched
    shared_reads: int = 0  # reads of contended shared counters (bin sizes)
    conflicts: int = 0  # vertices sent back for retry
    items: int = 0  # work items processed
    barriers: int = 2  # barrier crossings (work phase + detect phase)

    @property
    def max_work(self) -> float:
        """Busiest thread's units under the cyclic (static) assignment."""
        return float(self.work_per_thread.max(initial=0.0))

    def critical_work(self, num_threads: int) -> float:
        """Critical-path units under dynamic (work-stealing) scheduling.

        The classic list-scheduling bound: the span is at least the mean
        load and at least the largest single item; real OpenMP dynamic
        schedules land between this and ``max_work`` (the static bound).
        """
        return max(self.total_work / num_threads, self.max_item_work)

    @property
    def total_work(self) -> float:
        """All threads' units combined."""
        return float(self.work_per_thread.sum())


@dataclass
class ExecutionTrace:
    """Complete instrumentation of one parallel algorithm execution."""

    num_threads: int
    algorithm: str = ""
    supersteps: list[SuperstepRecord] = field(default_factory=list)
    serial_work: float = 0.0  # units executed in serial sections (e.g. planning)

    def add(self, record: SuperstepRecord) -> None:
        """Append one completed superstep's instrumentation."""
        self.supersteps.append(record)

    @property
    def num_supersteps(self) -> int:
        """Number of supersteps executed."""
        return len(self.supersteps)

    @property
    def total_conflicts(self) -> int:
        """Vertices retried across all supersteps."""
        return sum(s.conflicts for s in self.supersteps)

    @property
    def total_atomics(self) -> int:
        """Atomic RMW operations across all supersteps."""
        return sum(s.atomic_ops for s in self.supersteps)

    @property
    def total_shared_reads(self) -> int:
        """Contended counter reads across all supersteps."""
        return sum(s.shared_reads for s in self.supersteps)

    @property
    def total_work(self) -> float:
        """Serial plus parallel units over the whole execution."""
        return self.serial_work + sum(s.total_work for s in self.supersteps)

    @property
    def critical_path_work(self) -> float:
        """Serial work plus per-superstep busiest-thread work."""
        return self.serial_work + sum(s.max_work for s in self.supersteps)

    @property
    def total_barriers(self) -> int:
        """Barrier crossings across all supersteps."""
        return sum(s.barriers for s in self.supersteps)

    def to_dict(self) -> dict:
        """Full JSON-serializable dump (for archiving experiment runs)."""
        return {
            "num_threads": self.num_threads,
            "algorithm": self.algorithm,
            "serial_work": self.serial_work,
            "supersteps": [
                {
                    "work_per_thread": ss.work_per_thread.tolist(),
                    "max_item_work": ss.max_item_work,
                    "atomic_ops": ss.atomic_ops,
                    "distinct_bins": ss.distinct_bins,
                    "shared_reads": ss.shared_reads,
                    "conflicts": ss.conflicts,
                    "items": ss.items,
                    "barriers": ss.barriers,
                }
                for ss in self.supersteps
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionTrace":
        """Inverse of :meth:`to_dict`.

        Malformed input (an archive truncated mid-write, or produced by an
        older schema) raises :class:`ValueError` naming the missing field
        — mirroring the graph-I/O diagnostics — instead of a bare
        ``KeyError`` from deep inside the constructor.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"ExecutionTrace.from_dict needs a dict, got {type(data).__name__}")
        if "num_threads" not in data:
            raise ValueError("ExecutionTrace dict is missing 'num_threads'")
        trace = cls(
            num_threads=data["num_threads"],
            algorithm=data.get("algorithm", ""),
            serial_work=data.get("serial_work", 0.0),
        )
        for i, ss in enumerate(data.get("supersteps", [])):
            if not isinstance(ss, dict) or "work_per_thread" not in ss:
                raise ValueError(
                    f"superstep {i} in ExecutionTrace dict is missing "
                    f"'work_per_thread'")
            record = SuperstepRecord(
                work_per_thread=np.asarray(ss["work_per_thread"], dtype=float),
                max_item_work=ss.get("max_item_work", 0.0),
                atomic_ops=ss.get("atomic_ops", 0),
                distinct_bins=ss.get("distinct_bins", 0),
                shared_reads=ss.get("shared_reads", 0),
                conflicts=ss.get("conflicts", 0),
                items=ss.get("items", 0),
                barriers=ss.get("barriers", 2),
            )
            trace.add(record)
        return trace

    def summary(self) -> dict:
        """Compact dict for coloring ``meta`` and reports."""
        return {
            "algorithm": self.algorithm,
            "threads": self.num_threads,
            "supersteps": self.num_supersteps,
            "conflicts": self.total_conflicts,
            "atomics": self.total_atomics,
            "work": self.total_work,
            "critical_path": self.critical_path_work,
        }

    def record_to(self, recorder) -> None:
        """Surface this trace through a :class:`repro.obs.Recorder`.

        Emits one ``superstep`` event per record plus a ``trace_summary``
        event, so simulated-parallel instrumentation lands in the same
        stream as the serial phase timers (see :mod:`repro.obs.bridge`).
        """
        from ..obs import record_trace

        record_trace(recorder, self)


class TickMachine:
    """The cyclic item→thread assignment, its accounting, and the round driver.

    Item ``j`` of a tick runs on thread ``j``, and a scan over a whole
    work list runs item ``i`` on thread ``i mod p``; every
    :class:`SuperstepRecord` is built here.  :meth:`speculate` is the one
    speculate/detect/retry loop of the superstep engines (Greedy-FF,
    vertex-centric shuffling, Recoloring and partial D2); engines without
    a retry loop (JP, Sched-Rev, color-centric shuffling, Louvain, the
    multicolor solver) drive their own passes and only use the accounting.
    """

    def __init__(self, num_threads: int, *, algorithm: str = ""):
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = int(num_threads)
        self.trace = ExecutionTrace(num_threads=self.num_threads, algorithm=algorithm)
        #: Round at which :meth:`speculate`'s watchdog fired, else None.
        self.watchdog_round: int | None = None

    def ticks(self, items: np.ndarray, width: int | None = None):
        """Yield ``(tick_index, batch)`` slices of at most *width* items.

        *width* defaults to the thread count.  Item ``batch[j]`` runs on
        thread *j*; all of a batch is concurrent.
        """
        p = self.num_threads if width is None else width
        items = np.asarray(items)
        for t in range(0, items.shape[0], p):
            yield t // p, items[t : t + p]

    def new_superstep(self) -> SuperstepRecord:
        """Fresh, zeroed instrumentation record for the next superstep."""
        return SuperstepRecord(work_per_thread=np.zeros(self.num_threads))

    def charge(self, record: SuperstepRecord, thread: int, degree: int) -> None:
        """Charge one vertex of the given degree to *thread*."""
        units = degree + VERTEX_OVERHEAD
        record.work_per_thread[thread] += units
        record.max_item_work = max(record.max_item_work, units)
        record.items += 1

    def charge_cyclic(self, record: SuperstepRecord, degrees, width: int | None = None) -> None:
        """Charge item *i* of *degrees* to thread ``i mod width``.

        *width* defaults to the thread count.  Each item costs ``degree +
        VERTEX_OVERHEAD`` units, exactly as :meth:`charge`; a degree of
        ``1 - VERTEX_OVERHEAD`` prices an O(1) skip at one unit.  One call
        charges a round's ticks of width *w* (item *j* of each tick on
        thread *j*) or a detection scan over a whole work list.
        """
        units = np.asarray(degrees, dtype=np.int64) + VERTEX_OVERHEAD
        m = units.shape[0]
        if m == 0:
            return
        p = self.num_threads if width is None else width
        record.work_per_thread[:p] += np.bincount(np.arange(m) % p, weights=units,
                                                  minlength=p)
        record.max_item_work = max(record.max_item_work, int(units.max()))
        record.items += m

    def charge_bulk(self, record: SuperstepRecord, items: int, unit_cost: float = 1.0) -> None:
        """Charge *items* uniform work items spread evenly over all threads.

        Used for data-parallel sweeps with O(1) per-item cost (e.g.
        gathering the members of over-full bins) where itemizing the loop
        in Python would cost more than it informs.
        """
        if items < 0:
            raise ValueError(f"items must be >= 0, got {items}")
        if items == 0:
            return
        p = self.num_threads
        per, extra = divmod(items, p)
        record.work_per_thread += per * unit_cost
        if extra:
            record.work_per_thread[:extra] += unit_cost
        record.max_item_work = max(record.max_item_work, unit_cost)
        record.items += items

    def charge_serial(self, units: float) -> None:
        """Charge work executed in a serial section."""
        self.trace.serial_work += units

    def speculate(self, work_list: np.ndarray, tick, detect, *, rec, max_rounds: int,
                  state=(), plan=None, patience: int | None = None, name: str = "",
                  begin=None) -> int:
        """Run speculate/detect/retry rounds until *work_list* drains.

        Returns the number of rounds.  Each round is one superstep:

        1. ``begin(work_list, record)``, if given, sees the round-start state;
        2. the work list runs in ticks of width *p*: ``tick(batch, record)``
           picks each item's color against the tick-start snapshot, commits
           at the tick boundary and returns the items' degrees, charged
           item *j* of each tick on thread *j*;
        3. ``detect(work_list, record)`` returns ``(retry, scanned)`` — the
           next round's work list and the degrees of the items its scan
           touched, charged cyclically over all threads.

        The width drops to 1 — one thread cannot race with itself — past
        *max_rounds* or once a :class:`~repro.resilience.ConvergenceWatchdog`
        (named *name*; ``patience=None`` runs without one) sees the retry
        list stop shrinking; its firing round lands in
        :attr:`watchdog_round`.  A round that *plan* sticks loses its
        commits: the arrays in *state* roll back to their round-start
        contents and the whole work list retries, unscanned.
        """
        from ..resilience.watchdog import ConvergenceWatchdog

        watchdog = (None if patience is None else
                    ConvergenceWatchdog(patience, recorder=rec, algorithm=name))
        rounds = 0
        while work_list.shape[0]:
            rounds += 1
            stick = plan is not None and plan.stick_active(rounds - 1)
            if stick:
                saved = [a.copy() for a in state]
                if rec.enabled:
                    rec.event("fault_injected", fault="stick", round=rounds - 1)
            fired = watchdog is not None and watchdog.fired
            width = 1 if fired or rounds > max_rounds else self.num_threads
            record = self.new_superstep()
            if begin is not None:
                begin(work_list, record)
            costs = [tick(batch, record) for _, batch in self.ticks(work_list, width)]
            self.charge_cyclic(record, np.concatenate(costs), width)
            if stick:
                for a, before in zip(state, saved):
                    a[:] = before
                retry = work_list
            else:
                retry, scanned = detect(work_list, record)
                self.charge_cyclic(record, scanned)
            record.conflicts = int(retry.shape[0])
            self.trace.add(record)
            work_list = retry
            if watchdog is not None:
                watchdog.observe(int(work_list.shape[0]))
        if watchdog is not None and watchdog.fired:
            self.watchdog_round = watchdog.fired_round
        return rounds

    def finish(self, rec, **fields) -> dict:
        """Surface the trace on *rec* and build the coloring's ``meta``.

        ``{"trace": ..., **fields, **summary}``, plus ``watchdog_round``
        when :meth:`speculate`'s watchdog fired.
        """
        self.trace.record_to(rec)
        meta = {"trace": self.trace, **fields, **self.trace.summary()}
        if self.watchdog_round is not None:
            meta["watchdog_round"] = self.watchdog_round
        return meta
