"""Parallel balanced coloring on a simulated shared-memory machine.

CPython's GIL rules out genuine OpenMP-style shared-memory speedups, so
this package substitutes a **tick-synchronous simulator** (see DESIGN.md
§2): *p* simulated threads each process one work item per tick; reads of
the shared ``colors`` array observe the state at the start of the tick
(plain loads race), while bin-size counters are updated with atomic
semantics (visible within the tick, like hardware fetch-and-add).  The
speculation-and-iteration framework of the paper's Algorithms 2 and 5 runs
unchanged on top: conflicts between same-tick adjacent vertices are
detected in a separate phase and retried in the next round.  One driver,
:meth:`~repro.parallel.engine.TickMachine.speculate`, runs those rounds
for every speculative engine.

Every algorithm returns its :class:`~repro.parallel.engine.ExecutionTrace`
(work per thread, atomics, conflicts, barriers, per superstep) in the
coloring's ``meta``; :mod:`repro.machine` prices those traces into
estimated run times on the paper's two platforms.

With ``num_threads=1`` every algorithm is bit-identical to its sequential
reference in :mod:`repro.coloring` — the test-suite checks this.

:mod:`repro.parallel.mp` additionally runs the speculative rounds for
real, on a thread team whose block sweeps are compiled calls that
release the GIL (partition, color, resolve boundary conflicts).
"""

from .engine import ExecutionTrace, SuperstepRecord, TickMachine
from .greedy import parallel_greedy_ff
from .shuffled import parallel_shuffle_balance
from .scheduled import parallel_scheduled_balance
from .recolor import parallel_recoloring
from .incremental import parallel_incremental_recolor
from .partition import bfs_partition, block_partition, cut_edges, random_partition

__all__ = [
    "TickMachine",
    "ExecutionTrace",
    "SuperstepRecord",
    "parallel_greedy_ff",
    "parallel_shuffle_balance",
    "parallel_scheduled_balance",
    "parallel_recoloring",
    "parallel_incremental_recolor",
    "block_partition",
    "random_partition",
    "bfs_partition",
    "cut_edges",
]
