"""Resilient execution: fault injection, convergence watchdogs, self-healing.

The paper's speculation-and-iteration framework assumes every round
completes and every proposal arrives.  This package drops that assumption
for every execution path behind :func:`repro.run.execute`:

- :mod:`repro.resilience.faults` — a deterministic, seeded
  :class:`FaultPlan` that stalls a chosen mp block, corrupts a
  block's proposals, serves stale snapshots, or wastes superstep rounds,
  replayable bit-identically (CLI ``--fault-plan``, env
  ``REPRO_FAULT_PLAN``);
- :mod:`repro.resilience.watchdog` — the :class:`ConvergenceWatchdog`
  the tick-machine loops use to detect stuck work lists and degrade to
  sequential execution instead of spinning to ``max_rounds``;
- :mod:`repro.resilience.heal` — post-run invariant checking
  (:func:`check_invariants`) and the ``on_failure`` policies
  (``raise`` / ``repair`` / ``fallback``) applied by the run pipeline,
  with :func:`repair_coloring` re-coloring only the violating vertices.

See DESIGN.md §10 for the fault model and the determinism guarantees.
"""

from .faults import (
    FAULT_KINDS,
    PROCESS_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    NO_FAULTS,
    resolve_fault_plan,
)
from .heal import (
    ON_FAILURE_POLICIES,
    InvariantViolationError,
    Violation,
    check_invariants,
    heal,
    repair_coloring,
    violating_vertices,
)
from .watchdog import DEFAULT_PATIENCE, ConvergenceWatchdog

__all__ = [
    "DEFAULT_PATIENCE",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InvariantViolationError",
    "NO_FAULTS",
    "ON_FAILURE_POLICIES",
    "PROCESS_FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "ConvergenceWatchdog",
    "Violation",
    "check_invariants",
    "heal",
    "repair_coloring",
    "resolve_fault_plan",
    "violating_vertices",
]
