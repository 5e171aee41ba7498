"""Convergence watchdog for the speculate-and-resolve superstep loops.

The superstep round driver
(:meth:`repro.parallel.engine.TickMachine.speculate`) iterates "color
speculatively, detect conflicts, retry the losers" until the work list
drains.  The paper observes the retry list shrinks geometrically
("typically a small constant" of rounds); the driver nevertheless
carries a ``max_rounds`` cap after which it drops to one thread.  That
cap is a blunt instrument: a pathological (or fault-injected) run spins
through hundreds of no-progress rounds before reaching it, and nothing
reports that the cap did the saving.

The :class:`ConvergenceWatchdog` watches the work-list size per round and
fires as soon as it has failed to shrink for ``patience`` consecutive
rounds — at which point the driver degrades the loop to sequential
execution (one thread cannot race with itself, so progress is
guaranteed) and the event is emitted to the run's
:class:`repro.obs.Recorder`.  The driver constructs one per run for
every engine that takes a ``watchdog_patience``.
"""

from __future__ import annotations

__all__ = ["DEFAULT_PATIENCE", "ConvergenceWatchdog"]

#: Rounds without work-list shrinkage before the watchdog fires.  Healthy
#: speculation shrinks the retry list every round (the lowest-id vertex of
#: every conflict keeps its color), so even small patience values never
#: trigger on fault-free runs; the default leaves generous margin.
DEFAULT_PATIENCE = 4


class ConvergenceWatchdog:
    """Detect stuck work lists and latch a sequential-fallback signal.

    Call :meth:`observe` once per round with the size of the *next*
    round's work list.  The first observation seeds the baseline; after
    ``patience`` consecutive observations without a strict decrease the
    watchdog fires, emits one ``watchdog_fallback`` event on *recorder*,
    and :attr:`fired` latches True (further observations are no-ops).
    """

    def __init__(self, patience: int = DEFAULT_PATIENCE, *,
                 recorder=None, algorithm: str = ""):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        from ..obs import as_recorder

        self.patience = int(patience)
        self.algorithm = algorithm
        self.fired = False
        self.fired_round = -1
        self._rec = as_recorder(recorder)
        self._best: int | None = None
        self._streak = 0
        self._rounds = 0

    def observe(self, work_size: int) -> bool:
        """Record one round's pending work; True once the watchdog fired."""
        self._rounds += 1
        if self.fired or work_size == 0:
            return self.fired
        if self._best is None or work_size < self._best:
            self._best = work_size
            self._streak = 0
            return False
        self._streak += 1
        if self._streak >= self.patience:
            self.fired = True
            self.fired_round = self._rounds
            if self._rec.enabled:
                self._rec.event("watchdog_fallback", algorithm=self.algorithm,
                                round=self._rounds, pending=int(work_size),
                                patience=self.patience)
        return self.fired
