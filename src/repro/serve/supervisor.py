"""Supervision for the serving stack: the deadline sweep.

:class:`~repro.serve.service.ColoringService` built with
``supervise=True`` attaches a :class:`Supervisor`, a background thread
that sweeps expired deadlines out of the queue even while the pump is
busy with a long round.

A stalled mp block is not the supervisor's to catch: the round driver's
timeout, retry and in-process salvage handle it inside the job (see
:func:`repro.parallel.mp.run_rounds`).  See DESIGN.md §15.
"""

from __future__ import annotations

import threading

from ..obs import Counters, as_recorder

__all__ = ["Supervisor"]


class Supervisor:
    """Background deadline sweep over a :class:`ColoringService`.

    Every ``interval`` seconds one :meth:`tick` runs
    :meth:`SubmissionQueue.expire_deadlines`, which fails queued jobs
    whose budget elapsed, even when the pump is wedged.

    A tick that raises is counted (``supervisor_errors``) and the loop
    keeps running — the supervisor must outlive everything it watches.
    The counts are mirrored into the recorder as
    ``serve.supervisor.<stats key>``.
    """

    def __init__(self, service, *, interval: float = 0.5, recorder=None):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.service = service
        self.interval = float(interval)
        self._rec = as_recorder(recorder)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._counts = Counters("serve.supervisor", (
            "ticks", "deadline_expired", "supervisor_errors"), self._rec)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the supervision thread (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-supervisor", daemon=True)
            self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop and join the supervision thread (idempotent)."""
        with self._lock:
            thread, self._thread = self._thread, None
        self._stop.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                self._counts.add("supervisor_errors")
                self._rec.event("serve_supervisor_error",
                                error=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def tick(self) -> dict:
        """One supervision pass; returns what it observed/did (tests)."""
        idx = self._counts.add("ticks") - 1
        expired = self.service.queue.expire_deadlines()
        if expired:
            self._counts.add("deadline_expired", expired)
        return {"tick": idx, "expired": expired}

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {**self._counts.snapshot(), "interval_s": self.interval,
                "running": self.running}
