"""Supervision and graceful degradation for the serving stack.

Three pieces, each usable alone, composed by
:class:`~repro.serve.service.ColoringService` when built with
``supervise=True``:

- :class:`CircuitBreaker` — a classic closed → open → half-open breaker
  with an injectable clock.  ``fail_threshold`` consecutive failures
  open it; after ``cooldown_s`` one probe is allowed through, and its
  outcome closes the breaker or re-arms the cooldown.
- :class:`DegradingBackend` — the degradation ladder: an ordered list of
  :class:`~repro.serve.backends.ExecutionBackend` rungs (canonically
  ``ShardedBackend → InlineBackend → SequentialBackend``), each behind
  its own breaker.  A job runs on the first healthy rung; a rung that
  raises trips its breaker and the job falls through to the next —
  latency and parallelism degrade, correctness never does.  The last
  rung is always attempted regardless of breaker state (shedding every
  rung would fail jobs a sequential run could still serve), and every
  downgrade is stamped into the job's ``meta`` and counted in
  ``/stats``.
- :class:`Supervisor` — a background thread that sweeps expired
  deadlines out of the queue and restarts a died pump thread.

A stalled mp block is not the supervisor's to catch: the round driver's
timeout, retry and in-process salvage handle it inside the job (see
:func:`repro.parallel.mp.run_rounds`).  See DESIGN.md §15.
"""

from __future__ import annotations

import threading
import time

from ..obs import as_recorder
from . import backends as _backends
from .backends import ExecutionBackend, InlineBackend

__all__ = ["CircuitBreaker", "DegradingBackend", "SequentialBackend",
           "Supervisor"]


class CircuitBreaker:
    """Closed → open → half-open failure gate with an injectable clock.

    ``fail_threshold`` consecutive :meth:`record_failure` calls open the
    breaker; while open, :meth:`allow` answers False.  Once
    ``cooldown_s`` elapses the breaker is *half-open*: :meth:`allow`
    lets a probe through, and the probe's outcome either closes the
    breaker (:meth:`record_success`) or re-arms the cooldown from now
    (:meth:`record_failure`).  ``clock`` defaults to
    :func:`time.monotonic`; tests inject a fake to step time explicitly.
    Thread-safe — scheduler worker threads share one breaker per rung.
    """

    def __init__(self, name: str, *, fail_threshold: int = 3,
                 cooldown_s: float = 30.0, clock=time.monotonic):
        if fail_threshold < 1:
            raise ValueError(
                f"fail_threshold must be >= 1, got {fail_threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0, got {cooldown_s}")
        self.name = name
        self.fail_threshold = int(fail_threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0  # consecutive
        self._opened_at: float | None = None
        self._trips = 0

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half-open`` (computed lazily)."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether a call may proceed (closed, or a half-open probe)."""
        with self._lock:
            return self._state_locked() != "open"

    def record_success(self) -> None:
        """A call succeeded: close the breaker, reset the streak."""
        with self._lock:
            self._failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        """A call failed: extend the streak, (re)open past the threshold."""
        with self._lock:
            self._failures += 1
            if self._failures >= self.fail_threshold:
                if self._opened_at is None:
                    self._trips += 1
                # re-arm from *now*: a failed half-open probe waits a
                # full cooldown again instead of hammering a sick rung
                self._opened_at = self._clock()

    def stats(self) -> dict:
        with self._lock:
            return {"state": self._state_locked(),
                    "failures": self._failures,
                    "trips": self._trips,
                    "fail_threshold": self.fail_threshold,
                    "cooldown_s": self.cooldown_s}


class SequentialBackend(ExecutionBackend):
    """Last-resort rung: run the job in ``sequential`` mode, one thread.

    The slowest but most dependable way to serve a coloring — no shards,
    no threads.  A job whose config already is sequential
    runs unchanged; anything else is rewritten, the downgrade is
    stamped into ``meta`` and — because the coloring may differ from
    what the job's content key promises (the key hashes the *requested*
    mode) — the result is flagged ``no_cache`` so it is served to this
    job but never published under that key.
    """

    name = "sequential"

    def run(self, job):
        config = job.config
        if config.mode != "sequential" or config.threads != 1:
            config = config.replace(mode="sequential", threads=1)
            job.meta["degraded_mode"] = "sequential"
            job.meta["no_cache"] = True
        # via the module attribute so tests monkeypatching
        # backends.execute observe this path too
        return _backends.execute(job.graph, config, initial=job.initial)


class DegradingBackend(ExecutionBackend):
    """The degradation ladder: ordered rungs, each behind a breaker.

    ``run`` walks the rungs top down.  A rung whose breaker is open is
    skipped (counted under ``rung_skips``) — except the last rung, which
    is always attempted: a fully-shed ladder would fail jobs the
    sequential rung could still serve.  A rung that raises records a
    breaker failure and the job falls through; a rung that succeeds
    records a breaker success, and when the job landed below the top
    rung the downgrade is stamped into ``job.meta["degraded_to"]`` /
    ``meta["downgrades"]`` and counted.  Exceptions surface only when
    *every* attempted rung raised (the last one's exception).
    """

    name = "degrading"

    def __init__(self, rungs: list[ExecutionBackend], *,
                 breakers: list[CircuitBreaker] | None = None,
                 fail_threshold: int = 3, cooldown_s: float = 30.0,
                 recorder=None):
        if not rungs:
            raise ValueError("DegradingBackend needs at least one rung")
        self.rungs = list(rungs)
        if breakers is None:
            breakers = [CircuitBreaker(r.name, fail_threshold=fail_threshold,
                                       cooldown_s=cooldown_s)
                        for r in self.rungs]
        if len(breakers) != len(self.rungs):
            raise ValueError(f"{len(self.rungs)} rungs need as many "
                             f"breakers, got {len(breakers)}")
        self.breakers = list(breakers)
        self._rec = as_recorder(recorder)
        self._lock = threading.Lock()
        self._downgrades = 0
        self._rung_skips = 0

    @classmethod
    def ladder(cls, backend: ExecutionBackend, **kwargs) -> "DegradingBackend":
        """The canonical ladder under *backend*:
        ``backend → InlineBackend → SequentialBackend`` (deduplicated —
        an inline top rung is not repeated).  A backend that already is
        a ladder passes through unchanged."""
        if isinstance(backend, cls):
            return backend
        rungs: list[ExecutionBackend] = [backend]
        if not isinstance(backend, InlineBackend):
            rungs.append(InlineBackend())
        rungs.append(SequentialBackend())
        return cls(rungs, **kwargs)

    @property
    def degraded(self) -> bool:
        """True while any rung's breaker is not closed (feeds /healthz)."""
        return any(b.state != "closed" for b in self.breakers)

    def run(self, job):
        last = len(self.rungs) - 1
        last_exc: Exception | None = None
        attempted: list[str] = []
        for i, (rung, breaker) in enumerate(zip(self.rungs, self.breakers)):
            if i != last and not breaker.allow():
                with self._lock:
                    self._rung_skips += 1
                self._rec.count("serve.ladder.rung_skips")
                continue
            try:
                result = rung.run(job)
            except Exception as exc:  # noqa: BLE001 - fall through the ladder
                breaker.record_failure()
                attempted.append(rung.name)
                last_exc = exc
                self._rec.event("serve_rung_failed", job=job.id,
                                rung=rung.name,
                                error=f"{type(exc).__name__}: {exc}")
                continue
            breaker.record_success()
            if i > 0 or attempted:
                job.meta["degraded_to"] = rung.name
                job.meta["downgrades"] = attempted or [
                    r.name for r in self.rungs[:i]]
                with self._lock:
                    self._downgrades += 1
                self._rec.count("serve.ladder.downgrades")
                self._rec.event("serve_job_degraded", job=job.id,
                                to=rung.name, past=job.meta["downgrades"])
            return result
        assert last_exc is not None  # the last rung is always attempted
        raise last_exc

    def stats(self) -> dict:
        with self._lock:
            return {
                "backend": self.name,
                "rungs": [r.name for r in self.rungs],
                "downgrades": self._downgrades,
                "rung_skips": self._rung_skips,
                "breakers": {b.name: b.stats() for b in self.breakers},
                "primary": self.rungs[0].stats(),
            }


class Supervisor:
    """Background health loop over a :class:`ColoringService`.

    Every ``interval`` seconds one :meth:`tick` runs:

    1. **deadlines** — :meth:`SubmissionQueue.expire_deadlines` fails
       queued jobs whose budget elapsed, even when the pump is wedged;
    2. **pump** — a service whose pump thread died while wanted is
       restarted.

    A tick that raises is counted (``supervisor_errors``) and the loop
    keeps running — the supervisor must outlive everything it watches.
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
        self._ticks = 0
        self._stats = {"ticks": 0, "pump_restarts": 0,
                       "deadline_expired": 0, "supervisor_errors": 0}

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
                with self._lock:
                    self._stats["supervisor_errors"] += 1
                self._rec.event("serve_supervisor_error",
                                error=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def tick(self) -> dict:
        """One supervision pass; returns what it observed/did (tests)."""
        with self._lock:
            idx = self._ticks
            self._ticks += 1
            self._stats["ticks"] += 1
        return {"tick": idx, "expired": self._expire_deadlines(),
                "pump_restarted": self._check_pump()}

    def _expire_deadlines(self) -> int:
        expired = self.service.queue.expire_deadlines()
        if expired:
            with self._lock:
                self._stats["deadline_expired"] += expired
        return expired

    def _check_pump(self) -> bool:
        service = self.service
        if not getattr(service, "_pump_wanted", False) or service.pump_alive:
            return False
        service.start()
        with self._lock:
            self._stats["pump_restarts"] += 1
        self._rec.count("serve.supervisor.pump_restarts")
        self._rec.event("serve_pump_restart")
        return True

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {**self._stats, "interval_s": self.interval,
                    "running": self.running}
