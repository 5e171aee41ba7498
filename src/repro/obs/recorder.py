"""Structured metrics collection: counters, gauges, phase timers, events.

The :class:`Recorder` is the single sink every instrumented code path
writes to.  It collects three kinds of data:

- **events** — ordered dicts (``seq``, ``t`` seconds since the recorder
  was created, ``kind``, plus free-form fields) appended by
  :meth:`Recorder.event`; the per-round / per-superstep records of the
  coloring pipelines all arrive this way;
- **counters** — monotonically accumulated totals (moves, conflicts,
  supersteps) via :meth:`Recorder.count`;
- **gauges** — last-write-wins values (final RSD, color count) via
  :meth:`Recorder.gauge`.

:meth:`Recorder.phase` is a re-entrant context manager that times a named
section; phases nest, events emitted inside a phase carry the full
``outer/inner`` path, and per-path wall-time totals accumulate in
``phase_seconds``.  Each thread nests on its own phase stack.

A component that reports its own counts (the serving layer's ``stats()``)
keeps them in one :class:`Counters` map that mirrors every add into a
recorder, so each event is counted once.

The default sink everywhere is the module-level :data:`NULL`
:class:`NullRecorder`, whose methods are empty — instrumented hot paths
guard any non-trivial metric computation (an RSD, a bincount) behind
``recorder.enabled`` so an un-instrumented run does no extra work.

A recorder can also be *installed* process-wide (:func:`install`, or the
:func:`recording` context manager); :func:`as_recorder` resolves an
explicit ``recorder=`` argument first, then the installed recorder, then
:data:`NULL`.  The CLI's ``--trace`` flag uses installation so that deep
call chains (the experiment functions) need no recorder plumbing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = [
    "NULL",
    "Counters",
    "NullRecorder",
    "Recorder",
    "as_recorder",
    "install",
    "installed",
    "recording",
]


class NullRecorder:
    """Zero-overhead no-op sink; the default for every instrumented path."""

    __slots__ = ()
    enabled = False

    def event(self, kind: str, **fields) -> None:
        pass

    def count(self, name: str, value: int | float = 1) -> None:
        pass

    def gauge(self, name: str, value) -> None:
        pass

    @contextmanager
    def phase(self, name: str):
        yield self


#: Shared no-op recorder; safe to use from any thread (it holds no state).
NULL = NullRecorder()


class Recorder:
    """Collect structured events, counters, gauges, and phase timings.

    Purely observational: attaching a recorder never changes the results
    of the instrumented computation (the test-suite checks colorings are
    identical with and without one).

    Everything is thread-safe — the serving layer's worker pool counts
    cache hits and job completions from several threads into one
    recorder.  :meth:`phase` nests on a per-thread stack, so concurrent
    threads each record their own paths, and an event carries the path
    of the thread that emitted it.
    """

    enabled = True

    def __init__(self, *, clock=time.perf_counter):
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        self._lock = threading.RLock()
        self._local = threading.local()  # .stack: this thread's phase names
        self.events: list[dict] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, object] = {}
        self.phase_seconds: dict[str, float] = {}

    # -- events ---------------------------------------------------------
    def event(self, kind: str, **fields) -> dict:
        """Append one structured event and return it.

        Every event carries ``seq`` (1-based order), ``t`` (seconds since
        the recorder was created), ``kind``, and — when emitted inside a
        :meth:`phase` — the full ``phase`` path.
        """
        with self._lock:
            self._seq += 1
            ev: dict = {"seq": self._seq, "t": self._clock() - self._t0, "kind": kind}
            stack = getattr(self._local, "stack", None)
            if stack:
                ev["phase"] = "/".join(stack)
            ev.update(fields)
            self.events.append(ev)
        return ev

    def events_of(self, kind: str) -> list[dict]:
        """All recorded events of the given kind, in emission order."""
        return [ev for ev in self.events if ev["kind"] == kind]

    # -- scalars --------------------------------------------------------
    def count(self, name: str, value: int | float = 1) -> None:
        """Add *value* to the named monotone counter (thread-safe)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value) -> None:
        """Set the named gauge to *value* (last write wins; thread-safe)."""
        with self._lock:
            self.gauges[name] = value

    # -- phases ---------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Time a named section; nests per thread, events inside carry the path."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(name)
        path = "/".join(stack)
        self.event("phase_start", name=path)
        start = self._clock()
        try:
            yield self
        finally:
            elapsed = self._clock() - start
            self.event("phase_end", name=path, seconds=elapsed)
            stack.pop()
            with self._lock:
                self.phase_seconds[path] = self.phase_seconds.get(path, 0.0) + elapsed

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dict of everything collected so far (consistent view)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "phase_seconds": dict(self.phase_seconds),
                "num_events": len(self.events),
            }

    def summary(self) -> str:
        """Human-readable run summary: phases, counters, gauges."""
        lines = [f"== run summary ({len(self.events)} events) =="]
        if self.phase_seconds:
            lines.append("phases:")
            for path, secs in sorted(self.phase_seconds.items()):
                lines.append(f"  {path:<40} {secs:10.4f}s")
        if self.counters:
            lines.append("counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name:<40} {value:>10g}")
        if self.gauges:
            lines.append("gauges:")
            for name, value in sorted(self.gauges.items()):
                lines.append(f"  {name:<40} {value}")
        return "\n".join(lines)


class Counters:
    """A component's named monotone counts, mirrored into a recorder.

    The declared *names* start at 0; :meth:`add` of any other name raises
    ``KeyError``.  Every add also counts into the recorder resolved from
    *recorder* (see :func:`as_recorder`) as ``f"{prefix}.{name}"``, so
    the component's ``stats()`` and a trace read the same count.
    """

    def __init__(self, prefix: str, names, recorder=None):
        self._rec = as_recorder(recorder)
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)
        self._names = {name: f"{prefix}.{name}" for name in self._values}

    def add(self, name: str, value: int = 1) -> int:
        """Add *value* to *name* (thread-safe); returns the new total."""
        with self._lock:
            total = self._values[name] = self._values[name] + value
        self._rec.count(self._names[name], value)
        return total

    def snapshot(self) -> dict[str, int]:
        """Every count, as a plain dict."""
        with self._lock:
            return dict(self._values)


# ----------------------------------------------------------------------
# process-wide installation
# ----------------------------------------------------------------------
_installed: Recorder | None = None


def install(recorder: Recorder | None) -> None:
    """Install *recorder* as the process-wide default (``None`` removes it)."""
    global _installed
    _installed = recorder


def installed() -> Recorder | None:
    """The currently installed recorder, if any."""
    return _installed


@contextmanager
def recording(recorder: Recorder | None = None):
    """Install a recorder for the duration of the block; yields it.

    Creates a fresh :class:`Recorder` when called without one.  The
    previously installed recorder (usually none) is restored on exit.
    """
    rec = recorder if recorder is not None else Recorder()
    previous = _installed
    install(rec)
    try:
        yield rec
    finally:
        install(previous)


def as_recorder(recorder) -> Recorder | NullRecorder:
    """Resolve an optional ``recorder=`` argument to a usable sink.

    Explicit argument first, then the installed process-wide recorder,
    then the no-op :data:`NULL`.
    """
    if recorder is not None:
        return recorder
    if _installed is not None:
        return _installed
    return NULL
