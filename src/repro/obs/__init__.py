"""Structured observability for the coloring pipelines.

Counters, gauges, phase timers, and ordered events collected by a
:class:`Recorder` with a zero-overhead no-op default (:data:`NULL`);
a JSON-lines exporter (:func:`write_jsonl` / :func:`read_jsonl`); and a
bridge (:func:`record_trace`) that surfaces the tick machine's
:class:`~repro.parallel.engine.ExecutionTrace` through the same event
API.  See DESIGN.md §8 for the event schema.

Every public coloring entry point accepts an optional ``recorder=``; the
CLI's ``--trace out.jsonl`` installs one process-wide and archives the
stream::

    from repro.obs import Recorder, write_jsonl
    rec = Recorder()
    coloring = greedy_coloring(graph, recorder=rec)
    write_jsonl(rec, "run.jsonl")
    print(rec.summary())
"""

from .bridge import record_trace
from .export import json_ready, read_jsonl, write_jsonl
from .recorder import (
    NULL,
    Counters,
    NullRecorder,
    Recorder,
    as_recorder,
    install,
    installed,
    recording,
)

__all__ = [
    "NULL",
    "Counters",
    "NullRecorder",
    "Recorder",
    "as_recorder",
    "install",
    "installed",
    "json_ready",
    "read_jsonl",
    "record_trace",
    "recording",
    "write_jsonl",
]
