"""repro — Balanced graph coloring for parallel computing applications.

A from-scratch Python reproduction of Lu, Halappanavar, Chavarría-Miranda,
Gebremedhin & Kalyanaraman, *Balanced Coloring for Parallel Computing
Applications*, IPDPS 2015.

Subpackages
-----------
``repro.graph``
    CSR graph substrate, generators, dataset stand-ins.
``repro.coloring``
    Sequential balanced-coloring strategies (the paper's Table I).
``repro.kernels``
    Backend-dispatched compute kernels behind the coloring hot paths:
    ``reference`` runs the Python oracles, any other backend a compiled C
    loop when the library loads, else the same oracle, with bit-identical
    results.
``repro.parallel``
    Tick-synchronous simulated shared-memory engine and the parallel
    variants of every strategy (Algorithms 2–5), plus real
    speculative rounds on a thread team (``mp`` mode).
``repro.machine``
    Analytic machine models (4-socket Xeon, Tilera TileGx36 with a 2-D
    mesh NoC) that price execution traces into estimated run times.
``repro.community``
    Louvain community detection (Grappolo-style), the paper's motivating
    application.
``repro.experiments``
    Harness regenerating every table and figure of the evaluation.
``repro.obs``
    Structured observability: recorders, phase timers, superstep traces,
    and a JSON-lines event exporter threaded through every pipeline.
``repro.run``
    Unified execution layer: ``execute(graph, RunConfig(...))`` runs any
    Table-I strategy in any supported mode (sequential / superstep / mp)
    through one pipeline — seeding, backend resolution, balance stats,
    and machine-time pricing included.
``repro.serve``
    Coloring-as-a-service on top of ``repro.run``: bounded job queue
    with admission control, batching scheduler with in-flight dedup, a
    content-addressed result cache (LRU + disk spill), and a stdlib
    HTTP front (``python -m repro serve`` / ``submit``).
"""

from .graph import CSRGraph, load_dataset
from . import kernels, obs
from .coloring import (
    Coloring,
    balance_coloring,
    balance_report,
    color_and_balance,
    greedy_coloring,
)
from .run import RunConfig, RunResult, execute

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "load_dataset",
    "Coloring",
    "greedy_coloring",
    "balance_coloring",
    "color_and_balance",
    "balance_report",
    "RunConfig",
    "RunResult",
    "execute",
    "kernels",
    "obs",
    "__version__",
]
