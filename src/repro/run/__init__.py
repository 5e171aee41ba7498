"""Unified execution layer: one front door for every (strategy, mode) pair.

The paper's point is comparing the *same* Table-I heuristics across
execution regimes; this package is the API that makes that comparison a
one-liner instead of three different call conventions::

    from repro.graph import load_dataset
    from repro.run import RunConfig, execute

    g = load_dataset("cnr", scale=0.2)
    r = execute(g, RunConfig("vff", mode="superstep", threads=8,
                             machine="tilegx36", seed=0))
    print(r.summary())          # C, RSD%, supersteps, model ms, wall s
    print(r.balance.rsd_percent, r.machine_time.total_s)

See DESIGN.md §9 for the config/result schema and the mode dispatch
table; the CLI counterpart is ``python -m repro run``.
"""

from .config import RunConfig, RunResult
from .pipeline import execute, supported_runs
from .mutate import mutation_config

__all__ = ["RunConfig", "RunResult", "execute", "supported_runs",
           "mutation_config"]
