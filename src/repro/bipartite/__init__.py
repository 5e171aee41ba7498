"""Bipartite optimistic distance-2 partial coloring.

The Jacobian-compression workload of the paper's problem family: color
the rows of a sparse matrix pattern so that rows sharing a column get
distinct colors — a one-sided (partial) distance-2 coloring of the
bipartite row/column graph.  The subsystem provides:

- :class:`BipartiteGraph` — a validated bipartite view over an ordinary
  incidence :class:`~repro.graph.csr.CSRGraph` (rows first, then
  columns), with :meth:`~BipartiteGraph.from_matrix_pattern` for COO
  sparsity patterns and :meth:`~BipartiteGraph.square_cover` to turn a
  full distance-2 coloring problem on a general graph into a partial one;
- :class:`PartialD2Coloring` plus the :func:`is_partial_d2_proper` /
  :func:`assert_partial_d2_proper` verifiers (``-1`` = uncolored row);
- three engines sharing the optimistic speculate → detect → retry
  protocol: :func:`partial_d2_sequential` (one kernel sweep),
  :func:`optimistic_partial_d2` (tick-machine supersteps with an
  execution trace, watchdog and fault injection), and
  :func:`mp_partial_d2` (real concurrent blocks on the mp thread team);
- :func:`balance_partial_d2` — the one-sided analogue of
  :func:`repro.coloring.shuffle_balance`, draining over-full distance-2
  color classes toward γ without adding colors.

The ``d2``, ``d2-optimistic`` and ``d2-balanced`` strategy-registry rows
(:mod:`repro.coloring.strategies`) expose the engines through
``execute()``, the CLI and the serve layer by running them on the square
cover, where partial properness coincides with full distance-2
properness.
"""

from .balance import balance_partial_d2, d2_shuffle_drain
from .graph import BipartiteGraph
from .optimistic import (
    d2_work_units,
    mp_partial_d2,
    optimistic_partial_d2,
    partial_d2_sequential,
)
from .types import (
    PartialD2Coloring,
    assert_partial_d2_proper,
    is_partial_d2_proper,
)

__all__ = [
    "BipartiteGraph",
    "PartialD2Coloring",
    "assert_partial_d2_proper",
    "balance_partial_d2",
    "d2_shuffle_drain",
    "d2_work_units",
    "is_partial_d2_proper",
    "mp_partial_d2",
    "optimistic_partial_d2",
    "partial_d2_sequential",
]
