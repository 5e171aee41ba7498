"""Shuffling with scheduled moves (Sched-Rev / Sched-Fwd, Algorithm 4).

Two phases:

1. **Planning** (serial in the paper too): walk over-full bins in
   increasing color index; for each, select its surplus vertices and assign
   them to under-full bins — filled in *decreasing* color index for
   Sched-Rev (the paper's recommended variant) or increasing for the
   Sched-Fwd ablation — such that no planned bin exceeds γ.
2. **Move** (the parallel part): each planned move ``v → k`` commits only
   if *k* is still permissible for *v*; otherwise the vertex silently stays
   put.  No synchronization on bin sizes is needed, which is exactly why
   this scheme is the fastest in the paper — and why it may terminate
   without reaching balance.

The reverse fill order matters because of two Greedy-FF properties the
paper leans on: class sizes tend to *decrease* with color index, and a
vertex with color j has neighbors in every class below j (incidence
property).  Filling high-index (small, "far") bins first keeps vertices
from one source bin co-located and away from their neighbors' colors,
minimizing rejected moves; the Sched-Fwd ablation shows the conflict rate
climbing when this is ignored.

The move phase here runs :func:`repro.kernels.sched_commit`: a compiled C
loop when the library loaded, else (and under the ``reference`` backend)
the bit-identical Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..graph.csr import CSRGraph
from .balance import gamma as _gamma
from .types import Coloring

__all__ = ["MovePlan", "plan_moves", "scheduled_balance"]


@dataclass(frozen=True)
class MovePlan:
    """Planned relocation batch: ``vertices[i]`` is destined for ``targets[i]``."""

    vertices: np.ndarray
    targets: np.ndarray
    gamma: float

    def __len__(self) -> int:
        return self.vertices.shape[0]


def plan_moves(initial: Coloring, *, reverse: bool = True) -> MovePlan:
    """Phase 1 of Algorithm 4: statically schedule over→under-full moves.

    *reverse* selects the under-full fill order (True = Sched-Rev).
    Surplus vertices are taken from the tail of each over-full class
    (arbitrary per the paper); planned bin occupancies never exceed γ.
    """
    n = initial.num_vertices
    C = initial.num_colors
    if C == 0:
        return MovePlan(np.empty(0, np.int64), np.empty(0, np.int64), 0.0)
    g = _gamma(n, C)
    sizes = initial.class_sizes().astype(np.int64)
    over = np.nonzero(sizes > g)[0]  # increasing color index
    under = np.nonzero(sizes < g)[0]
    if not reverse:
        order_under = under  # increasing (Sched-Fwd)
    else:
        order_under = under[::-1]  # decreasing (Sched-Rev)

    capacity = np.floor(g - sizes[order_under]).astype(np.int64)
    capacity = np.maximum(capacity, 0)

    move_vs: list[np.ndarray] = []
    move_ks: list[np.ndarray] = []
    ui = 0
    for j in over:
        members = np.nonzero(initial.colors == j)[0]
        surplus = int(sizes[j] - np.floor(g))
        if surplus <= 0:
            continue
        pick = members[-surplus:]  # arbitrary subset: take the tail
        pos = 0
        while pos < pick.shape[0] and ui < order_under.shape[0]:
            if capacity[ui] == 0:
                ui += 1
                continue
            take = min(int(capacity[ui]), pick.shape[0] - pos)
            move_vs.append(pick[pos : pos + take])
            move_ks.append(np.full(take, order_under[ui], dtype=np.int64))
            capacity[ui] -= take
            pos += take
    if move_vs:
        return MovePlan(np.concatenate(move_vs), np.concatenate(move_ks), g)
    return MovePlan(np.empty(0, np.int64), np.empty(0, np.int64), g)


def scheduled_balance(
    graph: CSRGraph,
    initial: Coloring,
    *,
    reverse: bool = True,
    rounds: int = 1,
) -> Coloring:
    """Run Algorithm 4 sequentially: plan, then attempt each move once.

    ``rounds > 1`` re-plans and retries, the paper's suggested refinement
    for trading run time against residual skew.
    """
    if initial.num_vertices != graph.num_vertices:
        raise ValueError("coloring does not match graph")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    colors = initial.colors.copy()
    C = initial.num_colors
    total_attempted = 0
    total_committed = 0

    current = initial
    for _ in range(rounds):
        plan = plan_moves(current, reverse=reverse)
        if len(plan) == 0:
            break
        committed = kernels.sched_commit(graph, colors, plan.vertices, plan.targets)
        total_attempted += len(plan)
        total_committed += committed
        current = Coloring(colors.copy(), C, strategy="sched-tmp")

    return Coloring(
        colors,
        C,
        strategy="sched-rev" if reverse else "sched-fwd",
        meta={
            "attempted": total_attempted,
            "committed": total_committed,
            "rounds": rounds,
            "initial_strategy": initial.strategy,
        },
    )
