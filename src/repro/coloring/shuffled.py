"""Shuffling-based balancing with unscheduled moves (sequential reference).

Given an initial coloring with C classes and γ = |V|/C, vertices are moved
from over-full bins to under-full bins without ever increasing C.  The
target-bin choice rule and the traversal order give the four variants the
paper names:

- **VFF / CFF** — First-Fit target: smallest-index permissible under-full
  bin.  Best when the initial coloring is Greedy-FF, because FF's incidence
  property makes the first permissible bin a high-incidence (hence sturdy)
  target.
- **VLU / CLU** — Least-Used target: the permissible under-full bin with
  the smallest current size; oblivious to the initial color order, so
  suited to arbitrary initial colorings.

``traversal="vertex"`` processes candidates across bins (the order the
vertex-centric parallel scheme exposes); ``traversal="color"`` walks one
over-full bin at a time (the color-centric scheme).  Sequentially the two
traversals apply the same moves in different orders and reach the same
quality regime; they exist separately because their *parallel* behavior
differs (Algorithms 2 vs 3) — these functions are the ground truth the
parallel versions are tested against.

``weight="degree"`` (extension, not in the paper) balances classes by
their *total degree* instead of their cardinality.  The end application's
per-class step time is proportional to the class's edge work, not its
vertex count, so work-balanced classes equalize the actual parallel steps
— see ``ablation_work_balance`` for the measured effect.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..graph.csr import CSRGraph
from ..obs import as_recorder
from .balance import relative_std_dev
from .types import Coloring

__all__ = ["shuffle_balance"]

_CHOICES = ("ff", "lu")
_TRAVERSALS = ("vertex", "color")


def shuffle_balance(
    graph: CSRGraph,
    initial: Coloring,
    *,
    choice: str = "ff",
    traversal: str = "vertex",
    weight: str = "unit",
    backend: str | None = None,
    recorder=None,
) -> Coloring:
    """Balance *initial* by moving vertices out of over-full bins.

    Returns a proper coloring with exactly ``initial.num_colors`` colors
    whose over-full bins have been drained to γ where permissible moves
    existed.  The input coloring is not modified.  ``weight`` selects the
    balance objective: ``"unit"`` equalizes class cardinalities (the
    paper's notion); ``"degree"`` equalizes per-class total degree (edge
    work, plus one unit per vertex so isolated vertices still count).

    ``backend`` selects the drain kernel (see :mod:`repro.kernels`): the
    ``reference`` backend (the default here) is the paper's sequential
    single pass; ``vectorized`` batches moves in whole-array rounds and
    reaches the same balance regime with a different move trace.

    ``recorder`` (optional :class:`repro.obs.Recorder`) receives a
    ``drain`` phase timer, per-round ``drain_round`` events from the
    kernel (moves, live RSD of the bin sizes), and a final ``balance``
    event; attaching one never changes the result.
    """
    if choice not in _CHOICES:
        raise ValueError(f"choice must be one of {_CHOICES}, got {choice!r}")
    if traversal not in _TRAVERSALS:
        raise ValueError(f"traversal must be one of {_TRAVERSALS}, got {traversal!r}")
    if weight not in ("unit", "degree"):
        raise ValueError(f"weight must be 'unit' or 'degree', got {weight!r}")
    n = graph.num_vertices
    if initial.num_vertices != n:
        raise ValueError("coloring does not match graph")
    C = initial.num_colors
    colors = initial.colors.copy()
    if weight == "unit":
        vertex_w = np.ones(n, dtype=np.float64)
    else:
        vertex_w = graph.degrees.astype(np.float64) + 1.0
    g = float(vertex_w.sum()) / C if C else 0.0
    sizes = np.zeros(C, dtype=np.float64)
    np.add.at(sizes, colors, vertex_w)

    rec = as_recorder(recorder)
    resolved = kernels.resolve_backend(backend, default="reference")
    strategy = f"{'v' if traversal == 'vertex' else 'c'}{choice}"
    with rec.phase(f"{strategy}/drain"):
        moves = kernels.shuffle_drain(
            graph,
            colors,
            sizes,
            g,
            choice=choice,
            traversal=traversal,
            vertex_w=vertex_w,
            backend=resolved,
            recorder=rec,
        )

    suffix = "" if weight == "unit" else "-work"
    result = Coloring(
        colors,
        C,
        strategy=f"{strategy}{suffix}",
        meta={"moves": moves, "gamma": g, "weight": weight,
              "initial_strategy": initial.strategy, "backend": resolved},
    )
    if rec.enabled:
        rsd = relative_std_dev(result.class_sizes())
        rec.event(
            "balance",
            strategy=result.strategy,
            moves=moves,
            gamma=g,
            rsd_percent=rsd,
            initial_strategy=initial.strategy,
            backend=resolved,
        )
        rec.count(f"{result.strategy}.moves", moves)
        rec.gauge(f"{result.strategy}.rsd_percent", rsd)
    return result

