"""Balance-aware partial distance-2 coloring (one-sided shuffle drain).

The unscheduled-shuffling balancer of the distance-1 pipeline
(:func:`repro.coloring.shuffle_balance`), one hop deeper: over-full color
classes of a partial D2 coloring are drained toward γ = ``num_rows / C``
by moving rows into permissible under-full classes, where a class is
permissible for row *r* when no row sharing a column with *r* holds it.
Moves never change the color count and never break distance-2 properness
— each move is re-validated against the live colors, exactly like the
distance-1 drain.

The two-hop permissibility scan makes one sequential pass per round over
the rows of over-full classes (id order — the deterministic analogue of
the distance-1 ``vertex`` traversal) and rounds repeat until a pass
commits no move: a move that drains one class can newly overfill another
only transiently (the target was under γ), but it *can* unlock a
previously impermissible move, which is why a single pass — the
distance-1 drain's shape — would leave easy moves on the table in the
denser two-hop conflict graph.

Each pass is one :func:`repro.kernels.d2_drain_pass` call.  Its C loop
walks the incidence CSR directly per candidate; its Python loop (the
oracle, and the fallback when the C library is unavailable) walks the
rows' two-hop lists, gathered at most once per drain into one flat
int32 CSR.  Both give the same moves in the same order.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..coloring.balance import relative_std_dev
from ..obs import as_recorder
from .graph import BipartiteGraph
from .types import PartialD2Coloring

__all__ = ["balance_partial_d2", "d2_shuffle_drain"]

_CHOICES = ("ff", "lu")


def d2_shuffle_drain(
    bip: BipartiteGraph,
    colors: np.ndarray,
    sizes: np.ndarray,
    g: float,
    *,
    choice: str = "ff",
    max_rounds: int = 20,
    backend: str | None = None,
    recorder=None,
) -> tuple[int, int]:
    """Drain over-full D2 classes toward γ in place.

    Mutates *colors* and *sizes*; returns ``(moves, rounds)``.  Uncolored
    rows (``-1``) are left alone.  *recorder* gets one ``drain_round``
    event per pass (moves committed and the live class-size RSD, source
    bin ``-1`` for the interleaved traversal); it never alters the drain.
    Each pass runs :func:`repro.kernels.d2_drain_pass`; *backend* picks
    its path (``reference``: the Python loop; otherwise C when it loaded),
    and every path gives the same result.
    """
    if choice not in _CHOICES:
        raise ValueError(f"choice must be one of {_CHOICES}, got {choice!r}")
    rec = as_recorder(recorder)
    C = sizes.shape[0]
    # under[C] stays False: the Python pass maps color -1 onto that slot
    under = np.zeros(C + 1, dtype=bool)
    under[:C] = sizes < g
    cache: dict = {}
    total_moves = 0
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        overfull = np.nonzero(sizes > g)[0]
        if overfull.shape[0] == 0:
            break
        candidates = np.nonzero(np.isin(colors, overfull))[0]
        round_moves = kernels.d2_drain_pass(
            bip.incidence, bip.num_rows, colors, sizes, under, g, candidates,
            choice=choice, cache=cache, backend=backend)
        total_moves += round_moves
        if rec.enabled:
            mean = sizes.mean() if sizes.size else 0.0
            rsd = float(100.0 * sizes.std() / mean) if mean else 0.0
            rec.event("drain_round", source_bin=-1, moves=int(round_moves),
                      rsd_percent=rsd)
        if round_moves == 0:
            break
    return total_moves, rounds


def balance_partial_d2(
    bip: BipartiteGraph,
    initial: PartialD2Coloring,
    *,
    choice: str = "ff",
    max_rounds: int = 20,
    backend: str | None = None,
    recorder=None,
) -> PartialD2Coloring:
    """Balance *initial* by draining over-full D2 color classes.

    Returns a partial D2 coloring with exactly ``initial.num_colors``
    colors, the same set of colored rows, unchanged (or improved)
    properness, and over-full classes drained toward γ where permissible
    moves existed.  The input coloring is not modified.

    ``recorder`` gets a ``d2-drain`` phase timer, per-round
    ``drain_round`` events, and a final ``balance`` event with the end
    RSD; attaching one never changes the result.
    """
    C = initial.num_colors
    if initial.num_rows != bip.num_rows:
        raise ValueError(
            f"coloring covers {initial.num_rows} rows, graph has {bip.num_rows}")
    if C == 0:
        return initial
    rec = as_recorder(recorder)
    colors = initial.colors.copy()
    g = float((colors >= 0).sum()) / C
    sizes = np.bincount(colors[colors >= 0], minlength=C).astype(np.float64)

    with rec.phase("d2-drain"):
        moves, rounds = d2_shuffle_drain(
            bip, colors, sizes, g, choice=choice, max_rounds=max_rounds,
            backend=backend, recorder=rec)

    result = PartialD2Coloring(
        colors, C, strategy="d2-balanced",
        meta={**initial.meta, "moves": moves, "drain_rounds": rounds,
              "gamma": g, "initial_strategy": initial.strategy})
    if rec.enabled:
        rsd = relative_std_dev(result.class_sizes())
        rec.event("balance", strategy="d2-balanced", moves=moves, gamma=g,
                  rsd_percent=rsd, initial_strategy=initial.strategy)
        rec.count("d2-balanced.moves", moves)
        rec.gauge("d2-balanced.rsd_percent", rsd)
    return result
