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

The rows' two-hop lists are gathered once per drain into one flat int32
CSR (:func:`_two_hop_rows`); each candidate visit is then a single gather
of the live colors of its list into a copy of the maintained under-full
mask, so a visit costs one numpy gather instead of one slice per column.
"""

from __future__ import annotations

import numpy as np

from ..coloring.balance import relative_std_dev
from ..kernels.vectorized import _gather_rows
from ..obs import as_recorder
from .graph import BipartiteGraph
from .types import PartialD2Coloring

__all__ = ["balance_partial_d2", "d2_shuffle_drain"]

_CHOICES = ("ff", "lu")
# two-hop entries gathered per block of rows: keeps the int64 staging
# arrays at ~0.5 MB each, cache-resident (larger blocks measured slower)
_TWO_HOP_BLOCK = 1 << 16


def _two_hop_rows(bip: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(ptr, nbr)`` of every row's two-hop rows, self excluded.

    ``nbr[ptr[r]:ptr[r+1]]`` lists the rows sharing a column with *r*,
    once per shared column (duplicates kept), as int32.  Row *r* meets
    itself once in each of its columns, so its slot count is the sum of
    its columns' degrees minus its own degree.  The gather runs in blocks
    of rows holding about ``_TWO_HOP_BLOCK`` entries each, which bounds
    the int64 staging arrays.
    """
    nr = bip.num_rows
    indptr, indices = bip.incidence.indptr, bip.incidence.indices
    deg = np.diff(indptr)
    row_deg = deg[:nr]
    reach = np.bincount(np.repeat(np.arange(nr), row_deg),
                        weights=deg[indices[: indptr[nr]]], minlength=nr)
    ptr = np.zeros(nr + 1, dtype=np.int64)
    np.cumsum(reach.astype(np.int64) - row_deg, out=ptr[1:])
    nbr = np.empty(int(ptr[-1]), dtype=np.int32)
    cuts = np.searchsorted(ptr, np.arange(_TWO_HOP_BLOCK, ptr[-1], _TWO_HOP_BLOCK))
    bounds = np.unique(np.concatenate([[0], cuts, [nr]]))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        e1, seg1 = _gather_rows(indptr[lo:hi], row_deg[lo:hi])
        cols = indices[e1]
        e2, seg2 = _gather_rows(indptr[cols], deg[cols])
        rows = indices[e2]
        nbr[ptr[lo] : ptr[hi]] = rows[rows != seg1[seg2] + lo]
    return ptr, nbr


def d2_shuffle_drain(
    bip: BipartiteGraph,
    colors: np.ndarray,
    sizes: np.ndarray,
    g: float,
    *,
    choice: str = "ff",
    max_rounds: int = 20,
    recorder=None,
) -> tuple[int, int]:
    """Drain over-full D2 classes toward γ in place.

    Mutates *colors* and *sizes*; returns ``(moves, rounds)``.  Uncolored
    rows (``-1``) are left alone.  *recorder* gets one ``drain_round``
    event per pass (moves committed and the live class-size RSD, source
    bin ``-1`` for the interleaved traversal); it never alters the drain.
    """
    if choice not in _CHOICES:
        raise ValueError(f"choice must be one of {_CHOICES}, got {choice!r}")
    rec = as_recorder(recorder)
    C = sizes.shape[0]
    # under[C] stays False: the gather below maps color -1 onto that slot
    under = np.zeros(C + 1, dtype=bool)
    under[:C] = sizes < g
    ptr = nbr = None
    total_moves = 0
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        overfull = np.nonzero(sizes > g)[0]
        if overfull.shape[0] == 0:
            break
        if ptr is None:
            ptr, nbr = _two_hop_rows(bip)
            ptr = ptr.tolist()
        candidates = np.nonzero(np.isin(colors, overfull))[0]
        round_moves = 0
        for r in candidates.tolist():
            j = int(colors[r])
            if sizes[j] <= g:  # class reached balance; stop draining it
                continue
            # j is over-full, so mask[j] is already False
            mask = under.copy()
            mask[colors.take(nbr[ptr[r] : ptr[r + 1]])] = False
            if choice == "ff":
                k = int(mask.argmax())
            else:
                k = int(np.where(mask[:C], sizes, np.inf).argmin())
            if not mask[k]:
                continue
            colors[r] = k
            sizes[j] -= 1.0
            sizes[k] += 1.0
            under[j] = sizes[j] < g
            under[k] = sizes[k] < g
            round_moves += 1
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
            recorder=rec)

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
