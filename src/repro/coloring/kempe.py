"""Kempe-chain rebalancing: an exchange-based extension beyond the paper.

A *Kempe chain* for colors (a, b) is a connected component of the subgraph
induced by the vertices colored a or b.  Swapping the two colors inside a
whole component preserves properness, so chains are a classic lever for
rebalancing color classes *without moving any vertex to a third color* —
complementary to the paper's shuffling schemes, which relocate vertices to
under-full bins one at a time and can get stuck when every under-full bin
is hostile.  A chain swap with ``n_a > n_b`` members shifts ``n_a − n_b``
vertices from class a to class b in one stroke.

:func:`kempe_balance` repeatedly pairs the currently largest class with
the smallest and greedily swaps the subset of their chains that brings the
pair closest to parity; it terminates when no pair improves.  Registered as
strategy ``"kempe"`` (guided, color-count preserving).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .types import Coloring

__all__ = ["kempe_balance", "kempe_chains"]


def kempe_chains(
    graph: CSRGraph, colors: np.ndarray, a: int, b: int
) -> tuple[np.ndarray, np.ndarray]:
    """Chains of the (a, b) color pair.

    Returns ``(members, labels)``: the vertices colored a or b, and their
    connected-component label within the induced subgraph.
    """
    from scipy.sparse.csgraph import connected_components

    members = np.nonzero((colors == a) | (colors == b))[0]
    if members.shape[0] == 0:
        return members, np.empty(0, dtype=np.int64)
    sub = graph.subgraph(members)
    _, labels = connected_components(sub.to_scipy_sparse(), directed=False)
    return members, labels.astype(np.int64)


def _best_swap(
    colors: np.ndarray, members: np.ndarray, labels: np.ndarray, a: int, deficit: int
) -> np.ndarray | None:
    """Vertices to flip so class *a* sheds as close to *deficit* as possible.

    Each chain's swap moves ``(#a − #b)`` vertices from a to b; chains are
    chosen greedily by decreasing gain, never overshooting parity.
    Returns the member vertices of the selected chains, or None.
    """
    if deficit <= 0 or members.shape[0] == 0:
        return None
    is_a = colors[members] == a
    num_chains = int(labels.max()) + 1
    gain = np.zeros(num_chains, dtype=np.int64)
    np.add.at(gain, labels, np.where(is_a, 1, -1))
    order = np.argsort(-gain)
    chosen = []
    remaining = deficit
    for c in order:
        g = int(gain[c])
        if g <= 0 or g > remaining:
            continue
        chosen.append(int(c))
        remaining -= g
        if remaining == 0:
            break
    if not chosen:
        return None
    mask = np.isin(labels, np.asarray(chosen, dtype=np.int64))
    return members[mask]


def kempe_balance(
    graph: CSRGraph,
    initial: Coloring,
    *,
    max_passes: int = 200,
    seed=None,
) -> Coloring:
    """Rebalance *initial* with greedy Kempe-chain swaps.

    Each pass pairs the largest class with the smallest and swaps chains to
    move the pair toward parity; stops when no pair of extreme classes
    improves.  Properness and the color count are invariant.
    """
    if initial.num_vertices != graph.num_vertices:
        raise ValueError("coloring does not match graph")
    C = initial.num_colors
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    colors = initial.colors.copy()
    sizes = np.bincount(colors, minlength=C).astype(np.int64)
    swaps = 0

    for _ in range(max_passes if C >= 2 else 0):  # one class: nothing to swap
        a = int(np.argmax(sizes))
        b = int(np.argmin(sizes))
        gap = int(sizes[a] - sizes[b])
        if gap <= 1:
            break
        members, labels = kempe_chains(graph, colors, a, b)
        flip = _best_swap(colors, members, labels, a, gap // 2)
        if flip is None:
            # the extreme pair is stuck; try the largest against every other
            # under-full class before giving up
            found = False
            for b2 in np.argsort(sizes):
                b2 = int(b2)
                if b2 == a or sizes[a] - sizes[b2] <= 1:
                    continue
                members, labels = kempe_chains(graph, colors, a, b2)
                flip = _best_swap(colors, members, labels, a,
                                  int(sizes[a] - sizes[b2]) // 2)
                if flip is not None:
                    b = b2
                    found = True
                    break
            if not found:
                break
        moved_a = int(np.count_nonzero(colors[flip] == a))
        moved_b = flip.shape[0] - moved_a
        colors[flip] = np.where(colors[flip] == a, b, a)
        sizes[a] += moved_b - moved_a
        sizes[b] += moved_a - moved_b
        swaps += 1

    return Coloring(
        colors,
        C,
        strategy="kempe",
        meta={"swaps": swaps, "initial_strategy": initial.strategy},
    )
