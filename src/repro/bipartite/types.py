"""Partial (one-sided) distance-2 coloring result type and verifiers.

A partial D2 coloring assigns colors to the row side of a
:class:`~repro.bipartite.graph.BipartiteGraph` only; column vertices are
never colored.  It intentionally does **not** reuse
:class:`repro.coloring.types.Coloring`, whose invariants (full coverage of
every vertex, non-negative colors) are exactly what a *partial* coloring
relaxes: uncolored rows are legal here and encoded as ``-1``.

The verifiers take colors that are a 1-D integer array of ``num_rows``
entries, none below ``-1`` (else :class:`ValueError`), and find the first
violating column with the dispatched
:func:`repro.kernels.d2_violating_column`: one compiled pass over each
column's rows with a color stamp when the C library loads, else a
per-column loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from .graph import BipartiteGraph

__all__ = [
    "PartialD2Coloring",
    "assert_partial_d2_proper",
    "is_partial_d2_proper",
]


@dataclass(frozen=True)
class PartialD2Coloring:
    """Row colors of a bipartite pattern; ``-1`` marks an uncolored row."""

    colors: np.ndarray
    num_colors: int
    strategy: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        colors = np.ascontiguousarray(self.colors, dtype=np.int64)
        object.__setattr__(self, "colors", colors)
        if colors.ndim != 1:
            raise ValueError("colors must be a 1-D array")
        if colors.size and colors.max(initial=-1) >= self.num_colors:
            raise ValueError(
                f"color {int(colors.max())} out of range for "
                f"num_colors={self.num_colors}")
        if colors.size and colors.min(initial=0) < -1:
            raise ValueError("colors must be >= -1 (-1 = uncolored)")

    @property
    def num_rows(self) -> int:
        """Number of rows the coloring covers (colored or not)."""
        return int(self.colors.shape[0])

    @property
    def num_colored(self) -> int:
        """Number of rows holding a color."""
        return int((self.colors >= 0).sum())

    def class_sizes(self) -> np.ndarray:
        """Rows per color class (uncolored rows excluded)."""
        colored = self.colors[self.colors >= 0]
        return np.bincount(colored, minlength=self.num_colors)

    def with_meta(self, **updates) -> "PartialD2Coloring":
        """Copy with extra ``meta`` entries."""
        return PartialD2Coloring(self.colors, self.num_colors, self.strategy,
                                 {**self.meta, **updates})


def _colors(bip: BipartiteGraph, coloring: PartialD2Coloring | np.ndarray) -> np.ndarray:
    raw = coloring.colors if isinstance(coloring, PartialD2Coloring) else coloring
    return kernels.check_colors(raw, bip.num_rows, unit="rows", floor=-1)


def is_partial_d2_proper(
    bip: BipartiteGraph, coloring: PartialD2Coloring | np.ndarray
) -> bool:
    """True iff no two *colored* rows sharing a column have equal colors."""
    return kernels.d2_violating_column(
        bip.incidence, bip.num_rows, _colors(bip, coloring)) == -1


def assert_partial_d2_proper(
    bip: BipartiteGraph,
    coloring: PartialD2Coloring | np.ndarray,
    *,
    require_total: bool = False,
) -> None:
    """Raise ``AssertionError`` naming a violating column if not proper.

    With ``require_total=True`` an uncolored row is also a violation —
    the check for the optimistic engine's *finished* colorings, which
    promise totality on top of partial properness.
    """
    colors = _colors(bip, coloring)
    if require_total and colors.size and colors.min() < 0:
        raise AssertionError(
            f"row {int(np.argmin(colors >= 0))} is uncolored")
    c = kernels.d2_violating_column(bip.incidence, bip.num_rows, colors)
    if c >= 0:
        raise AssertionError(
            f"distance-2 violation: column {c} has two same-colored rows")
