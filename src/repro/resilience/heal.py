"""Post-run invariant checking and self-healing repair.

The speculation protocol *should* end with a proper coloring — but "should"
is exactly what a resilient pipeline refuses to assume.  This module is
the last line of defense :func:`repro.run.execute` runs over every result:

1. :func:`check_invariants` audits a colors array against the graph —
   coverage (no uncolored vertex), properness (no monochromatic edge),
   color range (every color inside the declared palette), and bin-size
   consistency (the recomputed class sizes account for every vertex);
2. :func:`repair_coloring` fixes a violating array *minimally*: only the
   violating vertices are cleared and re-colored by a sequential
   First-Fit sweep against the untouched remainder (one in-order pass is
   sufficient — each repaired vertex sees both the clean vertices and the
   earlier repairs, so no new conflict can be introduced);
3. :func:`heal` applies the configured ``on_failure`` policy:
   ``"raise"`` (fail loudly with an :class:`InvariantViolationError`),
   ``"repair"`` (fix in place, sequentially), or ``"fallback"`` (discard
   the result and re-run a caller-supplied safe path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..coloring.types import Coloring
from ..coloring.verify import conflicting_vertices
from ..graph.csr import CSRGraph
from ..obs import as_recorder

__all__ = [
    "ON_FAILURE_POLICIES",
    "InvariantViolationError",
    "Violation",
    "check_invariants",
    "heal",
    "repair_coloring",
    "violating_vertices",
]

#: Recognized ``on_failure`` policies, mildest reaction last.
ON_FAILURE_POLICIES = ("raise", "repair", "fallback")


class InvariantViolationError(RuntimeError):
    """A coloring failed post-run verification under policy ``"raise"``."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        detail = "; ".join(str(v) for v in violations)
        super().__init__(f"coloring failed invariant check: {detail}")


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which check, which vertices, and a summary."""

    kind: str  # "uncolored" | "conflict" | "color-range" | "bin-size"
    vertices: np.ndarray
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}: {self.detail}"


def check_invariants(
    graph: CSRGraph, colors: np.ndarray, num_colors: int | None = None
) -> list[Violation]:
    """Audit *colors* against *graph*; empty list means all invariants hold.

    Checks, in order: every vertex colored, no monochromatic edge (the
    higher-id endpoint is reported, matching the speculation protocol's
    retry rule), every color inside ``[0, num_colors)`` when a palette
    size is declared, and bin-size consistency (the per-bin counts sum
    back to the vertex count — guards against a truncated or duplicated
    merge).  *colors* must be a 1-D integer array of length n, else
    :class:`ValueError`.  The monochromatic edges are counted by
    :func:`repro.kernels.count_monochromatic_edges` (one compiled pass
    over the CSR rows when the C library loads); only a nonzero count
    pays for the scan that names the losing endpoints.
    """
    colors = kernels.check_colors(colors, graph.num_vertices)
    violations: list[Violation] = []

    uncolored = np.nonzero(colors < 0)[0]
    if uncolored.size:
        violations.append(Violation(
            "uncolored", uncolored,
            f"{uncolored.size} uncolored vertices (first: {int(uncolored[0])})"))

    mono = kernels.count_monochromatic_edges(graph, colors)
    if mono:
        losers = conflicting_vertices(graph, colors)
        violations.append(Violation(
            "conflict", losers,
            f"{mono} monochromatic edges, "
            f"{losers.size} losing endpoints"))

    if num_colors is not None:
        out_of_range = np.nonzero(colors >= num_colors)[0]
        if out_of_range.size:
            violations.append(Violation(
                "color-range", out_of_range,
                f"{out_of_range.size} vertices colored >= palette size "
                f"{num_colors}"))
        sizes = np.bincount(colors[(colors >= 0) & (colors < num_colors)],
                            minlength=num_colors)
        accounted = int(sizes.sum()) + int(uncolored.size) + int(out_of_range.size)
        if accounted != graph.num_vertices:  # pragma: no cover - defensive
            violations.append(Violation(
                "bin-size", np.empty(0, dtype=np.int64),
                f"bin sizes account for {accounted} of {graph.num_vertices} "
                f"vertices"))
    return violations


def violating_vertices(violations: list[Violation]) -> np.ndarray:
    """Sorted, deduplicated union of every violation's vertex set."""
    if not violations:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([v.vertices for v in violations]))


def repair_coloring(
    graph: CSRGraph,
    colors: np.ndarray,
    *,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequentially re-color exactly the invariant-violating vertices.

    Returns ``(fixed_colors, repaired)``: a new colors array in which the
    violating vertices were cleared and First-Fit re-colored in id order
    against everything else, and the sorted array of vertices touched.
    Vertices outside the violating set are never modified — the repair is
    minimal by construction.  The result always passes
    :func:`check_invariants`.
    """
    rec = as_recorder(recorder)
    colors = np.asarray(colors, dtype=np.int64)
    bad = violating_vertices(check_invariants(graph, colors, None))
    # out-of-range colors only matter against a declared palette; here any
    # non-negative color is a legitimate bin, so properness is the target
    if bad.size == 0:
        return colors.copy(), bad
    base = colors.copy()
    base[bad] = -1
    with rec.phase("repair"):
        fixed = kernels.ff_sweep(graph, bad, base)
    if rec.enabled:
        rec.event("repair", vertices=int(bad.size),
                  num_colors=int(fixed.max(initial=-1)) + 1)
    return fixed, bad


def heal(
    graph: CSRGraph,
    coloring: Coloring,
    policy: str,
    *,
    fallback=None,
    recorder=None,
) -> tuple[Coloring, dict]:
    """Verify *coloring* and apply the ``on_failure`` *policy* if it fails.

    Returns ``(coloring, report)`` where *report* summarizes what the
    checker found and what was done about it (``violations`` per-kind
    counts, ``repaired`` vertex count, ``fallback`` flag).  On a clean
    check the input coloring is returned unchanged (same object), so
    healthy runs stay bit-identical.

    ``fallback`` is the zero-argument safe path (typically the sequential
    implementation of the same strategy) invoked under the ``"fallback"``
    policy; when absent, ``"fallback"`` degrades to ``"repair"``.
    """
    if policy not in ON_FAILURE_POLICIES:
        raise ValueError(
            f"on_failure must be one of {ON_FAILURE_POLICIES}, got {policy!r}")
    rec = as_recorder(recorder)
    violations = check_invariants(graph, coloring.colors, coloring.num_colors)
    report: dict = {
        "checked": True,
        "violations": {v.kind: int(v.vertices.size) for v in violations},
        "repaired": 0,
        "fallback": False,
    }
    if not violations:
        return coloring, report
    if rec.enabled:
        rec.event("invariant_violation", policy=policy,
                  kinds=sorted(report["violations"]),
                  vertices=int(violating_vertices(violations).size))
    if policy == "raise":
        raise InvariantViolationError(violations)
    if policy == "fallback" and fallback is not None:
        if rec.enabled:
            rec.event("sequential_fallback", strategy=coloring.strategy)
        report["fallback"] = True
        healed = fallback()
        return healed.with_meta(fallback_from=coloring.strategy), report
    fixed, repaired = repair_coloring(graph, coloring.colors, recorder=rec)
    report["repaired"] = int(repaired.size)
    healed = Coloring(
        fixed, int(fixed.max(initial=-1)) + 1, coloring.strategy,
        {**coloring.meta, "repaired": int(repaired.size),
         "repaired_vertices": repaired},
    )
    return healed, report
