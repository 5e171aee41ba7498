"""Benchmark: optimistic partial distance-2 coloring vs the sequential sweep.

Times the sequential one-sided D2 sweep over two tall-skinny Jacobian
patterns, then models the optimistic superstep engine's critical path at
``THREADS`` threads.  :func:`repro.bipartite.optimistic_partial_d2` is
run with its ``capture`` hook, which exposes every round's work list and
round-start snapshot; the engine deals row ``work[j]`` to thread
``j % p`` and splits the detection scan the same way, so the bench
re-times each thread's share in isolation — its rows through
:func:`repro.kernels.d2_sweep` and its slice of the work-adjacent
columns through :func:`repro.kernels.d2_conflicts` (per-column retry
decisions are independent, so a column partition unions to the exact
retry set).  Per round the modeled wall time is the slowest sweep share
plus the slowest detection share; the speedup is the sequential sweep
time over the summed per-round critical path.

The timed section runs inside ``kernels.use_backend("reference")``: the
model needs per-row compute proportional to per-row work, and a C call's
fixed cost (input checks, argument marshalling) would dominate the small
per-thread shares in a way a thread's share of one sweep never pays.

The two patterns probe opposite regimes.  ``jacrand`` (uniform random
columns) keeps tick peers distance-2 independent, so conflicts are rare
and the speedup approaches thread count; ``jacband`` (banded rows) makes
consecutive rows share columns, so same-tick peers race constantly and
the conflict re-work caps the speedup well below it.  The regression
gate therefore requires the 2x floor from the best >=1e5-edge pattern,
and bounds the conflict volume and round count everywhere.

A second section checks the balance-aware variant: the one-sided shuffle
drain must reduce the relative standard deviation of the D2 color-class
sizes without spending new colors.

Run ``python benchmarks/bench_bipartite.py --quick`` for a fast pass,
``--check BENCH_bipartite.json`` to gate against the checked-in
baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import kernels  # noqa: E402
from repro.bipartite import (  # noqa: E402
    BipartiteGraph,
    balance_partial_d2,
    is_partial_d2_proper,
    optimistic_partial_d2,
    partial_d2_sequential,
)
from repro.graph import jacobian_band_pattern, random_sparse_pattern  # noqa: E402

THREADS = 4
SEED = 7
REPEATS = 3
# The tier the timed section runs on: the critical-path model needs
# per-row compute proportional to per-row work (see module docstring).
KERNEL = "reference"


def _patterns(quick: bool) -> list[tuple[str, BipartiteGraph]]:
    if quick:
        band = jacobian_band_pattern(2000, 200, 7, seed=SEED)
        rand = random_sparse_pattern(2500, 320, 6, seed=SEED)
        return [("jacband", BipartiteGraph.from_incidence(band, 2000)),
                ("jacrand", BipartiteGraph.from_incidence(rand, 2500))]
    band = jacobian_band_pattern(16000, 1600, 7, seed=SEED)
    rand = random_sparse_pattern(20000, 2500, 6, seed=SEED)
    return [("jacband", BipartiteGraph.from_incidence(band, 16000)),
            ("jacrand", BipartiteGraph.from_incidence(rand, 20000))]


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _adjacent_cols(inc, work: np.ndarray) -> np.ndarray:
    """The column vertices the work rows touch (id-sorted, unique)."""
    starts, lens = inc.indptr[work], np.diff(inc.indptr)[work]
    offs = np.repeat(
        starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens
    ) + np.arange(int(lens.sum()), dtype=np.int64)
    return np.unique(inc.indices[offs])


def bench_pattern(name: str, bip: BipartiteGraph, repeats: int) -> dict:
    inc, nr = bip.incidence, bip.num_rows
    all_rows = np.arange(nr, dtype=np.int64)

    inline_s = _best(
        lambda: kernels.d2_sweep(inc, nr, all_rows), repeats)
    seq_colors = kernels.d2_sweep(inc, nr, all_rows)

    captured: list[dict] = []
    coloring = optimistic_partial_d2(bip, num_threads=THREADS, capture=captured)
    critical_path_s = 0.0
    retried = 0
    for idx, rnd in enumerate(captured):
        work, snapshot = rnd["work"], rnd["snapshot"]
        if idx:
            retried += int(work.shape[0])
        after = (captured[idx + 1]["snapshot"] if idx + 1 < len(captured)
                 else coloring.colors)
        cols = _adjacent_cols(inc, work)
        sweep_s, detect_s = [], [0.0]
        for t in range(THREADS):
            share, cshare = work[t::THREADS], cols[t::THREADS]
            if share.shape[0]:
                sweep_s.append(_best(
                    lambda s=share: kernels.d2_sweep(inc, nr, s, snapshot), repeats))
            if cshare.shape[0]:
                detect_s.append(_best(
                    lambda c=cshare: kernels.d2_conflicts(inc, nr, after, work, cols=c),
                    repeats))
        critical_path_s += max(sweep_s) + max(detect_s)

    single = optimistic_partial_d2(bip, num_threads=1)
    row = {
        "pattern": name,
        "num_rows": nr,
        "num_edges": inc.num_edges,
        "threads": THREADS,
        "rounds": len(captured),
        "num_colors": coloring.num_colors,
        "conflict_fraction": retried / nr,
        "inline_s": inline_s,
        "critical_path_s": critical_path_s,
        "speedup": inline_s / max(critical_path_s, 1e-9),
        "proper": bool(is_partial_d2_proper(bip, coloring)),
        "total": bool((coloring.colors >= 0).all()),
        "single_thread_bit_identical": bool(
            np.array_equal(single.colors, seq_colors)),
    }
    print(f"  {name:8s} rows={nr:6d} edges={inc.num_edges:7d} "
          f"rounds={row['rounds']} C={row['num_colors']:4d} "
          f"conflicts={row['conflict_fraction']:.1%} "
          f"speedup={row['speedup']:.2f}x")
    return row


def _rsd(sizes: np.ndarray) -> float:
    mean = sizes.mean()
    return float(sizes.std() / mean * 100.0) if mean else 0.0


def bench_balance(name: str, bip: BipartiteGraph) -> dict:
    with kernels.use_backend(KERNEL):
        initial = partial_d2_sequential(bip)
    balanced = balance_partial_d2(bip, initial)
    row = {
        "pattern": name,
        "num_colors_before": initial.num_colors,
        "num_colors_after": balanced.num_colors,
        "rsd_before": _rsd(initial.class_sizes()),
        "rsd_after": _rsd(balanced.class_sizes()),
        "moves": balanced.meta["moves"],
        "drain_rounds": balanced.meta["drain_rounds"],
        "proper": bool(is_partial_d2_proper(bip, balanced)),
    }
    print(f"  {name:8s} C={row['num_colors_after']:4d} "
          f"rsd {row['rsd_before']:.1f}% -> {row['rsd_after']:.1f}% "
          f"({row['moves']} moves, {row['drain_rounds']} rounds)")
    return row


def check_against_baseline(results: dict, baseline_path: Path) -> int:
    """Gate robust quantities only — correctness invariants, the speedup
    floor on the big patterns, and conflict/round sanity vs the baseline.
    Absolute seconds are machine-dependent and never compared."""
    baseline = json.loads(baseline_path.read_text())
    base_rounds = {r["pattern"]: r["rounds"]
                   for r in baseline["results"]["patterns"]}
    failures = []
    for row in results["patterns"]:
        tag = row["pattern"]
        if not (row["proper"] and row["total"]):
            failures.append(f"{tag}: coloring not a total proper D2 coloring")
        if not row["single_thread_bit_identical"]:
            failures.append(f"{tag}: 1-thread engine != sequential sweep")
        if row["conflict_fraction"] > 0.80:
            failures.append(
                f"{tag}: conflict volume {row['conflict_fraction']:.1%} "
                f"of rows exceeds 80% (one extra pass)")
        cap = 4 * base_rounds.get(tag, row["rounds"])
        if row["rounds"] > cap:
            failures.append(f"{tag}: {row['rounds']} rounds > {cap} "
                            f"(4x baseline)")
    gated = [r for r in results["patterns"] if r["num_edges"] >= 100_000]
    if gated and max(r["speedup"] for r in gated) < 2.0:
        failures.append(
            "no >=1e5-edge pattern reaches the 2x modeled-speedup floor "
            f"at {THREADS} threads (best "
            f"{max(r['speedup'] for r in gated):.2f}x)")
    for row in results["balance"]:
        tag = row["pattern"]
        if not row["proper"]:
            failures.append(f"{tag}: drained coloring not D2-proper")
        if row["num_colors_after"] != row["num_colors_before"]:
            failures.append(f"{tag}: drain changed the color count")
        if row["rsd_after"] >= row["rsd_before"]:
            failures.append(
                f"{tag}: drain did not reduce RSD "
                f"({row['rsd_before']:.1f}% -> {row['rsd_after']:.1f}%)")
    if failures:
        print("baseline check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"baseline check OK ({baseline_path.name})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small patterns, fewer repeats")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_bipartite.json")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="gate results against a baseline JSON")
    args = parser.parse_args(argv)

    repeats = 2 if args.quick else REPEATS
    results: dict = {"patterns": [], "balance": []}
    print(f"optimistic partial D2, {THREADS} modeled threads, "
          f"kernel={KERNEL}:")
    pats = _patterns(args.quick)
    for name, bip in pats:
        with kernels.use_backend(KERNEL):
            results["patterns"].append(bench_pattern(name, bip, repeats))
    print("one-sided shuffle drain:")
    for name, bip in pats:
        results["balance"].append(bench_balance(name, bip))

    payload = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "threads": THREADS,
            "kernel": KERNEL,
            "seed": SEED,
            "python": sys.version.split()[0],
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.check:
        return check_against_baseline(results, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
