#!/usr/bin/env python
"""Benchmark: optimistic partial distance-2 coloring on the thread team
against one sequential sweep, and the one-sided balance drain.

On two tall-skinny Jacobian patterns it times, interleaved and as
medians of ``REPEATS``, one sequential :func:`repro.kernels.d2_sweep` of
all rows and :func:`repro.bipartite.mp_partial_d2` on ``WORKERS`` threads
of the team, and reports their ratio ``mp_vs_seq`` (above 1: the team is
slower).  Both run on the default kernel tier.  It also records the exact
rounds, conflicts and colors of the team run (and the size of its
sequential First-Fit tail, ``mp_tail``) and of the superstep engine
(:func:`repro.bipartite.optimistic_partial_d2` at ``THREADS`` simulated
threads), and the moves, colors and class-size RSD of the one-sided
shuffle drain (:func:`repro.bipartite.balance_partial_d2`).

The two patterns probe opposite regimes: ``jacrand`` (uniform random
columns) keeps same-tick rows distance-2 independent, while
``jacband``'s banded rows share columns with their neighbours, so rows
swept at once race constantly.

``--check BASELINE.json`` fails a pattern whose colorings are not total
and proper, whose one-thread superstep run differs from the sequential
sweep, whose counts differ from the recorded ones in any digit (every
count is deterministic), whose drain spent a color or did not lower the
RSD, or whose ``mp_vs_seq`` exceeds twice the recorded ratio::

    python benchmarks/bench_bipartite.py --quick --check BENCH_bipartite.json
"""

from __future__ import annotations

import numpy as np

import gates
from repro import kernels
from repro.bipartite import (
    BipartiteGraph,
    balance_partial_d2,
    is_partial_d2_proper,
    mp_partial_d2,
    optimistic_partial_d2,
    partial_d2_sequential,
)
from repro.coloring.balance import relative_std_dev
from repro.graph import jacobian_band_pattern, random_sparse_pattern

THREADS = 4
WORKERS = 2
SEED = 7
REPEATS = 9
#: Row fields that must equal the recorded ones exactly.
EXACT = ("superstep_rounds", "superstep_conflicts", "superstep_colors",
         "mp_rounds", "mp_conflicts", "mp_tail", "mp_colors", "drain_moves",
         "drain_rounds", "colors_before", "colors_after", "rsd_before",
         "rsd_after")


def _patterns(quick: bool) -> list[tuple[str, BipartiteGraph]]:
    band_rows, band_cols, rand_rows, rand_cols = (
        (2000, 200, 2500, 320) if quick else (16000, 1600, 20000, 2500))
    band = jacobian_band_pattern(band_rows, band_cols, 7, seed=SEED)
    rand = random_sparse_pattern(rand_rows, rand_cols, 6, seed=SEED)
    return [("jacband", BipartiteGraph.from_incidence(band, band_rows)),
            ("jacrand", BipartiteGraph.from_incidence(rand, rand_rows))]


def bench_pattern(name: str, bip: BipartiteGraph) -> dict:
    inc, nr = bip.incidence, bip.num_rows
    all_rows = np.arange(nr, dtype=np.int64)
    seq_s, mp_s = gates.timed(lambda: kernels.d2_sweep(inc, nr, all_rows),
                              lambda: mp_partial_d2(bip, num_workers=WORKERS),
                              repeats=REPEATS)
    mp = mp_partial_d2(bip, num_workers=WORKERS)
    superstep = optimistic_partial_d2(bip, num_threads=THREADS)
    single = optimistic_partial_d2(bip, num_threads=1)
    initial = partial_d2_sequential(bip)
    drained = balance_partial_d2(bip, initial)
    row = {
        "pattern": name,
        "num_rows": nr,
        "num_edges": inc.num_edges,
        "seq_s": round(seq_s, 6),
        "mp_s": round(mp_s, 6),
        "mp_vs_seq": round(mp_s / seq_s, 3),
        "mp_rounds": mp.meta["rounds"],
        "mp_conflicts": mp.meta["conflicts"],
        "mp_tail": mp.meta["tail"],
        "mp_colors": mp.num_colors,
        "superstep_rounds": superstep.meta["rounds"],
        "superstep_conflicts": superstep.meta["conflicts"],
        "superstep_colors": superstep.num_colors,
        "proper": all(is_partial_d2_proper(bip, c) for c in (mp, superstep, drained)),
        "total": bool((mp.colors >= 0).all() and (superstep.colors >= 0).all()),
        "single_thread_bit_identical": bool(np.array_equal(single.colors,
                                                           initial.colors)),
        "colors_before": initial.num_colors,
        "colors_after": drained.num_colors,
        "rsd_before": round(relative_std_dev(initial.class_sizes()), 4),
        "rsd_after": round(relative_std_dev(drained.class_sizes()), 4),
        "drain_moves": drained.meta["moves"],
        "drain_rounds": drained.meta["drain_rounds"],
    }
    print(f"  {name:8s} rows={nr:6d} edges={inc.num_edges:7d}  "
          f"seq {seq_s * 1e3:7.2f} ms  mp {mp_s * 1e3:7.2f} ms  "
          f"mp_vs_seq {row['mp_vs_seq']:.2f}\n"
          f"  {'':8s} mp {row['mp_rounds']} rounds/{row['mp_conflicts']} "
          f"conflicts/tail {row['mp_tail']}  "
          f"superstep {row['superstep_rounds']} rounds/"
          f"{row['superstep_conflicts']} conflicts  drain C={row['colors_after']} "
          f"rsd {row['rsd_before']:.1f}% -> {row['rsd_after']:.1f}% "
          f"({row['drain_moves']} moves)", flush=True)
    return row


def run(args) -> list[dict]:
    return [bench_pattern(name, bip) for name, bip in _patterns(args.quick)]


def key(row) -> str:
    return row["pattern"]


def gate(row, base) -> list[str]:
    failures = [f"{k} {row[k]} != recorded {base[k]}" for k in EXACT
                if row[k] != base[k]]
    if not (row["proper"] and row["total"]):
        failures.append("a coloring is not a total proper D2 coloring")
    if not row["single_thread_bit_identical"]:
        failures.append("1-thread superstep engine != sequential sweep")
    if row["colors_after"] != row["colors_before"]:
        failures.append("drain changed the color count")
    if row["rsd_after"] >= row["rsd_before"]:
        failures.append(f"drain did not reduce RSD ({row['rsd_before']:.1f}% "
                        f"-> {row['rsd_after']:.1f}%)")
    if row["mp_vs_seq"] > 2 * base["mp_vs_seq"]:
        failures.append(f"mp_vs_seq {row['mp_vs_seq']:.2f} > 2x recorded "
                        f"{base['mp_vs_seq']:.2f}")
    return failures


if __name__ == "__main__":
    raise SystemExit(gates.main(
        "bipartite", __doc__, run, key, gate,
        meta={"threads": THREADS, "workers": WORKERS, "seed": SEED,
              "repeats": REPEATS}))
