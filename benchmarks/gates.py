"""The harness shared by the subsystem benches (``bench_kernels``,
``bench_serve``, ``bench_bipartite`` and ``bench_chaos``).

Each bench is its workloads, a row builder and a gate; this module owns
the rest: the ``--quick/--out/--check`` command line, the median timer
(``median`` and the host-speed ``probe`` are perfbench's own, imported),
the payload writer and the check loop.

A payload holds one section per mode, ``{"quick": {"meta", "results"},
"full": {...}}``.  A run replaces its own mode's section of ``--out`` and
keeps the other, so the checked-in ``BENCH_<name>.json`` holds both and a
quick run is only ever compared with quick rows.  ``--check`` pairs every
run row with the baseline row of the same mode and key and fails on any
row that has no partner, in either direction.  Every gate is an exact
count or a ratio of two times measured in the same run.

Not a pytest file: the smoke tests are in ``tests/test_bench_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from perfbench.common import median, probe  # noqa: E402

MODES = ("quick", "full")


def timed(*fns, repeats: int) -> list[float]:
    """The median wall seconds of each of *fns* over *repeats* rounds.

    Each function is called once untimed first, so a first call's cost
    (imports, page faults, the thread team's start) is left out.  A round
    calls every function once, in turn, so a drift of host speed lands
    on all of them alike and their ratio stays fair.
    """
    for fn in fns:
        fn()
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, samples):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return [median(s) for s in samples]


def write(path: Path, mode: str, rows: list[dict], meta: dict) -> None:
    """Replace *mode*'s section of the payload at *path*, keeping the other."""
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload[mode] = {"meta": meta, "results": rows}
    payload = {m: payload[m] for m in MODES if m in payload}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def check(rows, mode: str, baseline: Path, key, gate) -> int:
    """Exit status of the gate: 1 if any row fails or has no partner.

    *key* maps a row to its identity; *gate* ``(row, base)`` returns the
    failure strings of one pair.
    """
    recorded = {key(r): r for r in
                json.loads(baseline.read_text()).get(mode, {}).get("results", [])}
    failures = []
    for row in rows:
        base = recorded.pop(key(row), None)
        if base is None:
            failures.append(f"{key(row)}: no {mode} row in {baseline.name}")
        else:
            failures += [f"{key(row)}: {f}" for f in gate(row, base)]
    failures += [f"{k}: {mode} row of {baseline.name} missing from the run"
                 for k in recorded]
    if failures:
        print("BASELINE CHECK FAILED:", file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 1
    print(f"baseline check OK ({len(rows)} {mode} rows of {baseline.name})")
    return 0


def main(name: str, doc: str, bench, key, gate, *, meta=None, options=(),
         argv=None) -> int:
    """Parse the command line, run ``bench(args) -> rows``, write, check.

    *options* are extra ``(flag, add_argument kwargs)`` pairs of one bench.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (the CI smoke)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / f"BENCH_{name}.json",
                        help="payload to write; its rows of the other mode "
                        "are kept")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="gate each row against the baseline row of the "
                        "same mode and key; exit 1 on a failure or an "
                        "unpaired row")
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else "full"
    probe_ms = round(median([probe() for _ in range(3)]) * 1e3, 3)
    rows = bench(args)
    write(args.out, mode, rows, {"mode": mode, "python": sys.version.split()[0],
                                 "probe_ms": probe_ms, **(meta or {})})
    print(f"wrote {args.out}")
    return check(rows, mode, args.check, key, gate) if args.check else 0
