"""Smoke coverage for the benchmark CLIs.

Runs the ``benchmarks/bench_*.py --quick`` CLIs in subprocesses against
their checked-in ``BENCH_*.json`` baselines: a test fails if the script
crashes or if its ``--check`` regression gate trips (for example a
kernel speedup halved, or serving efficiency halved, a hit rate below
the trace's ideal, redundant ``execute`` calls, or a D2 count that
moved).  The artifact tests hold the checked-in numbers to their
acceptance floors, and the check loop is tested on its own for rows
that have no partner.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHES = ("kernels", "serve", "bipartite", "chaos")


def _baseline(name: str) -> dict:
    return json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())


def _bench_module(name: str):
    if str(REPO_ROOT / "benchmarks") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    return importlib.import_module(f"bench_{name}")


def test_baseline_artifact_shows_target_speedup():
    """The checked-in artifact must meet the 10x FF target at >=1e5 edges."""
    best = max(
        r["speedup"]
        for r in _baseline("kernels")["full"]["results"]
        if r["kernel"] == "ff_sweep" and r["num_edges"] >= 100_000
    )
    assert best >= 10.0


def test_serve_baseline_artifact_is_consistent():
    """The checked-in serve artifact must show redundancy actually absorbed."""
    for mode, section in _baseline("serve").items():
        assert section["results"], f"serve baseline has no {mode} workloads"
        for row in section["results"]:
            assert row["executed"] == row["distinct"]
            assert row["cache_hits"] + row["dedup_hits"] == (
                row["jobs"] - row["distinct"]
            )
            assert row["speedup"] > 1.0


def test_chaos_baseline_artifact_shows_clean_soak():
    """The checked-in chaos artifact must show a real, lossless soak."""
    for section in _baseline("chaos").values():
        rows = section["results"]
        assert {r["campaign"] for r in rows} == {"io_chaos", "crash_restart"}
        assert sum(r["faults_injected"] for r in rows) >= 5
        for row in rows:
            assert row["lost"] == 0
            assert row["improper"] == 0
            assert row["reexecuted"] == 0
            assert row["recovery_rounds"] < section["meta"]["recovery_round_cap"]


def test_bipartite_baseline_artifact_meets_acceptance_floors():
    """The checked-in artifact must hold a >=1e5-edge pattern, every
    coloring total and proper with 1-thread bit-parity, the measured
    team/sequential ratio and the exact counts the gate compares, and
    the one-sided drain reducing class-size RSD without new colors."""
    payload = _baseline("bipartite")
    assert set(payload) == {"quick", "full"}
    assert any(r["num_edges"] >= 100_000 for r in payload["full"]["results"])
    bench = _bench_module("bipartite")
    for section in payload.values():
        assert section["meta"]["threads"] == 4 and section["meta"]["workers"] == 2
        for row in section["results"]:
            assert row["proper"] is True and row["total"] is True
            assert row["single_thread_bit_identical"] is True
            assert row["mp_vs_seq"] > 0
            assert all(isinstance(row[k], (int, float)) for k in bench.EXACT)
            assert row["colors_after"] == row["colors_before"]
            assert row["rsd_after"] < row["rsd_before"]


@pytest.mark.slow
@pytest.mark.parametrize("name", BENCHES)
def test_quick_bench_runs_and_passes_baseline_check(name, tmp_path):
    out = tmp_path / f"bench_{name}_quick.json"
    trace = tmp_path / "bench_events.jsonl"
    extra = ["--trace", str(trace)] if name == "kernels" else []
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / f"bench_{name}.py"),
         "--quick", "--out", str(out), "--check", f"BENCH_{name}.json", *extra],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert set(payload) == {"quick"}
    assert payload["quick"]["meta"]["mode"] == "quick"
    assert payload["quick"]["meta"]["probe_ms"] > 0
    rows = payload["quick"]["results"]
    assert rows, "quick bench produced no rows"
    if name == "kernels":
        assert {r["kernel"] for r in rows} == {
            "ff_sweep", "shuffle_vertex", "shuffle_color"}
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.obs import read_jsonl

        events = read_jsonl(trace)
        assert len([e for e in events if e["kind"] == "bench_row"]) == len(rows)
        assert events[-1]["kind"] == "run_summary"


@pytest.mark.parametrize("name", BENCHES)
def test_check_fails_on_an_unpaired_row(name, tmp_path):
    """``--check`` fails on a run row with no baseline row of the same mode
    and key, and on a baseline row the run did not produce."""
    bench = _bench_module(name)
    check = bench.gates.check
    payload = _baseline(name)
    rows = payload["quick"]["results"]

    def baseline(tag: str, content: dict) -> Path:
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(content))
        return path

    intact = baseline("intact", payload)
    assert check(rows, "quick", intact, bench.key, bench.gate) == 0
    short = baseline("short", {**payload, "quick": {
        **payload["quick"], "results": rows[1:]}})
    assert check(rows, "quick", short, bench.key, bench.gate) == 1
    assert check(rows[1:], "quick", intact, bench.key, bench.gate) == 1
    # full rows never stand in for quick ones
    only_full = baseline("only_full", {"full": payload["full"]})
    assert check(rows, "quick", only_full, bench.key, bench.gate) == 1
