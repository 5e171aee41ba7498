"""Smoke coverage for the benchmark CLIs.

Runs the ``benchmarks/bench_*.py --quick`` CLIs in subprocesses against
their checked-in ``BENCH_*.json`` baselines: a test fails if the script
crashes or if its ``--check`` regression gate trips (for example a
kernel speedup halved, or serving efficiency halved, a hit rate below
the trace's ideal, or redundant ``execute`` calls).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_kernels.py"
BASELINE = REPO_ROOT / "BENCH_kernels.json"
BENCH_SERVE = REPO_ROOT / "benchmarks" / "bench_serve.py"
BASELINE_SERVE = REPO_ROOT / "BENCH_serve.json"


def test_baseline_artifact_shows_target_speedup():
    """The checked-in artifact must meet the 10x FF target at >=1e5 edges."""
    payload = json.loads(BASELINE.read_text())
    best = max(
        r["speedup"]
        for r in payload["results"]
        if r["kernel"] == "ff_sweep" and r["num_edges"] >= 100_000
    )
    assert best >= 10.0


@pytest.mark.slow
def test_quick_bench_runs_and_passes_baseline_check(tmp_path):
    out = tmp_path / "bench_quick.json"
    trace = tmp_path / "bench_events.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--quick", "--out", str(out),
         "--check", str(BASELINE), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert payload["meta"]["mode"] == "quick"
    assert payload["results"], "quick bench produced no rows"
    kernels_seen = {r["kernel"] for r in payload["results"]}
    assert kernels_seen == {"ff_sweep", "shuffle_vertex", "shuffle_color"}
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs import read_jsonl

    events = read_jsonl(trace)
    assert len([e for e in events if e["kind"] == "bench_row"]) == len(
        payload["results"]
    )
    assert events[-1]["kind"] == "run_summary"


def test_serve_baseline_artifact_is_consistent():
    """The checked-in serve artifact must show redundancy actually absorbed."""
    payload = json.loads(BASELINE_SERVE.read_text())
    assert payload["results"], "serve baseline has no workloads"
    for row in payload["results"]:
        assert row["executed"] == row["distinct"]
        assert row["cache_hits"] + row["dedup_hits"] == (
            row["jobs"] - row["distinct"]
        )
        assert row["speedup"] > 1.0


@pytest.mark.slow
def test_quick_serve_bench_runs_and_passes_baseline_check(tmp_path):
    out = tmp_path / "bench_serve_quick.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_SERVE), "--quick", "--out", str(out),
         "--check", str(BASELINE_SERVE)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert payload["meta"]["mode"] == "quick"
    workloads = {r["workload"] for r in payload["results"]}
    assert workloads == {"mixed_ff_10x", "superstep_vff_10x"}


BENCH_SHARD = REPO_ROOT / "benchmarks" / "bench_shard.py"
BASELINE_SHARD = REPO_ROOT / "BENCH_shard.json"


def test_shard_baseline_artifact_meets_acceptance_floors():
    """The checked-in artifact must show the PR's acceptance numbers: a
    modeled critical-path speedup >= 2x with 4 shards on a >=1e6-edge
    graph, a proper coloring, and one-shard bit-parity with the
    sequential sweep."""
    payload = json.loads(BASELINE_SHARD.read_text())
    row = payload["results"]["shard"]
    assert payload["meta"]["mode"] == "full"
    assert row["num_edges"] >= 1_000_000
    assert row["shards"] == 4
    assert row["speedup"] >= 2.0
    assert row["proper"] is True
    assert row["single_shard_bit_identical"] is True
    assert row["conflict_fraction"] <= 0.10


@pytest.mark.slow
def test_quick_shard_bench_runs_and_passes_baseline_check(tmp_path):
    out = tmp_path / "bench_shard_quick.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_SHARD), "--quick", "--out", str(out),
         "--check", str(BASELINE_SHARD)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert payload["meta"]["mode"] == "quick"
    assert payload["results"]["shard"]["proper"] is True


BENCH_CHAOS = REPO_ROOT / "benchmarks" / "bench_chaos.py"
BASELINE_CHAOS = REPO_ROOT / "BENCH_chaos.json"


def test_chaos_baseline_artifact_shows_clean_soak():
    """The checked-in chaos artifact must show a real, lossless soak."""
    payload = json.loads(BASELINE_CHAOS.read_text())
    rows = payload["results"]
    assert {r["campaign"] for r in rows} == {"io_chaos", "crash_restart"}
    assert sum(r["faults_injected"] for r in rows) >= payload["meta"][
        "min_faults"]
    for row in rows:
        assert row["lost"] == 0
        assert row["improper"] == 0
        assert row["reexecuted"] == 0
        assert row["recovery_rounds"] < payload["meta"]["recovery_round_cap"]


@pytest.mark.slow
def test_quick_chaos_bench_runs_and_passes_baseline_check(tmp_path):
    out = tmp_path / "bench_chaos_quick.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_CHAOS), "--quick", "--out", str(out),
         "--check", str(BASELINE_CHAOS)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert payload["meta"]["mode"] == "quick"
    assert {r["campaign"] for r in payload["results"]} == {
        "io_chaos", "crash_restart"}


BENCH_BIPARTITE = REPO_ROOT / "benchmarks" / "bench_bipartite.py"
BASELINE_BIPARTITE = REPO_ROOT / "BENCH_bipartite.json"


def test_bipartite_baseline_artifact_meets_acceptance_floors():
    """The checked-in artifact must show the PR's acceptance numbers: a
    modeled optimistic speedup >= 2x at 4 threads on a >=1e5-edge
    pattern, every coloring total/proper with 1-thread bit-parity, and
    the one-sided drain reducing class-size RSD without new colors."""
    payload = json.loads(BASELINE_BIPARTITE.read_text())
    assert payload["meta"]["mode"] == "full"
    rows = payload["results"]["patterns"]
    gated = [r for r in rows if r["num_edges"] >= 100_000]
    assert gated, "baseline has no 1e5+-edge patterns"
    assert max(r["speedup"] for r in gated) >= 2.0
    for row in rows:
        assert row["threads"] == 4
        assert row["proper"] is True and row["total"] is True
        assert row["single_thread_bit_identical"] is True
    for row in payload["results"]["balance"]:
        assert row["proper"] is True
        assert row["num_colors_after"] == row["num_colors_before"]
        assert row["rsd_after"] < row["rsd_before"]


@pytest.mark.slow
def test_quick_bipartite_bench_runs_and_passes_baseline_check(tmp_path):
    out = tmp_path / "bench_bipartite_quick.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_BIPARTITE), "--quick", "--out", str(out),
         "--check", str(BASELINE_BIPARTITE)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert payload["meta"]["mode"] == "quick"
    assert {r["pattern"] for r in payload["results"]["patterns"]} == {
        "jacband", "jacrand"}
    assert all(r["proper"] for r in payload["results"]["patterns"])
