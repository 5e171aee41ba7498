"""Shared helpers: statistics, provenance, resource counters, the gate."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import threading
import time
from pathlib import Path

import numpy as np

#: The seed later performance claims re-check on.  It is never used while
#: a change is being written, so a gain that only fits the tuning seeds
#: shows up as a miss here.
HELD_OUT_SEED = 9001
#: Iterations of the host-speed probe loop (about 4 ms of CPU).
PROBE_LOOPS = 50_000
#: What the probe takes on the reference host (2 vCPUs, CPython 3.11).
#: Timings are reported in seconds of that host: raw seconds times
#: ``REF_PROBE_S / probe``, the probe taken next to the work it scales.
REF_PROBE_S = 0.004
#: Strategies that balance, the ones ``rsd_pct`` averages over (every
#: strategy the workloads run except greedy-ff and d2-optimistic).
BALANCING = ("vff", "cff", "sched-rev", "recoloring", "d2-balanced")


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With fewer than eleven
    samples no percentile qualifies and the maximum is returned, labelled
    as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    rank = n - 11  # ten samples lie above this one
    return float(ordered[rank]), 100.0 * (rank + 1) / n, n


def probe() -> float:
    """CPU seconds this thread spends on a fixed pure-Python loop.

    The host under a small VM changes speed by tens of percent within
    seconds (the same loop took 21 ms and 34 ms a minute apart), and the
    repro code slows with it.  The probe measures that speed with no
    repro code in it, so a change to the program moves the ratio of
    work to probe while a change of host speed cancels.  Thread CPU time
    leaves out waits for the interpreter lock, so a busy service thread
    beside the probe does not make it read slower.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.thread_time() - t0


def scaled(seconds: float, probes) -> float:
    """*seconds* at reference host speed, given the probes taken with it."""
    return seconds * REF_PROBE_S / median(probes)


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git`` (no subprocess), if any."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    try:
        return (root / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return "unknown"


def provenance(root: Path, seed: int, inputs: dict) -> dict:
    """Where and on what a run happened (printed with every result)."""
    from repro import kernels
    from repro.shm import pick_context, shm_available

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "kernel_backend": kernels.resolve_backend("vectorized"),
        "shm_available": bool(shm_available()),
        "mp_start_method": pick_context().get_start_method(),
        "git_commit": git_commit(root),
        "workload_seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "inputs": inputs,
    }


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The warm pool's workers go first, then any other multiprocessing
    child, then the resource tracker that the first shared-memory
    segment (the ``shm_available`` probe included) starts: left alone,
    it outlives this process until it notices the closed pipe.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    from repro.shm import shutdown_warm_pool

    shutdown_warm_pool()
    for child in mp.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()  # noqa: SLF001


def resource_counters(service=None) -> dict:
    """Live /dev/shm segments, threads, open fds, and jobs held."""
    def count_dir(path: str) -> int:
        try:
            return len(os.listdir(path))
        except OSError:
            return -1

    out = {
        "shm_segments": count_dir("/dev/shm"),
        "threads": threading.active_count(),
        "fds": count_dir("/proc/self/fd"),
    }
    if service is not None:
        out["jobs_held"] = len(service.queue._jobs)  # noqa: SLF001
    return out


def check_coloring(graph, strategy: str, result) -> list[str]:
    """Every violation of the strategy's contract in one RunResult.

    Proper everywhere; distance-2 proper on the square cover for the d2
    rows; the Greedy-FF initial's color count kept where the registry
    promises ``same_color_count``.
    """
    from repro.bipartite import BipartiteGraph, is_partial_d2_proper
    from repro.coloring.strategies import STRATEGIES
    from repro.coloring.verify import is_proper

    bad = []
    coloring = result.coloring
    if not is_proper(graph, coloring):
        bad.append(f"{strategy}: improper coloring")
    if strategy.startswith("d2") and not is_partial_d2_proper(
            BipartiteGraph.square_cover(graph), coloring.colors):
        bad.append(f"{strategy}: not distance-2 proper")
    if STRATEGIES[strategy].same_color_count:
        if result.initial is None or (
                result.initial.num_colors != coloring.num_colors):
            bad.append(f"{strategy}: color count changed from the initial")
    return bad
