"""The library-user workloads: a closed loop of ``repro.run.execute`` calls.

``solve_seq`` runs a fixed job list in sequential mode; ``solve_mp`` runs
its mp-capable rows on the warm worker pool with two workers.  One
caller issues the jobs one after another, each as soon as the previous
returned a verified coloring.  A host-speed probe runs between jobs, and
every job time is scaled by the probes on either side of it (see
``common.probe``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from common import (BALANCING, check_coloring, median, peak_rss_mib, probe,
                    scaled, tail)

TABLE2 = ("uk2002", "copapers", "channel", "cnr")
#: Every input is the stand-in generated with this seed.  The workload
#: seed relabels the Table II graphs (see :func:`relabel`) instead of
#: drawing new instances: instances differ in size by up to 25% (clique
#: overlays with power-law sizes), which would make the work, and so the
#: makespan, swing with the seed.
INSTANCE = 0
RELABEL_BLOCK = 32
#: jacrand at half scale, where the one-sided drain of d2-balanced is the
#: heavy part of the job.  It is not relabeled: the drain's cost is
#: chaotic in the starting coloring (1 to 5 s across instances of one
#: size, in sequential and mp mode alike).
D2_SCALE = 0.5
SETUP_REPEATS = 3
#: Typical seconds per pass over each job list on 2 cores; sets how many
#: passes fill a run.
NOMINAL_PASS_S = {"sequential": 5.5, "mp": 4.5}

SEQ_JOBS = ([(name, 1.0, s) for name in TABLE2
             for s in ("greedy-ff", "vff", "sched-rev", "recoloring")]
            + [("jacrand", D2_SCALE, "d2-optimistic"),
               ("jacrand", D2_SCALE, "d2-balanced")])
MP_JOBS = ([(name, 1.0, "greedy-ff") for name in TABLE2]
           + [("jacrand", D2_SCALE, "d2-optimistic"),
              ("jacrand", D2_SCALE, "d2-balanced")])


def _config(strategy: str, mode: str, seed: int):
    from repro.run import RunConfig

    return RunConfig(strategy, mode=mode, threads=2 if mode == "mp" else 1,
                     backend="vectorized", seed=seed)


def relabel(graph, seed: int):
    """*graph* with its vertex ids shuffled inside blocks of RELABEL_BLOCK ids.

    The structure is untouched, so the work a job does stays nearly the
    same from seed to seed, while the natural vertex order every sweep
    follows, and so every coloring, differs.
    """
    from repro.graph.csr import CSRGraph

    n = graph.num_vertices
    rng = np.random.default_rng([seed, 0xB10C])
    new_to_old = np.argsort(np.arange(n) // RELABEL_BLOCK + rng.random(n),
                            kind="stable")
    old_to_new = np.empty(n, dtype=np.int64)
    old_to_new[new_to_old] = np.arange(n)
    rows = old_to_new[np.repeat(np.arange(n), np.diff(graph.indptr))]
    cols = old_to_new[graph.indices]
    order = np.argsort(rows * n + cols)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return CSRGraph(indptr, cols[order])


def _digest(colors) -> str:
    return hashlib.sha256(colors.tobytes()).hexdigest()


@dataclass
class Pass:
    """One pass over the job list."""

    wall_s: float  # raw wall time, probes included
    raw_s: list[float]  # per job, as timed
    scaled_s: list[float]  # per job, at reference host speed
    results: list


class SolveWorkload:
    """One job list, its inputs, and the passes run over it."""

    def __init__(self, mode: str, seed: int):
        self.mode = mode
        self.seed = seed
        self.jobs = MP_JOBS if mode == "mp" else SEQ_JOBS
        self.tracer = None  # set for the traced pass
        self.graphs: dict = {}
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.violations: list[str] = []
        self.phases: dict[str, float] = {}

    # ------------------------------------------------------------------
    def build_inputs(self) -> float:
        import repro.graph.datasets as datasets

        self.graphs = {}
        t0 = perf_counter()
        for name, scale, _ in self.jobs:
            if (name, scale) in self.graphs:
                continue
            graph = datasets.load_dataset(name, scale=scale, seed=INSTANCE)
            if name != "jacrand":
                graph = relabel(graph, self.seed)
            self.graphs[(name, scale)] = graph
        return perf_counter() - t0

    def prewarm(self) -> float:
        """Cold-start the warm worker pool (mp only)."""
        from repro.shm import warm_pool

        if self.mode != "mp":
            return 0.0
        t0 = perf_counter()
        warm_pool().ensure(2)
        return perf_counter() - t0

    def setup(self) -> float:
        """Build the inputs SETUP_REPEATS times, prewarm, one warm-up pass.

        Every phase is scaled by the probes on either side of it.
        Returns the median build time plus the prewarm and warm-up times.
        """
        builds = []
        for _ in range(SETUP_REPEATS):
            before = probe()
            seconds = self.build_inputs()
            builds.append(scaled(seconds, (before, probe())))
        before = probe()
        seconds = self.prewarm()
        prewarm = scaled(seconds, (before, probe()))
        warmup = sum(self.run_pass(check_against=False).scaled_s)
        self.phases = {"setup.graphs_s": median(builds),
                       "setup.prewarm_s": prewarm,
                       "setup.warmup_s": warmup}
        return median(builds) + prewarm + warmup

    @property
    def inputs(self) -> dict:
        return {f"{name}@{scale}": [g.num_vertices, g.num_edges]
                for (name, scale), g in self.graphs.items()}

    # ------------------------------------------------------------------
    def _solve(self, graph, strategy: str, mode: str):
        """One call: ``execute`` plus the gate; returns (seconds, result)."""
        import repro.run

        t0 = perf_counter()
        result = repro.run.execute(graph, _config(strategy, mode, self.seed))
        if self.tracer is not None:
            bad = self.tracer.span("coloring.verify", check_coloring,
                                   graph, strategy, result)
        else:
            bad = check_coloring(graph, strategy, result)
        seconds = perf_counter() - t0
        self.attempted += 1
        self.violations.extend(bad)
        return seconds, result

    def run_pass(self, *, check_against: bool = True) -> Pass:
        """Run every job once, with a probe before the first and after each.

        The traced pass takes no probes, so they do not show up as
        unattributed time.
        """
        traced = self.tracer is not None
        probes = [] if traced else [probe()]
        raw, results = [], []
        t_pass = perf_counter()
        for i, (name, scale, strategy) in enumerate(self.jobs):
            if traced:
                self.tracer.set_job(i)
            seconds, result = self._solve(self.graphs[(name, scale)],
                                          strategy, self.mode)
            if not traced:
                probes.append(probe())
            digest = _digest(result.coloring.colors)
            if not check_against:
                self.reference[i] = digest
            elif digest != self.reference[i]:
                self.violations.append(f"{strategy} on {name}: coloring "
                                       "differs between passes")
            raw.append(seconds)
            results.append(result)
        wall = perf_counter() - t_pass
        scaled_s = ([] if traced else
                    [scaled(s, probes[i:i + 2]) for i, s in enumerate(raw)])
        return Pass(wall, raw, scaled_s, results)

    def measure(self, seconds: float) -> list[Pass]:
        """As many timed passes as fill *seconds* at the nominal pass time.

        The count depends on *seconds* only, never on how fast this
        machine is today, so every run of a workload has the same number
        of per-call samples and its tail percentile always lands on the
        same rank.
        """
        count = max(2, round(seconds / NOMINAL_PASS_S[self.mode]))
        return [self.run_pass() for _ in range(count)]

    @staticmethod
    def per_job(passes: list[Pass], field: str = "scaled_s") -> list[float]:
        """Each job's median time over *passes*."""
        return [median(times)
                for times in zip(*(getattr(p, field) for p in passes))]

    # ------------------------------------------------------------------
    def end_to_end(self, setup_s: float, seconds: float) -> dict:
        passes = self.measure(seconds)
        results = passes[-1].results
        balanced = [r.balance.rsd_percent for (_, _, s), r
                    in zip(self.jobs, results) if s in BALANCING]
        jobs = self.per_job(passes)
        makespan = sum(jobs)
        calls = [t * 1e3 for p in passes for t in p.scaled_s]
        value, pct, n = tail(calls)
        print(f"# {len(passes)} passes, raw pass walls "
              f"{[round(p.wall_s, 3) for p in passes]} s; makespan "
              f"{makespan:.3f} s at reference speed, "
              f"{sum(self.per_job(passes, 'raw_s')):.3f} s raw; per-call "
              f"tail p{pct:.1f} of {n} calls {value:.2f} ms")
        # repro.run keeps no result cache: every call of a timed pass
        # repeats a warm-up request and is recomputed, so the hit and the
        # miss path are the same samples here.  The p50 is the median
        # job's median, which stays put where a per-call median would
        # jump between the clusters of a mixed-size job list.
        p50 = median(jobs) * 1e3
        return {
            "setup_s": (setup_s, "s"),
            "makespan_s": (makespan, "s"),
            "rsd_pct": (sum(balanced) / len(balanced), "%"),
            "colors": (sum(r.coloring.num_colors for r in results), "count"),
            "hit_p50_ms": (p50, "ms"),
            "miss_p50_ms": (p50, "ms"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }

    def twin_report(self, passes: list[Pass]) -> dict:
        """Each mp job's time over its sequential twin's, with the base."""
        out = {}
        print("# seq-vs-mp (mp time / sequential time, 2 workers, "
              "reference speed):")
        for (name, scale, strategy), mp_s in zip(self.jobs,
                                                 self.per_job(passes)):
            graph = self.graphs[(name, scale)]
            # timed like a pass: execute plus the gate, between probes
            seq = []
            for _ in range(2):
                before = probe()
                seconds = self._solve(graph, strategy, "sequential")[0]
                seq.append(scaled(seconds, (before, probe())))
            seq_s = median(seq)
            ratio = mp_s / seq_s
            verdict = "mp loses" if ratio > 1 else "mp wins"
            print(f"#   {strategy:>13} on {name}@{scale}: mp {mp_s * 1e3:8.1f} ms"
                  f" / seq {seq_s * 1e3:8.1f} ms = {ratio:5.2f}x  ({verdict})")
            key = f"mp_vs_seq.{name}.{strategy}"
            out[key] = (ratio, "ratio")
            out[key + ".seq_ms"] = (seq_s * 1e3, "ms")
        return out
