"""The service workload: an open loop through the HTTP front's routing core.

Requests ``{"input", "scale": 0.25, "seed", "config"}`` go through
``repro.serve.api.dispatch`` (``POST /submit``, ``GET /result/<id>``) to a
``ColoringService`` with a durable sqlite store and its pump running;
that is the service ``repro serve --store DIR`` runs.  About half the
requests repeat an earlier, finished one (cache hits); the rest are new
and compute, write the store and spill their result.

Arrivals follow a seeded Poisson schedule at the fixed ``RATE``.  Two
sender threads issue the requests, each when it is due.  Each admitted
request gets a waiter thread that blocks in ``Job.wait`` and stamps the
moment it returns, which comes after the terminal store write.  Latency
runs from the moment a request was due to that stamp, so senders that
fall behind their schedule show up in every later request.  Each
latency is scaled to reference host speed by the host-speed probes the
main thread took nearest its due time (see ``common.probe``).
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from common import (BALANCING, check_coloring, median, peak_rss_mib, probe,
                    resource_counters, scaled, tail)

SCALE = 0.25
#: Three quarters cnr, one quarter channel, whose dataset builds take
#: 32 and 16 ms: the median of either latency class sits inside the cnr
#: cluster, not in a gap between input sizes.  copapers is left out: its
#: ~100 ms rebuild on a sender, under the interpreter lock, stretched every
#: request that overlapped it, and the medians moved by half from seed to
#: seed with the arrival pattern.
INPUT_CYCLE = ("cnr", "channel", "cnr", "cnr")
STRATEGIES = ("greedy-ff", "vff", "cff", "sched-rev")
#: Every request names generator seed 0 of its input.  Instances of one
#: input differ in size by up to 25%, and the per-request dataset build
#: dominates hit latency, so a mix of instances would move the hit median
#: with the mix.  New requests get their own keys from their config seeds.
INSTANCE = 0
#: Offered load in requests per second: about half of what the pump can
#: compute when every request is a miss (about 16/s, measured on 2 cores).
RATE = 8
#: A repeat names a request due at least this long before it, which has
#: finished by then (a miss takes well under a second), so every repeat
#: reads the result cache.  Repeats of in-flight requests would be dedup
#: hits with miss latencies, and how many of them a schedule holds would
#: depend on its arrival times.
REPEAT_AGE_S = 1.0
#: Arrivals are drawn RATE * STRATUM_S at a time in consecutive windows
#: of this length (see :func:`make_schedule`).
STRATUM_S = 0.5
SETUP_REPEATS = 3
#: A sender whose median lateness passes this has not kept the open loop.
LATE_LIMIT_MS = 25.0
#: How long the service may take to finish its backlog once sending stops.
DRAIN_LIMIT_S = 60.0
#: Seconds between host-speed probes while a schedule runs.  Each probe
#: holds the interpreter lock for about 4 ms, at most 2% of the time.
PROBE_PERIOD_S = 0.2
#: A latency is scaled by the median of this many probes, the ones taken
#: nearest its due time: about two seconds of schedule.
NEAR_PROBES = 9
_WARMUP_SEED = 1 << 31  # graph seeds at or above this never occur in a schedule


@dataclass
class Request:
    index: int
    due: float
    body: dict
    first: int  # index of the first request with this body (itself if new)
    job_id: int | None = None
    error: str | None = None
    source: str | None = None
    done_at: float | None = None  # perf_counter when Job.wait returned
    latency_ms: float | None = None  # raw: due -> done_at
    sent_late_ms: float = 0.0


def make_schedule(seed: int, seconds: float) -> list[Request]:
    """``RATE * STRATUM_S`` requests in every STRATUM_S, at Poisson times.

    Within each window the times are sorted uniforms, which is a Poisson
    process conditioned on its count.  Fixing the count per window, not
    only per run, keeps seeds from differing in how long a burst lasts:
    the latency tail sits where a few per cent of requests queue behind
    a burst, and with free counts that share moved with the seed.
    New and repeat requests alternate.  Both follow ``INPUT_CYCLE``, and
    new requests cycle through every strategy.  Two seeds differ in
    arrival times, config seeds and which earlier request a repeat
    names.  How many requests of each kind they send differs only in the
    first seconds, where a repeat with no request old enough is sent as
    a new request instead.
    """
    rng = np.random.default_rng([seed, 0x5E5E])
    per = round(RATE * STRATUM_S)
    due = np.concatenate([np.sort(rng.uniform(k, k + 1, per)) * STRATUM_S
                          for k in range(max(1, round(seconds / STRATUM_S)))])
    schedule: list[Request] = []
    originals: dict[str, list[int]] = {name: [] for name in INPUT_CYCLE}
    new = repeats = 0
    for i, t in enumerate(due):
        name = INPUT_CYCLE[(new if i % 2 == 0 else repeats) % len(INPUT_CYCLE)]
        old = [k for k in originals[name] if schedule[k].due <= t - REPEAT_AGE_S]
        if i % 2 == 1 and old:
            repeats += 1
            first = old[int(rng.integers(len(old)))]
            body = schedule[first].body
        else:
            strategy = STRATEGIES[(new // len(INPUT_CYCLE)) % len(STRATEGIES)]
            new += 1
            first = i
            originals[name].append(i)
            # a fresh config seed gives every new request its own key
            body = {"input": name, "scale": SCALE, "seed": INSTANCE,
                    "config": {"strategy": strategy, "backend": "vectorized",
                               "seed": int(rng.integers(1 << 30))}}
        schedule.append(Request(i, float(t), body, first))
    return schedule


def _nearest(probes: list[tuple[float, float]], at: float) -> list[float]:
    """The NEAR_PROBES probe readings taken nearest the time *at*."""
    return [v for _, v in sorted(probes, key=lambda p: abs(p[0] - at))
            [:NEAR_PROBES]]


def _warmup_bodies() -> list[dict]:
    """Every strategy on every input once, then four of them again."""
    bodies = [{"input": name, "scale": SCALE, "seed": _WARMUP_SEED + k,
               "config": {"strategy": strategy, "backend": "vectorized",
                          "seed": k}}
              for k, (name, strategy) in enumerate(
                  (n, s) for n in sorted(set(INPUT_CYCLE)) for s in STRATEGIES)]
    return bodies + bodies[:4]


class ServeMix:
    """One service life per schedule: open, warm up, serve, verify, close."""

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        scratch = root / ".perfbench-work"
        scratch.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
        self.services: list = []
        self.attempted = 0
        self.violations: list[str] = []
        self.phases: dict[str, float] = {}
        self.inputs: dict = {}

    # ------------------------------------------------------------------
    def open_service(self):
        """A started durable service that has served a warm-up batch."""
        from repro.serve import ColoringService
        from repro.serve.api import dispatch

        t0 = perf_counter()
        service = ColoringService(store=self.workdir / f"store{len(self.services)}")
        service.start()
        self.services.append(service)
        t1 = perf_counter()
        for body in _warmup_bodies():
            status, payload = dispatch(service, "POST", "/submit", body)
            if status != 202:
                raise RuntimeError(f"warm-up submit refused: {payload}")
            service.result(payload["job_id"]).wait(60)
        t2 = perf_counter()
        return service, t1 - t0, t2 - t1

    def setup(self) -> float:
        """Open a warmed-up service SETUP_REPEATS times; the median open.

        Each open is scaled by the probes on either side of it; the last
        service stays open for the measured schedule.
        """
        opens, warms = [], []
        service = None
        for _ in range(SETUP_REPEATS):
            if service is not None:
                self.close(service)
            before = probe()
            service, opened, warmed = self.open_service()
            probes = (before, probe())
            opens.append(scaled(opened, probes))
            warms.append(scaled(warmed, probes))
        self.phases = {"setup.service_s": median(opens),
                       "setup.warmup_s": median(warms)}
        return median(o + w for o, w in zip(opens, warms))

    def close(self, service) -> None:
        service.stop(purge_spill=True)

    def cleanup(self) -> None:
        for service in self.services:
            if service.pump_alive:
                service.stop(purge_spill=True)
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    # ------------------------------------------------------------------
    def run_schedule(self, service, schedule: list[Request], tracer=None) -> dict:
        """Serve *schedule* open-loop; returns timing facts of the run."""
        from repro.serve.api import dispatch

        order = iter(schedule)
        take = threading.Lock()
        waiters: list[threading.Thread] = []
        busy = [0]  # requests sent and not yet completed
        base_perf = perf_counter()
        wait_limit = schedule[-1].due + DRAIN_LIMIT_S

        def await_done(req: Request, job) -> None:
            if job.wait(wait_limit):
                req.done_at = perf_counter()
            with take:
                busy[0] -= 1

        def send():
            while True:
                with take:
                    req = next(order, None)
                if req is None:
                    return
                due = base_perf + req.due
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                req.sent_late_ms = max(0.0, (perf_counter() - due) * 1e3)
                with take:
                    busy[0] += 1
                if tracer is not None:
                    tracer.set_job(req.index)
                    status, payload = tracer.span(
                        "serve.api.submit", dispatch, service, "POST",
                        "/submit", req.body)
                else:
                    status, payload = dispatch(service, "POST", "/submit",
                                               req.body)
                if status != 202:
                    req.error = payload.get("error", str(status))
                    with take:
                        busy[0] -= 1
                    continue
                req.job_id = payload["job_id"]
                if tracer is not None:
                    tracer.key_to_job.setdefault(payload["key"], req.job_id)
                # one waiter per request: a hit that completes behind a
                # slower miss is stamped when it completes, not after it
                waiter = threading.Thread(
                    target=await_done, args=(req, service.result(req.job_id)),
                    name=f"bench-waiter-{req.index}", daemon=True)
                with take:
                    waiters.append(waiter)
                waiter.start()

        # two senders, so one slow dataset build does not hold back the
        # requests due behind it
        threads = [threading.Thread(target=send, name=f"bench-sender-{k}")
                   for k in range(2)]
        for t in threads:
            t.start()
        # a host-speed probe every PROBE_PERIOD_S, each put off until no
        # request is in flight: beside a busy service thread the probe
        # would read its contention too.  Skipping busy ticks instead
        # would leave slow stretches, when the service is rarely idle,
        # with few probes.
        probes = []
        while any(t.is_alive() for t in threads):
            time.sleep(PROBE_PERIOD_S)
            while busy[0] and any(t.is_alive() for t in threads):
                time.sleep(0.005)
            probes.append((perf_counter() - base_perf, probe()))
        for t in threads:
            t.join()
        for waiter in waiters:
            waiter.join(max(0.0, base_perf + wait_limit - perf_counter()))
        # the service is idle again
        probes += [(perf_counter() - base_perf, probe()) for _ in range(5)]
        for req in schedule:
            if req.job_id is None:
                continue
            if req.done_at is None:
                req.error = f"no result {DRAIN_LIMIT_S:g} s after the schedule"
                continue
            _, payload = dispatch(service, "GET", f"/result/{req.job_id}")
            req.source = payload.get("source")
            if payload.get("status") != "done":
                req.error = payload.get("error", "job failed")
                continue
            req.latency_ms = (req.done_at - base_perf - req.due) * 1e3
        end_perf = max((r.done_at for r in schedule if r.done_at is not None),
                       default=base_perf)
        return {"base_perf": base_perf, "end_perf": end_perf,
                "makespan_s": end_perf - base_perf, "probes": probes}

    def verify(self, service, schedule: list[Request]) -> None:
        """Gate every reply: proper, contract kept, repeats identical."""
        digests: dict[int, str] = {}
        for req in schedule:
            self.attempted += 1
            if req.error is not None or req.latency_ms is None:
                self.violations.append(
                    f"request {req.index}: {req.error or 'no result'}")
                continue
            job = service.result(req.job_id)
            strategy = req.body["config"]["strategy"]
            self.violations.extend(
                f"request {req.index}: {v}"
                for v in check_coloring(job.graph, strategy, job.result))
            digest = hashlib.sha256(
                job.result.coloring.colors.tobytes()).hexdigest()
            if digests.setdefault(req.first, digest) != digest:
                self.violations.append(
                    f"request {req.index}: differs from request {req.first}")
            name = req.body["input"]
            self.inputs.setdefault(
                f"{name}@{SCALE}#{req.body['seed']}",
                [job.graph.num_vertices, job.graph.num_edges])

    # ------------------------------------------------------------------
    @staticmethod
    def classes(schedule: list[Request]) -> dict[str, list[Request]]:
        served = [r for r in schedule if r.latency_ms is not None]
        return {"hit": [r for r in served if r.source in ("cache", "dedup")],
                "miss": [r for r in served if r.source == "computed"]}

    def late_ok(self, schedule: list[Request]) -> bool:
        late = [r.sent_late_ms for r in schedule]
        p50, worst = median(late), max(late)
        print(f"# sender lateness: p50 {p50:.2f} ms, max {worst:.1f} ms "
              f"over {len(late)} requests")
        if p50 > LATE_LIMIT_MS:
            self.violations.append(
                f"sender ran late (p50 {p50:.1f} ms > {LATE_LIMIT_MS} ms): "
                "the open loop did not keep its schedule")
            return False
        return True

    def end_to_end(self, setup_s: float, seconds: float) -> dict:
        service = self.services[-1]
        schedule = make_schedule(self.seed, seconds)
        before = resource_counters(service)
        facts = self.run_schedule(service, schedule)
        after = resource_counters(service)
        print(f"# resources before: {before}")
        print(f"# resources after:  {after}")
        self.late_ok(schedule)
        self.verify(service, schedule)
        probes = facts["probes"]
        print(f"# host probe p50 {median(v for _, v in probes) * 1e3:.2f} ms "
              f"over {len(probes)} probes")
        # quality over the distinct computed jobs: repeats name random
        # earlier requests, so counting them would make these seed noise
        served = [service.result(r.job_id).result for r in schedule
                  if r.source == "computed"]
        balanced = [res.balance.rsd_percent for res in served
                    if res.config.strategy in BALANCING]
        out = {"setup_s": (setup_s, "s"),
               "makespan_s": (facts["makespan_s"], "s"),
               "rsd_pct": (sum(balanced) / max(1, len(balanced)), "%"),
               "colors": (sum(res.coloring.num_colors for res in served),
                          "count")}
        # latencies at reference host speed; the makespan stays raw, as
        # it is set by the schedule's length
        for label, reqs in self.classes(schedule).items():
            sample = [scaled(r.latency_ms, _nearest(probes, r.due))
                      for r in reqs]
            value, pct, n = tail(sample)
            print(f"# {label}: {n} samples, p50 {median(sample):.2f} ms (raw "
                  f"{median(r.latency_ms for r in reqs):.2f}), tail "
                  f"p{pct:.1f} {value:.2f} ms")
            # the tails are printed only: see "Tails" in README.md
            out[f"{label}_p50_ms"] = (median(sample), "ms")
        out["peak_rss_mib"] = (peak_rss_mib(), "MiB")
        return out
