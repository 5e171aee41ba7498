"""The :func:`execute` front door: one pipeline for every (strategy, mode).

This is the single place where the repeated glue that used to live in
``__main__``, ``experiments/tables.py``, and ``experiments/ablations.py``
now happens exactly once:

1. look the strategy up in the Table-I registry and pick its
   implementation for the requested execution mode;
2. resolve the kernel tier once (``kernels.resolve_backend``) and run
   every later step inside ``kernels.use_backend`` of it, so no function
   below takes a backend argument;
3. split the root seed into independent children for the initial
   coloring and the strategy (``SeedSequence`` spawning, never a shared
   stream);
4. produce the Greedy-FF initial coloring for guided strategies (or
   accept a precomputed one);
5. run the strategy with the normalized signature
   ``impl(graph, initial, *, threads, seed, recorder, **kwargs)``;
6. verify the result's invariants (properness, coverage, color range,
   bin-size consistency) and apply the config's ``on_failure`` policy —
   raise, repair only the violating vertices, or fall back to the
   strategy's sequential implementation (see :mod:`repro.resilience`);
7. assemble the :class:`~repro.run.config.RunResult`: balance stats,
   execution trace, machine-time estimate, wall timings, and the
   resilience summary (faults injected/detected/recovered, degradations,
   repairs).
"""

from __future__ import annotations

from time import perf_counter

from .. import kernels
from ..coloring.balance import balance_report
from ..coloring.greedy import greedy_coloring
from ..coloring.strategies import STRATEGIES, _check_kwargs, split_seed
from ..coloring.types import Coloring
from ..graph.csr import CSRGraph
from ..machine import resolve_machine
from ..machine.model import estimate_time
from ..obs import as_recorder
from ..resilience import heal
from .config import RunConfig, RunResult

__all__ = ["execute", "supported_runs"]


def supported_runs() -> list[tuple[str, str]]:
    """Every (strategy, mode) pair the registry supports, in registry order."""
    return [(name, mode) for name, spec in STRATEGIES.items() for mode in spec.modes]


def _strategy_options(config: RunConfig, spec, impl) -> dict:
    """Merge the config's cross-cutting knobs into the strategy kwargs.

    Defaults are only forwarded where the implementation declares them;
    a *non-default* value the implementation cannot honor is an error —
    silently ignoring ``rounds=5`` for VFF would misreport what ran.
    """
    kwargs = dict(config.strategy_kwargs)
    for name, value, default in (
        ("rounds", config.rounds, 1),
        ("weight", config.weight, "unit"),
    ):
        if name in impl.accepts:
            kwargs.setdefault(name, value)
        elif value != default:
            raise ValueError(
                f"strategy {config.strategy!r} ({config.mode} mode) does not "
                f"take {name}; accepted options: {sorted(impl.accepts)}"
            )
    if config.fault_plan is not None:
        if "fault_plan" in impl.accepts:
            kwargs.setdefault("fault_plan", config.fault_plan)
        else:
            raise ValueError(
                f"strategy {config.strategy!r} ({config.mode} mode) has no "
                f"fault-injection points; accepted options: "
                f"{sorted(impl.accepts)}"
            )
    if spec.category == "ab_initio":
        if "ordering" in impl.accepts:
            kwargs.setdefault("ordering", config.ordering)
        elif config.ordering != "natural":
            raise ValueError(
                f"strategy {config.strategy!r} ({config.mode} mode) does not "
                f"take an ordering"
            )
    _check_kwargs(config.strategy, config.mode, impl, kwargs)
    return kwargs


def execute(
    graph: CSRGraph,
    config: RunConfig,
    *,
    initial: Coloring | None = None,
    recorder=None,
) -> RunResult:
    """Run one (strategy, mode) pipeline end to end on *graph*.

    For guided strategies the Greedy-FF initial coloring is produced here
    (honoring ``config.ordering`` and the initial child
    seed) unless a precomputed *initial* is passed — experiments that
    compare many strategies on one initial coloring pass it explicitly so
    it is computed once.  Ab initio strategies reject an *initial*.

    ``recorder`` resolves like everywhere else (explicit argument, then
    the process-installed recorder, then the no-op null sink) and is
    threaded through both phases; attaching one never changes results.

    The kernel tier is resolved once from ``config.backend`` (explicit
    name, else the caller's scope, the environment or ``vectorized``), and
    the initial coloring, the strategy, the heal and any fallback all run
    inside :func:`repro.kernels.use_backend` of it.

    Sequential-mode results are bit-identical to the legacy direct calls
    (``color_and_balance`` and the concrete functions) — the parity
    test-suite enforces this.
    """
    spec = STRATEGIES.get(config.strategy)
    if spec is None:
        raise ValueError(
            f"unknown strategy {config.strategy!r}; choose from {sorted(STRATEGIES)}"
        )
    impl = spec.implementation(config.mode)
    rec = as_recorder(recorder)
    tier = kernels.resolve_backend(config.backend)
    machine = resolve_machine(config.machine)
    if machine is not None and config.threads > machine.num_cores:
        raise ValueError(
            f"{machine.name} has {machine.num_cores} cores, asked for "
            f"{config.threads} threads"
        )
    kwargs = _strategy_options(config, spec, impl)

    if spec.category == "ab_initio":
        if initial is not None:
            raise ValueError(
                f"strategy {config.strategy!r} is ab initio and takes no "
                "initial coloring"
            )
        init_seed, strategy_seed = None, config.seed
    else:
        init_seed, strategy_seed = split_seed(config.seed)

    with kernels.use_backend(tier):
        t0 = perf_counter()
        if spec.category == "guided" and initial is None:
            initial = greedy_coloring(graph, choice="ff", ordering=config.ordering,
                                      seed=init_seed, recorder=rec)
        t1 = perf_counter()
        coloring = impl(graph, initial, threads=config.threads, seed=strategy_seed,
                        recorder=rec, **kwargs)
        t2 = perf_counter()

        # self-healing verification: audit the invariants every mode
        # promises (properness, full coverage, palette range) and apply the
        # on_failure policy; a clean check returns the coloring unchanged,
        # so healthy runs stay bit-identical to the legacy direct calls.
        strategy_meta = coloring.meta
        coloring, report = heal(
            graph, coloring, config.on_failure,
            fallback=lambda: _sequential_fallback(graph, config, spec, initial,
                                                  strategy_seed, rec),
            recorder=rec,
        )
    t3 = perf_counter()

    trace = coloring.meta.get("trace")
    machine_time = (
        estimate_time(trace, machine)
        if trace is not None and machine is not None
        else None
    )
    return RunResult(
        config=config,
        coloring=coloring,
        initial=initial,
        balance=balance_report(coloring),
        trace=trace,
        machine_time=machine_time,
        wall_s={"initial": t1 - t0, "strategy": t2 - t1, "verify": t3 - t2,
                "total": t3 - t0},
        recorder=rec,
        resilience={
            "on_failure": config.on_failure,
            "violations": report["violations"],
            "repaired": report["repaired"],
            "fallback": report["fallback"],
            "faults": strategy_meta.get("faults"),
            "degraded": bool(strategy_meta.get("degraded", False)),
            "watchdog_round": strategy_meta.get("watchdog_round"),
        },
    )


def _sequential_fallback(graph, config, spec, initial, strategy_seed, rec):
    """The ``on_failure="fallback"`` safe path: the sequential reference.

    Re-runs the same strategy's sequential implementation on the same
    initial coloring and seed, forwarding only the cross-cutting options
    that implementation declares (mode-specific ``strategy_kwargs`` like
    ``partition`` or ``fault_plan`` deliberately do not follow — the
    point of the fallback is a known-good deterministic path).
    """
    impl = spec.implementation("sequential")
    kwargs: dict = {}
    if "rounds" in impl.accepts:
        kwargs["rounds"] = config.rounds
    if "weight" in impl.accepts:
        kwargs["weight"] = config.weight
    if spec.category == "ab_initio" and "ordering" in impl.accepts:
        kwargs["ordering"] = config.ordering
    return impl(graph, initial, threads=1, seed=strategy_seed,
                recorder=rec, **kwargs)
