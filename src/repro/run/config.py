"""The :class:`RunConfig` / :class:`RunResult` value types of the run layer.

A :class:`RunConfig` is a complete, immutable description of one coloring
run: which Table-I strategy, in which execution mode, at what thread
count, priced on which machine model — plus the cross-cutting options
(kernel backend, initial-coloring vertex order, seed, scheduled-move
rounds, balance weight) that previously had to be threaded by hand into
each concrete function.  :func:`repro.run.execute` turns a config into a
:class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Any, Mapping

from ..coloring.balance import BalanceReport
from ..coloring.strategies import MODES
from ..coloring.types import Coloring
from ..machine.model import MachineModel, TimeBreakdown
from ..resilience import ON_FAILURE_POLICIES, FaultPlan

__all__ = ["RunConfig", "RunResult"]


_JSON_SCALARS = (type(None), bool, int, float, str)


def _check_json_ready(value, path: str) -> None:
    """Reject values that would not survive a JSON round-trip, by name."""
    if isinstance(value, _JSON_SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_json_ready(item, f"{path}[{i}]")
        return
    if isinstance(value, Mapping):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError(
                    f"{path} key {key!r} must be a string to serialize"
                )
            _check_json_ready(item, f"{path}[{key!r}]")
        return
    raise ValueError(
        f"{path} holds a {type(value).__name__}, which does not survive a "
        "JSON round-trip; use plain ints/floats/strings/lists/dicts"
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one coloring run.

    Parameters mirror the knobs of the paper's experiments:

    - ``strategy``: a Table-I registry name (see ``repro.coloring.STRATEGIES``).
    - ``mode``: ``"sequential"`` (reference algorithms), ``"superstep"``
      (tick-machine speculation schemes), or ``"mp"`` (real threads).
    - ``threads``: simulated threads (superstep) or team threads (mp);
      must stay 1 in sequential mode.
    - ``machine``: optional machine model (or its registry name,
      ``"tilegx36"`` / ``"x7560"``) used to price the execution trace.
    - ``backend``: kernel backend (``"reference"`` / ``"vectorized"``);
      resolved once and applied wherever a kernel-backed sweep runs.
    - ``ordering``: vertex order for the (initial) greedy coloring.
    - ``seed``: root seed; guided runs derive independent child seeds for
      the initial coloring and the strategy (never the same stream twice).
    - ``rounds``: re-plan rounds for the scheduled-move strategies.
    - ``weight``: balance objective for sequential shuffling
      (``"unit"`` class cardinality, ``"degree"`` class work).
    - ``strategy_kwargs``: extra options forwarded to the implementation
      (validated against the options it declares).
    - ``on_failure``: what :func:`repro.run.execute` does when the post-run
      invariant check fails — ``"raise"`` (default), ``"repair"`` (re-color
      only the violating vertices sequentially), or ``"fallback"`` (re-run
      the strategy's sequential implementation).
    - ``fault_plan``: a :class:`repro.resilience.FaultPlan` (or its spec
      string) injected into the execution for resilience testing; faults
      replay bit-identically for equal plans and seeds.
    """

    strategy: str
    mode: str = "sequential"
    threads: int = 1
    machine: str | MachineModel | None = None
    backend: str | None = None
    ordering: str = "natural"
    seed: Any = None
    rounds: int = 1
    weight: str = "unit"
    strategy_kwargs: Mapping[str, Any] = field(default_factory=dict)
    on_failure: str = "raise"
    fault_plan: FaultPlan | str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {list(MODES)}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.mode == "sequential" and self.threads != 1:
            raise ValueError(
                f"sequential mode runs on one thread, got threads={self.threads}; "
                "use mode='superstep' or mode='mp' for parallel runs"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.weight not in ("unit", "degree"):
            raise ValueError(f"weight must be 'unit' or 'degree', got {self.weight!r}")
        if self.on_failure not in ON_FAILURE_POLICIES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_POLICIES}, "
                f"got {self.on_failure!r}"
            )
        if isinstance(self.fault_plan, str):
            # parse eagerly so typos fail at config time, not mid-run
            object.__setattr__(
                self, "fault_plan", FaultPlan.from_spec(self.fault_plan)
            )
        elif self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                f"fault_plan must be a FaultPlan or spec string, "
                f"got {type(self.fault_plan).__name__}"
            )
        # freeze the kwargs mapping so the config stays value-like
        object.__setattr__(
            self, "strategy_kwargs", MappingProxyType(dict(self.strategy_kwargs))
        )

    def replace(self, **changes) -> "RunConfig":
        """A copy with *changes* applied, fully re-validated.

        The frozen-dataclass idiom (``dataclasses.replace``) wrapped so
        derived configs — the sharded backend rewriting ``mode`` /
        ``threads``, experiment sweeps varying one knob — go back
        through ``__post_init__`` and fail eagerly on illegal
        combinations instead of deep inside a run.
        """
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)

    # ------------------------------------------------------------------
    # serialization (cache keys, submit API, archival)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON dict that :meth:`from_dict` restores exactly.

        Every field is reduced to JSON scalars/containers: a
        :class:`~repro.machine.model.MachineModel` becomes its registry
        name, a :class:`~repro.resilience.FaultPlan` its spec string (plus
        its corruption seed when non-zero).  Values that cannot survive
        the round-trip — a custom machine instance, a non-JSON seed or
        strategy kwarg — raise ``ValueError`` naming the offending field,
        so cache keys and submit payloads never silently lose information.
        """
        machine = self.machine
        if isinstance(machine, MachineModel):
            from ..machine import MACHINES

            if machine.name not in MACHINES:
                raise ValueError(
                    f"machine {machine.name!r} is not a registry model; "
                    "a custom MachineModel instance cannot be serialized — "
                    "pass its registry name instead"
                )
            machine = machine.name
        _check_json_ready(self.seed, "seed")
        _check_json_ready(dict(self.strategy_kwargs), "strategy_kwargs")
        plan = self.fault_plan
        if isinstance(plan, FaultPlan):
            plan = (plan.to_spec() if plan.seed == 0
                    else {"spec": plan.to_spec(), "seed": plan.seed})
        return {
            "strategy": self.strategy,
            "mode": self.mode,
            "threads": self.threads,
            "machine": machine,
            "backend": self.backend,
            "ordering": self.ordering,
            "seed": self.seed,
            "rounds": self.rounds,
            "weight": self.weight,
            "strategy_kwargs": dict(self.strategy_kwargs),
            "on_failure": self.on_failure,
            "fault_plan": plan,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Inverse of :meth:`to_dict`; validation errors name the field.

        Missing optional fields take their dataclass defaults, so partial
        dicts (e.g. a submit-API payload carrying only ``strategy`` and
        ``seed``) are accepted; unknown keys are rejected by name rather
        than silently dropped.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"RunConfig.from_dict needs a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown RunConfig field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        if "strategy" not in data:
            raise ValueError("RunConfig.from_dict requires a 'strategy' field")
        kwargs = dict(data)
        for name, types in (
            ("strategy", str), ("mode", str), ("ordering", str),
            ("weight", str), ("on_failure", str),
        ):
            if name in kwargs and not isinstance(kwargs[name], types):
                raise ValueError(
                    f"field {name!r} must be a string, "
                    f"got {type(kwargs[name]).__name__}"
                )
        for name in ("threads", "rounds"):
            if name in kwargs and (
                isinstance(kwargs[name], bool) or not isinstance(kwargs[name], int)
            ):
                raise ValueError(
                    f"field {name!r} must be an int, "
                    f"got {type(kwargs[name]).__name__}"
                )
        for name in ("machine", "backend"):
            if kwargs.get(name) is not None and not isinstance(kwargs[name], str):
                raise ValueError(
                    f"field {name!r} must be a string or null, "
                    f"got {type(kwargs[name]).__name__}"
                )
        sk = kwargs.get("strategy_kwargs", {})
        if not isinstance(sk, Mapping):
            raise ValueError(
                f"field 'strategy_kwargs' must be a mapping, "
                f"got {type(sk).__name__}"
            )
        plan = kwargs.get("fault_plan")
        if isinstance(plan, Mapping):
            extra = sorted(set(plan) - {"spec", "seed"})
            if extra or "spec" not in plan:
                raise ValueError(
                    "field 'fault_plan' mapping must have keys "
                    f"{{'spec', 'seed'}}, got {sorted(plan)}"
                )
            try:
                kwargs["fault_plan"] = FaultPlan.from_spec(
                    plan["spec"], seed=int(plan.get("seed", 0))
                )
            except ValueError as exc:
                raise ValueError(f"field 'fault_plan': {exc}") from None
        elif isinstance(plan, str):
            try:
                kwargs["fault_plan"] = FaultPlan.from_spec(plan)
            except ValueError as exc:
                raise ValueError(f"field 'fault_plan': {exc}") from None
        elif plan is not None:
            raise ValueError(
                f"field 'fault_plan' must be a spec string, a "
                f"{{'spec', 'seed'}} mapping, or null, got {type(plan).__name__}"
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class RunResult:
    """Everything one :func:`repro.run.execute` call produced.

    ``balance`` is computed from the final coloring by
    :func:`repro.coloring.balance_report` — the parity test-suite asserts
    it always matches a direct recomputation.  ``trace`` is the tick
    machine's :class:`~repro.parallel.engine.ExecutionTrace` when the mode
    produced one (superstep modes only), and ``machine_time`` prices that
    trace on ``config.machine`` when both exist.  ``wall_s`` holds real
    wall-clock phase timings (``initial`` / ``strategy`` / ``verify`` /
    ``total``), and ``recorder`` is whatever observability sink the run
    resolved to.

    ``resilience`` summarizes the run's fault story: the post-run
    invariant ``violations`` found (per kind) and how the ``on_failure``
    policy resolved them (``repaired`` vertex count / ``fallback`` flag),
    plus whatever the execution layer itself reported — injected /
    detected / recovered ``faults``, the ``degraded`` flag and sequential
    ``residual`` of the mp backend, and the superstep watchdog's
    ``watchdog_round``.  A clean run reports empty violations and all-zero
    counts, so the field is always present and comparable.
    """

    config: RunConfig
    coloring: Coloring
    initial: Coloring | None
    balance: BalanceReport
    trace: Any | None
    machine_time: TimeBreakdown | None
    wall_s: Mapping[str, float]
    recorder: Any
    resilience: Mapping[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        """One human line: what ran and how balanced/fast it came out."""
        cfg = self.config
        bits = [
            f"{cfg.strategy} [{cfg.mode}, p={cfg.threads}]",
            f"n={self.coloring.num_vertices}",
            f"C={self.coloring.num_colors}",
            f"rsd={self.balance.rsd_percent:.2f}%",
            f"gamma={self.balance.gamma:.1f}",
        ]
        if self.trace is not None:
            bits.append(f"supersteps={self.trace.num_supersteps}")
            bits.append(f"conflicts={self.trace.total_conflicts}")
        if self.machine_time is not None:
            machine = cfg.machine if isinstance(cfg.machine, str) else cfg.machine.name
            bits.append(f"model={self.machine_time.total_s * 1e3:.3f}ms on {machine}")
        bits.append(f"wall={self.wall_s['total']:.3f}s")
        res = self.resilience
        if res:
            faults = res.get("faults") or {}
            if faults.get("detected"):
                bits.append(f"faults={faults['detected']}"
                            f"(recovered={faults.get('recovered', 0)})")
            if res.get("repaired"):
                bits.append(f"repaired={res['repaired']}")
            if res.get("fallback"):
                bits.append("fallback=sequential")
            if res.get("degraded"):
                bits.append("degraded")
        return "  ".join(bits)
