"""Deterministic fault injection for the parallel execution paths.

The speculation-and-iteration framework the paper builds on assumes every
round completes and every proposal arrives; this module makes that
assumption *testable* by injecting the failures a real deployment sees —
stalls, corrupted proposals, stale snapshots, and rounds that simply
make no progress — at precisely chosen points, from a seeded
plan, so the same failure replays bit-identically.

A :class:`FaultPlan` is a value: an immutable tuple of :class:`FaultSpec`
entries plus a seed.  The execution layers consult it at well-defined
injection points:

- ``stall`` fires *inside* a block's task on the mp thread team (a
  sleep longer than the round timeout), exercising the hung-block
  detection path of :func:`repro.parallel.mp.run_rounds`;
- ``corrupt`` tampers with a block's returned color proposals before the
  merge, exercising proposal validation;
- ``stale`` serves a block the *previous* round's colors snapshot,
  exercising conflict-retry convergence under outdated reads;
- ``stick`` wastes whole superstep rounds (the round's commits are
  discarded), exercising the convergence watchdog of the tick-machine
  loops.

Beyond the algorithm-level faults above, the same plan grammar drives
**IO-level chaos** against the serving stack (the site consults
:meth:`FaultPlan.for_op` with a 0-based *occurrence index* in place of a
round):

- ``storeerr`` — the N-th job-store transition raises ``StoreError``,
  exercising best-effort durability (memory stays the source of truth).

Plans parse from a compact spec string (CLI ``--fault-plan``, env
``REPRO_FAULT_PLAN``)::

    stall@r0.w2:1.5         block 2 sleeps 1.5 s in round 0
    corrupt@r0.w1           corrupt block 1's proposals in round 0
    stale@r2.w0             serve block 0 a stale snapshot in round 2
    stick@r0:4              rounds 0..3 commit nothing (superstep loops)
    stall@r0.w0x3           fire on the first 3 attempts (retries included)
    storeerr@r1x2           store transitions 1..2 raise StoreError

Multiple faults join with ``;``.  Rounds, workers, and occurrence
indices are 0-based.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "PROCESS_FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "NO_FAULTS",
    "resolve_fault_plan",
]

#: Worker-task faults, matched by (round, worker) via :meth:`FaultPlan.for_task`.
WORKER_FAULT_KINDS = ("stall", "corrupt", "stale")

#: IO chaos faults, matched by occurrence index via
#: :meth:`FaultPlan.for_op` at the job store's transitions.
PROCESS_FAULT_KINDS = ("storeerr",)

#: Recognized fault kinds, by injection point.
FAULT_KINDS = WORKER_FAULT_KINDS + ("stick",) + PROCESS_FAULT_KINDS

#: Environment variable consulted when no plan is passed explicitly.
ENV_VAR = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure: what, when, and how often.

    ``round`` is the 0-based speculation/superstep round — or, for the
    IO chaos kinds, the 0-based *occurrence index* at the injection
    site (the store transition).  ``worker`` is the 0-based
    block/worker index (ignored for ``stick`` and the IO kinds).
    ``duration`` is the stall sleep in seconds, or the number of wasted
    rounds for ``stick``.  ``attempts`` makes the fault fire on the
    first N attempts of the same (round, worker) task — or, for the
    chaos kinds, on N consecutive occurrences starting at ``round`` —
    so a plan can also defeat retries and force the salvage path.
    """

    kind: str
    round: int
    worker: int = 0
    duration: float = 1.0
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.round < 0:
            raise ValueError(f"fault round must be >= 0, got {self.round}")
        if self.worker < 0:
            raise ValueError(f"fault worker must be >= 0, got {self.worker}")
        if self.duration <= 0:
            raise ValueError(f"fault duration must be > 0, got {self.duration}")
        if self.attempts < 1:
            raise ValueError(f"fault attempts must be >= 1, got {self.attempts}")

    def to_spec(self) -> str:
        """The compact string form this spec parses back from."""
        text = f"{self.kind}@r{self.round}"
        if self.kind in WORKER_FAULT_KINDS:
            text += f".w{self.worker}"
        if self.kind == "stall":
            text += f":{self.duration:g}"
        elif self.kind == "stick":
            text += f":{int(self.duration)}"
        if self.attempts != 1:
            text += f"x{self.attempts}"
        return text


_SPEC_RE = re.compile(
    r"^(?P<kind>[a-z]+)@r(?P<round>\d+)"
    r"(?:\.w(?P<worker>\d+))?"
    r"(?::(?P<duration>\d+(?:\.\d+)?))?"
    r"(?:x(?P<attempts>\d+))?$"
)


def _parse_one(token: str) -> FaultSpec:
    m = _SPEC_RE.match(token.strip())
    if m is None:
        raise ValueError(
            f"malformed fault spec {token!r}; expected kind@rN[.wM][:dur][xK] "
            f"with kind in {FAULT_KINDS}"
        )
    kind = m.group("kind")
    if kind in WORKER_FAULT_KINDS and m.group("worker") is None:
        raise ValueError(f"fault spec {token!r} needs a worker (.wM) for kind {kind!r}")
    return FaultSpec(
        kind=kind,
        round=int(m.group("round")),
        worker=int(m.group("worker") or 0),
        duration=float(m.group("duration") or 1.0),
        attempts=int(m.group("attempts") or 1),
    )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of injected faults.

    The plan is a pure value — hashable, comparable, round-trippable
    through :meth:`to_spec` — so a :class:`repro.run.RunConfig` holding
    one stays frozen and two runs with equal plans inject identically.
    ``seed`` feeds the per-(round, worker) corruption RNG via
    :meth:`rng`, keeping even the *tampered bytes* reproducible.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Parse a ``;``-joined spec string (see module docstring)."""
        tokens = [t for t in spec.split(";") if t.strip()]
        return cls(tuple(_parse_one(t) for t in tokens), seed=seed)

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec`."""
        return ";".join(f.to_spec() for f in self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -- injection-point queries ---------------------------------------
    def for_task(self, round: int, worker: int, attempt: int = 0) -> FaultSpec | None:
        """The worker-level fault to apply to this task, if any.

        Matches ``stall``/``corrupt``/``stale`` specs whose
        (round, worker) equal the task's and whose ``attempts`` budget
        covers *attempt* (0-based).  First match wins.  The ``stick``
        and IO chaos kinds never match here — they fire at their
        own sites (:meth:`stick_active` / :meth:`for_op`).
        """
        for f in self.faults:
            if (f.kind in WORKER_FAULT_KINDS and f.round == round
                    and f.worker == worker and attempt < f.attempts):
                return f
        return None

    def for_op(self, kind: str, index: int) -> FaultSpec | None:
        """The IO fault to inject at occurrence *index*, if any.

        A chaos site (the store transitions)
        keeps its own 0-based occurrence counter and consult the plan
        with it; a spec fires when ``round <= index < round + attempts``
        (``xK`` widens the window to K consecutive occurrences).  First
        match wins.
        """
        if kind not in PROCESS_FAULT_KINDS:
            raise ValueError(
                f"for_op kind must be one of {PROCESS_FAULT_KINDS}, got {kind!r}")
        for f in self.faults:
            if f.kind == kind and f.round <= index < f.round + f.attempts:
                return f
        return None

    def stick_active(self, round: int) -> bool:
        """True when a ``stick`` spec wastes this superstep round."""
        return any(
            f.kind == "stick" and f.round <= round < f.round + int(f.duration)
            for f in self.faults
        )

    def rng(self, round: int, worker: int) -> np.random.Generator:
        """Deterministic generator for the (round, worker) injection site."""
        ss = np.random.SeedSequence([self.seed, round, worker])
        return np.random.default_rng(ss)

    def corrupt(self, proposals: np.ndarray, round: int, worker: int) -> np.ndarray:
        """Deterministically tamper a copy of a block's color proposals.

        A seeded subset of entries is overwritten with invalid negative
        colors — the kind of garbage a torn write or a truncated IPC
        message produces — which the guarded merge's proposal validation
        must catch.
        """
        rng = self.rng(round, worker)
        out = np.asarray(proposals).copy()
        if out.size == 0:
            return out
        k = max(1, out.size // 4)
        idx = rng.choice(out.size, size=k, replace=False)
        out[idx] = -7
        return out


#: The empty plan: every query answers "no fault".
NO_FAULTS = FaultPlan()


def resolve_fault_plan(plan) -> FaultPlan:
    """Resolve an optional ``fault_plan=`` argument to a usable plan.

    Explicit argument first (a :class:`FaultPlan` or a spec string), then
    the ``REPRO_FAULT_PLAN`` environment variable, then :data:`NO_FAULTS`.
    Mirrors :func:`repro.obs.as_recorder` / the kernel-backend resolution
    so every execution layer resolves faults the same way.
    """
    if plan is not None:
        if isinstance(plan, FaultPlan):
            return plan
        if isinstance(plan, str):
            return FaultPlan.from_spec(plan)
        raise TypeError(
            f"fault_plan must be a FaultPlan or spec string, got {type(plan).__name__}")
    env = os.environ.get(ENV_VAR)
    if env:
        return FaultPlan.from_spec(env)
    return NO_FAULTS
