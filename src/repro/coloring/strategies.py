"""Strategy registry: one name per row of the paper's Table I.

Each :class:`StrategySpec` declares its implementation per *execution
mode* — ``sequential`` (the reference algorithms in this package),
``superstep`` (the tick-machine speculation schemes in
:mod:`repro.parallel`), and ``mp`` (real speculative rounds on a thread team)
— so the registry, not the call sites, is the single source of truth for
which (strategy, mode) pairs exist and how they are invoked.

Every mode implementation has the same normalized signature::

    impl(graph, initial=None, *, threads=1, seed=None, recorder=None, **kwargs)

and carries an ``accepts`` frozenset naming the extra keyword options it
understands (``backend``, ``rounds``, ``weight``, ...).  Unknown options
are rejected up front with an error naming the strategy, instead of
surfacing as a ``TypeError`` from some inner function.

:func:`balance_coloring` dispatches a guided strategy on an existing
initial coloring; :func:`color_and_balance` is the one-call front door that
also produces the initial coloring (Greedy-FF by default, as in the paper)
or runs an ab initio strategy directly.  The full pipeline front door —
mode dispatch, seeding, backend resolution, balance stats, machine-time
pricing — is :func:`repro.run.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..graph.csr import CSRGraph
from ..util.rng import spawn_rngs
from .greedy import greedy_coloring
from .kempe import kempe_balance
from .recolor import balanced_recoloring
from .scheduled import scheduled_balance
from .shuffled import shuffle_balance
from .types import Coloring

__all__ = [
    "MODES",
    "StrategySpec",
    "STRATEGIES",
    "balance_coloring",
    "color_and_balance",
    "split_seed",
]

#: the three execution regimes the paper compares (sequential reference,
#: speculate-and-iterate supersteps, real concurrent rounds)
MODES = ("sequential", "superstep", "mp")


@dataclass(frozen=True)
class StrategySpec:
    """One balancing strategy: its category and per-mode implementations.

    ``category`` is ``"ab_initio"`` (runs on the graph alone) or
    ``"guided"`` (consumes an initial coloring).  ``same_color_count`` marks
    the strategies guaranteed to preserve the initial C (VFF/VLU/CFF/CLU,
    Sched-Rev/Fwd) versus those that may change it (Recoloring, ab initio).

    ``sequential``/``superstep``/``mp`` hold the normalized mode
    implementations (``None`` = unsupported in that mode).
    """

    name: str
    category: str
    same_color_count: bool
    description: str
    sequential: Callable[..., Coloring] | None = None
    superstep: Callable[..., Coloring] | None = None
    mp: Callable[..., Coloring] | None = None

    @property
    def modes(self) -> tuple[str, ...]:
        """The execution modes this strategy supports, in MODES order."""
        return tuple(m for m in MODES if getattr(self, m) is not None)

    def implementation(self, mode: str) -> Callable[..., Coloring]:
        """The normalized callable for *mode*, or a helpful ValueError."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {list(MODES)}")
        impl = getattr(self, mode)
        if impl is None:
            raise ValueError(
                f"strategy {self.name!r} does not support mode {mode!r}; "
                f"supported modes: {list(self.modes)}"
            )
        return impl


def split_seed(seed):
    """Derive independent (initial-coloring, strategy) seeds from one root.

    The initial Greedy-FF and the guided strategy must not share an RNG
    stream (identical draws would correlate, e.g., a random vertex order
    with the strategy's own randomness), so the root seed is split into
    two :class:`~numpy.random.SeedSequence` children via
    :func:`repro.util.spawn_rngs`.  ``None`` stays ``None`` for both
    (fresh OS entropy is already independent).
    """
    if seed is None:
        return None, None
    init_rng, strategy_rng = spawn_rngs(seed, 2)
    return init_rng, strategy_rng


def _accepts(*names: str):
    """Tag a mode implementation with the extra kwargs it understands."""

    def tag(fn):
        fn.accepts = frozenset(names)
        return fn

    return tag


def _check_kwargs(strategy: str, mode: str, impl, kwargs: dict) -> None:
    """Reject options the (strategy, mode) implementation does not take."""
    accepted = getattr(impl, "accepts", frozenset())
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        raise ValueError(
            f"strategy {strategy!r} ({mode} mode) got unknown option(s) "
            f"{unknown}; accepted options: {sorted(accepted) or 'none'}"
        )


# --------------------------------------------------------------------------
# sequential implementations (repro.coloring reference algorithms)
# --------------------------------------------------------------------------


def _seq_greedy(choice: str, accepts: tuple[str, ...]):
    @_accepts(*accepts)
    def run(graph: CSRGraph, initial: Coloring | None = None, *,
            threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
        return greedy_coloring(graph, choice=choice, seed=seed,
                               recorder=recorder, **kwargs)

    return run


def _seq_shuffled(choice: str, traversal: str):
    @_accepts("weight", "backend")
    def run(graph: CSRGraph, initial: Coloring | None = None, *,
            threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
        return shuffle_balance(graph, initial, choice=choice,
                               traversal=traversal, recorder=recorder, **kwargs)

    return run


def _seq_scheduled(reverse: bool):
    @_accepts("rounds")
    def run(graph: CSRGraph, initial: Coloring | None = None, *,
            threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
        return scheduled_balance(graph, initial, reverse=reverse, **kwargs)

    return run


@_accepts("backend")
def _seq_recoloring(graph: CSRGraph, initial: Coloring | None = None, *,
                    threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
    # deterministic algorithm: `seed` is accepted for API uniformity only
    return balanced_recoloring(graph, initial, recorder=recorder, **kwargs)


@_accepts("backend")
def _seq_incremental(graph: CSRGraph, initial: Coloring | None = None, *,
                     threads: int = 1, seed=None, recorder=None,
                     **kwargs) -> Coloring:
    # deterministic: `seed` accepted for API uniformity only.  `initial`
    # here is the BASE coloring being carried forward, not a fresh seed —
    # the run layer passes it straight through from the mutation caller.
    from .incremental import incremental_recolor

    return incremental_recolor(graph, initial, recorder=recorder, **kwargs)


@_accepts("max_passes")
def _seq_kempe(graph: CSRGraph, initial: Coloring | None = None, *,
               threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
    return kempe_balance(graph, initial, seed=seed, **kwargs)


# --------------------------------------------------------------------------
# superstep implementations (repro.parallel tick-machine schemes)
#
# Imported inside the callables: repro.parallel itself imports sibling
# repro.coloring modules, so a top-level import here would be circular.
# --------------------------------------------------------------------------


@_accepts("ordering", "max_rounds", "fault_plan")
def _superstep_greedy_ff(graph: CSRGraph, initial: Coloring | None = None, *,
                         threads: int = 1, seed=None, recorder=None,
                         **kwargs) -> Coloring:
    from ..graph.orderings import vertex_order
    from ..parallel.greedy import parallel_greedy_ff

    ordering = kwargs.pop("ordering", None)
    if isinstance(ordering, str):
        ordering = None if ordering == "natural" else vertex_order(
            graph, ordering, seed=seed)
    return parallel_greedy_ff(graph, num_threads=threads, ordering=ordering,
                              recorder=recorder, **kwargs)


def _superstep_shuffled(choice: str, traversal: str):
    @_accepts("max_rounds", "fault_plan")
    def run(graph: CSRGraph, initial: Coloring | None = None, *,
            threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
        from ..parallel.shuffled import parallel_shuffle_balance

        return parallel_shuffle_balance(graph, initial, choice=choice,
                                        traversal=traversal, num_threads=threads,
                                        recorder=recorder, **kwargs)

    return run


def _superstep_scheduled(reverse: bool):
    @_accepts("rounds")
    def run(graph: CSRGraph, initial: Coloring | None = None, *,
            threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
        from ..parallel.scheduled import parallel_scheduled_balance

        return parallel_scheduled_balance(graph, initial, reverse=reverse,
                                          num_threads=threads, recorder=recorder,
                                          **kwargs)

    return run


@_accepts("max_rounds", "fault_plan")
def _superstep_recoloring(graph: CSRGraph, initial: Coloring | None = None, *,
                          threads: int = 1, seed=None, recorder=None,
                          **kwargs) -> Coloring:
    from ..parallel.recolor import parallel_recoloring

    return parallel_recoloring(graph, initial, num_threads=threads,
                               recorder=recorder, **kwargs)


@_accepts("max_rounds")
def _superstep_incremental(graph: CSRGraph, initial: Coloring | None = None, *,
                           threads: int = 1, seed=None, recorder=None,
                           **kwargs) -> Coloring:
    from ..parallel.incremental import parallel_incremental_recolor

    return parallel_incremental_recolor(graph, initial, num_threads=threads,
                                        recorder=recorder, **kwargs)


# --------------------------------------------------------------------------
# mp implementations (real concurrent rounds on the thread team)
# --------------------------------------------------------------------------


@_accepts("max_rounds", "partition", "backend", "fault_plan", "round_timeout",
          "max_retries")
def _mp_greedy_ff(graph: CSRGraph, initial: Coloring | None = None, *,
                  threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
    from ..parallel.mp import mp_greedy_ff

    return mp_greedy_ff(graph, num_workers=threads, seed=seed,
                        recorder=recorder, **kwargs)


# --------------------------------------------------------------------------
# distance-2 implementations (repro.bipartite engines on the square cover)
#
# A full distance-2 coloring of G is exactly a one-sided partial coloring
# of G's square cover (rows = columns = V(G), row u ~ col v iff u == v or
# u ~ v), so the registry rows run the bipartite engines on the cover and
# repackage the row colors as an ordinary Coloring.  D2-proper implies
# D1-proper (adjacent vertices are within distance two), so the run
# layer's heal() invariant holds unchanged.
#
# Imported inside the callables: repro.bipartite imports sibling
# repro.coloring modules, so a top-level import here would be circular.
# --------------------------------------------------------------------------


@_accepts("ordering", "choice")
def _seq_d2(graph: CSRGraph, initial: Coloring | None = None, *,
            threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
    from .distance2 import greedy_distance2

    return greedy_distance2(graph, seed=seed, recorder=recorder, **kwargs)


def _d2_order(graph: CSRGraph, ordering, seed):
    """Resolve an ordering option to a row permutation of the square cover
    (cover rows are exactly the vertices of *graph*), or None for natural."""
    import numpy as np

    from ..graph.orderings import vertex_order

    if ordering is None:
        return None
    if isinstance(ordering, str):
        if ordering == "natural":
            return None
        return vertex_order(graph, ordering, seed=seed)
    return np.asarray(ordering, dtype=np.int64)


def _cover_coloring(pc, strategy: str) -> Coloring:
    """Repackage a total partial-D2 coloring of the cover as a Coloring."""
    return Coloring(pc.colors, pc.num_colors, strategy=strategy, meta=dict(pc.meta))


def _square_cover(graph: CSRGraph, cover):
    """*cover* when a caller already built *graph*'s square cover, else a new one."""
    from ..bipartite import BipartiteGraph

    return BipartiteGraph.square_cover(graph) if cover is None else cover


# The d2-optimistic impls take the square *cover* when d2-balanced already
# built it; it is not an option (not in ``accepts``), so no caller of the
# registry can pass it.
@_accepts("ordering", "backend")
def _seq_d2_optimistic(graph: CSRGraph, initial: Coloring | None = None, *,
                       threads: int = 1, seed=None, recorder=None, cover=None,
                       **kwargs) -> Coloring:
    from ..bipartite import partial_d2_sequential

    order = _d2_order(graph, kwargs.pop("ordering", None), seed)
    cover = _square_cover(graph, cover)
    pc = partial_d2_sequential(cover, order=order, recorder=recorder, **kwargs)
    return _cover_coloring(pc, "d2-optimistic")


@_accepts("ordering", "max_rounds", "fault_plan", "backend")
def _superstep_d2_optimistic(graph: CSRGraph, initial: Coloring | None = None, *,
                             threads: int = 1, seed=None, recorder=None,
                             cover=None, **kwargs) -> Coloring:
    from ..bipartite import optimistic_partial_d2

    order = _d2_order(graph, kwargs.pop("ordering", None), seed)
    cover = _square_cover(graph, cover)
    pc = optimistic_partial_d2(cover, num_threads=threads, order=order,
                               recorder=recorder, **kwargs)
    return _cover_coloring(pc, "d2-optimistic")


@_accepts("max_rounds", "backend", "fault_plan", "round_timeout",
          "max_retries")
def _mp_d2_optimistic(graph: CSRGraph, initial: Coloring | None = None, *,
                      threads: int = 1, seed=None, recorder=None, cover=None,
                      **kwargs) -> Coloring:
    from ..bipartite import mp_partial_d2

    cover = _square_cover(graph, cover)
    pc = mp_partial_d2(cover, num_workers=threads, recorder=recorder, **kwargs)
    return _cover_coloring(pc, "d2-optimistic")


def _d2_balanced(base_impl, accepts: frozenset):
    """Wrap a d2-optimistic mode impl with the one-sided shuffle drain.

    The drain runs in-process after the engine (it is a cheap sequential
    tail, like the residual pass), preserves the color count, and keeps
    distance-2 properness move by move.  The ``backend`` option reaches
    the drain too; every backend gives the same drained coloring.  The
    square cover is built once, for the engine and the drain alike.
    """

    @_accepts(*(accepts | {"choice"}))
    def run(graph: CSRGraph, initial: Coloring | None = None, *,
            threads: int = 1, seed=None, recorder=None, **kwargs) -> Coloring:
        from ..bipartite import BipartiteGraph, PartialD2Coloring, balance_partial_d2

        choice = kwargs.pop("choice", "ff")
        cover = BipartiteGraph.square_cover(graph)
        colored = base_impl(graph, initial, threads=threads, seed=seed,
                            recorder=recorder, cover=cover, **kwargs)
        pc = PartialD2Coloring(colored.colors, colored.num_colors,
                               strategy=colored.strategy, meta=colored.meta)
        balanced = balance_partial_d2(cover, pc, choice=choice,
                                      backend=kwargs.get("backend"),
                                      recorder=recorder)
        return _cover_coloring(balanced, "d2-balanced")

    return run


STRATEGIES: dict[str, StrategySpec] = {
    "greedy-ff": StrategySpec(
        "greedy-ff", "ab_initio", False,
        "Algorithm 1 with First-Fit color choice (the paper's initial coloring)",
        sequential=_seq_greedy("ff", ("ordering", "backend")),
        superstep=_superstep_greedy_ff,
        mp=_mp_greedy_ff,
    ),
    "greedy-lu": StrategySpec(
        "greedy-lu", "ab_initio", False,
        "Algorithm 1 with Least-Used color choice",
        sequential=_seq_greedy("lu", ("ordering",)),
    ),
    "greedy-random": StrategySpec(
        "greedy-random", "ab_initio", False,
        "Algorithm 1 with Random color choice in palette B = Δ+1",
        sequential=_seq_greedy("random", ("ordering", "palette_bound")),
    ),
    "vff": StrategySpec(
        "vff", "guided", True,
        "Vertex-centric First-Fit unscheduled shuffling",
        sequential=_seq_shuffled("ff", "vertex"),
        superstep=_superstep_shuffled("ff", "vertex"),
    ),
    "vlu": StrategySpec(
        "vlu", "guided", True,
        "Vertex-centric Least-Used unscheduled shuffling",
        sequential=_seq_shuffled("lu", "vertex"),
        superstep=_superstep_shuffled("lu", "vertex"),
    ),
    "cff": StrategySpec(
        "cff", "guided", True,
        "Color-centric First-Fit unscheduled shuffling",
        sequential=_seq_shuffled("ff", "color"),
        superstep=_superstep_shuffled("ff", "color"),
    ),
    "clu": StrategySpec(
        "clu", "guided", True,
        "Color-centric Least-Used unscheduled shuffling",
        sequential=_seq_shuffled("lu", "color"),
        superstep=_superstep_shuffled("lu", "color"),
    ),
    "sched-rev": StrategySpec(
        "sched-rev", "guided", True,
        "Scheduled moves, under-full bins filled in reverse color order",
        sequential=_seq_scheduled(True),
        superstep=_superstep_scheduled(True),
    ),
    "sched-fwd": StrategySpec(
        "sched-fwd", "guided", True,
        "Scheduled moves, forward fill order (ablation)",
        sequential=_seq_scheduled(False),
        superstep=_superstep_scheduled(False),
    ),
    "recoloring": StrategySpec(
        "recoloring", "guided", False,
        "Reverse-class FF recoloring under capacity γ",
        sequential=_seq_recoloring,
        superstep=_superstep_recoloring,
    ),
    "incremental": StrategySpec(
        "incremental", "guided", False,
        "Recoloring of a carried-forward coloring after churn",
        sequential=_seq_incremental,
        superstep=_superstep_incremental,
    ),
    "kempe": StrategySpec(
        "kempe", "guided", True,
        "Kempe-chain exchange rebalancing (extension)",
        sequential=_seq_kempe,
    ),
    "d2": StrategySpec(
        "d2", "ab_initio", False,
        "Greedy distance-2 coloring (Jacobian compression), FF or LU choice",
        sequential=_seq_d2,
    ),
    "d2-optimistic": StrategySpec(
        "d2-optimistic", "ab_initio", False,
        "Optimistic partial distance-2 coloring on the square cover "
        "(speculative sweeps + conflict removal)",
        sequential=_seq_d2_optimistic,
        superstep=_superstep_d2_optimistic,
        mp=_mp_d2_optimistic,
    ),
    "d2-balanced": StrategySpec(
        "d2-balanced", "ab_initio", False,
        "Optimistic distance-2 coloring + one-sided shuffle drain of "
        "over-full color classes",
        sequential=_d2_balanced(_seq_d2_optimistic,
                                _seq_d2_optimistic.accepts),
        superstep=_d2_balanced(_superstep_d2_optimistic,
                               _superstep_d2_optimistic.accepts),
        mp=_d2_balanced(_mp_d2_optimistic, _mp_d2_optimistic.accepts),
    ),
}


def balance_coloring(
    graph: CSRGraph, initial: Coloring, strategy: str, *, seed=None, **kwargs
) -> Coloring:
    """Apply a guided balancing *strategy* to an initial coloring."""
    spec = _lookup(strategy)
    if spec.category != "guided":
        raise ValueError(
            f"{strategy!r} is ab initio; call color_and_balance or greedy_coloring"
        )
    _check_kwargs(strategy, "sequential", spec.sequential, kwargs)
    return spec.sequential(graph, initial, seed=seed, **kwargs)


def color_and_balance(
    graph: CSRGraph,
    strategy: str,
    *,
    seed=None,
    ordering: str = "natural",
    **kwargs,
) -> Coloring:
    """Run any Table-I strategy end to end (sequential mode).

    Guided strategies get a Greedy-FF initial coloring first (the paper's
    default pipeline); ab initio strategies run directly on the graph.
    The initial coloring and the strategy draw from *independent* child
    seeds derived from ``seed`` (see :func:`split_seed`), so their random
    streams never correlate.
    """
    spec = _lookup(strategy)
    if spec.category == "ab_initio":
        if "ordering" in spec.sequential.accepts:
            kwargs.setdefault("ordering", ordering)
        _check_kwargs(strategy, "sequential", spec.sequential, kwargs)
        return spec.sequential(graph, seed=seed, **kwargs)
    _check_kwargs(strategy, "sequential", spec.sequential, kwargs)
    init_seed, strategy_seed = split_seed(seed)
    initial = greedy_coloring(graph, choice="ff", ordering=ordering, seed=init_seed)
    return spec.sequential(graph, initial, seed=strategy_seed, **kwargs)


def _lookup(strategy: str) -> StrategySpec:
    try:
        return STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        ) from None
