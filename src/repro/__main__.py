"""Command-line interface: regenerate any artifact, or run one strategy.

Examples::

    python -m repro list
    python -m repro table3 --scale 0.25
    python -m repro fig1b --csv out/
    python -m repro all --scale 0.1
    python -m repro table3 --trace table3.jsonl   # archive the event stream
    python -m repro run --strategy vff --mode superstep --threads 8 \
        --machine tilegx36 --trace out.jsonl      # one (strategy, mode) run
    python -m repro serve --port 8734             # coloring-as-a-service
    python -m repro submit --strategy vff --mode superstep --threads 8 \
        --url http://127.0.0.1:8734               # client for 'serve'
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .experiments import (
    ablation_color_all_phases,
    ablation_conflicts_vs_threads,
    ablation_iterated_greedy,
    ablation_kempe,
    ablation_orderings,
    ablation_page_policy,
    ablation_sched_fill_order,
    ablation_work_balance,
    fig1a_ff_skew,
    fig1b_modularity,
    fig2_distributions,
    fig3ab_speedups,
    fig3c_uk2002,
    table2_inputs,
    table3_balance,
    table4_tilera,
    table5_x86,
    table6_schemes,
    table7_community,
)

_EXPERIMENTS = {
    "table2": lambda scale, seed: [table2_inputs(scale=scale, seed=seed)],
    "table3": lambda scale, seed: [table3_balance(scale=scale, seed=seed)],
    "table4": lambda scale, seed: [table4_tilera(scale=scale, seed=seed)],
    "table5": lambda scale, seed: [table5_x86(scale=scale, seed=seed)],
    "table6": lambda scale, seed: [table6_schemes(scale=scale, seed=seed)],
    "table7": lambda scale, seed: [table7_community(scale=scale, seed=seed)],
    "fig1a": lambda scale, seed: [fig1a_ff_skew(scale=scale, seed=seed)],
    "fig1b": lambda scale, seed: [fig1b_modularity(scale=scale, seed=seed)],
    "fig2": lambda scale, seed: [
        fig2_distributions(input_name="channel", scale=scale, seed=seed),
        fig2_distributions(input_name="cnr", scale=scale, seed=seed),
    ],
    "fig3ab": lambda scale, seed: list(fig3ab_speedups(scale=scale, seed=seed)),
    "fig3c": lambda scale, seed: [fig3c_uk2002(scale=scale, seed=seed)],
    "ablations": lambda scale, seed: [
        ablation_sched_fill_order(scale=scale, seed=seed),
        ablation_orderings(scale=scale, seed=seed),
        ablation_iterated_greedy(scale=scale, seed=seed),
        ablation_conflicts_vs_threads(scale=scale, seed=seed),
        ablation_kempe(scale=scale, seed=seed),
        ablation_page_policy(),
        ablation_color_all_phases(scale=min(scale, 0.15), seed=seed),
        ablation_work_balance(scale=scale, seed=seed),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs)."""
    from .coloring.strategies import MODES, STRATEGIES
    from .graph.datasets import DATASETS
    from .machine import MACHINES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables and figures of Lu et al., IPDPS "
        "2015, or run a single (strategy, mode) pipeline with 'run'.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all", "list", "run", "serve",
                                        "store", "submit"],
        help="which artifact to regenerate ('list' prints the catalog; "
        "'run' executes one strategy through repro.run.execute; 'serve' "
        "starts the coloring service; 'submit' is its HTTP client; 'store' "
        "converts a graph to the memory-mapped on-disk store)",
    )
    parser.add_argument("--scale", type=float, default=0.25,
                        help="input stand-in scale (default 0.25)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--csv", type=Path, default=None, metavar="DIR",
                        help="also write each table as CSV into DIR")
    parser.add_argument("--report", type=Path, default=None, metavar="FILE",
                        help="also append every rendered table to FILE (markdown)")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="record structured run events (phase timers, "
                        "per-round/superstep metrics) and archive them as "
                        "JSON lines to FILE (.gz compresses)")

    run = parser.add_argument_group("run options (python -m repro run)")
    run.add_argument("--strategy", choices=sorted(STRATEGIES), default=None,
                     help="Table-I strategy from the registry (required for 'run')")
    run.add_argument("--mode", choices=list(MODES), default="sequential",
                     help="execution mode (default sequential)")
    run.add_argument("--threads", type=int, default=1,
                     help="simulated threads (superstep) or team threads (mp)")
    run.add_argument("--input", choices=sorted(DATASETS), default="cnr",
                     help="input stand-in graph (default cnr)")
    run.add_argument("--machine", choices=sorted(MACHINES), default=None,
                     help="price the execution trace on this machine model")
    run.add_argument("--backend", choices=["reference", "vectorized"], default=None,
                     help="kernel tier for every kernel of the run (same coloring either way)")
    run.add_argument("--ordering", default="natural",
                     help="vertex order for the (initial) greedy coloring")
    run.add_argument("--rounds", type=int, default=1,
                     help="re-plan rounds for the scheduled strategies")
    run.add_argument("--weight", choices=["unit", "degree"], default="unit",
                     help="balance objective for sequential shuffling")
    from .resilience import ON_FAILURE_POLICIES

    run.add_argument("--on-failure", choices=list(ON_FAILURE_POLICIES),
                     default="raise", dest="on_failure",
                     help="post-run invariant-violation policy: raise "
                     "(default), repair violating vertices sequentially, or "
                     "fall back to the sequential implementation")
    run.add_argument("--fault-plan", default=None, metavar="SPEC",
                     dest="fault_plan",
                     help="deterministic fault injection, e.g. "
                     "'corrupt@r0.w1;stall@r1.w0:0.5' (see repro.resilience; "
                     "also honors the REPRO_FAULT_PLAN env var)")
    run.add_argument("--round-timeout", type=float, default=None,
                     metavar="SECONDS", dest="round_timeout",
                     help="mp mode: per-block collection timeout — a "
                     "stalled block is detected after at most this long "
                     "(default 60)")
    run.add_argument("--graph-file", type=Path, default=None, dest="graph_file",
                     metavar="PATH",
                     help="color this graph instead of --input: a store "
                     "directory from 'python -m repro store' (opened "
                     "memory-mapped, out-of-core), a .mtx[.gz] file, or an "
                     "edge list")
    run.add_argument("--mutate", default=None, metavar="SPEC", dest="mutate",
                     help="after the base run, mutate the graph and re-color "
                     "it from the base coloring (the 'incremental' strategy): "
                     "'add=U-V,...;remove=U-V,...;vertices=K' or "
                     "'churn=FRACTION' (random edge churn at constant "
                     "density, deterministic for --seed)")

    store = parser.add_argument_group("store options (python -m repro store)")
    store.add_argument("--out", type=Path, default=None, metavar="DIR",
                       help="destination store directory (required for "
                       "'store'); colors later with run --graph-file DIR")

    serve = parser.add_argument_group(
        "serve options (python -m repro serve / submit)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for 'serve' (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8734,
                       help="TCP port for 'serve' (default 8734; 0 picks a "
                       "free port)")
    serve.add_argument("--workers", type=int, default=1,
                       help="scheduler worker-pool width "
                       "(default 1 = fully sequential)")
    serve.add_argument("--max-pending", type=int, default=None,
                       dest="max_pending", metavar="N",
                       help="admission bound: jobs in flight before submits "
                       "are rejected with 429 (default 1024)")
    serve.add_argument("--cache-mb", type=float, default=None, dest="cache_mb",
                       metavar="MB",
                       help="in-memory result-cache budget in MiB (default 64)")
    serve.add_argument("--store", type=Path, default=None, dest="job_store",
                       metavar="DIR",
                       help="durable job store directory (sqlite): job ids "
                       "and results survive restarts, interrupted jobs are "
                       "re-run on startup (default: in-memory, ephemeral)")
    serve.add_argument("--tenant-quota", type=int, default=None,
                       dest="tenant_quota", metavar="N",
                       help="max unfinished jobs per tenant; submits over "
                       "the quota are rejected with 429 (default: unlimited)")
    serve.add_argument("--supervise", action="store_true",
                       help="'serve': run the supervisor thread that "
                       "fails queued jobs whose --deadline elapsed")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="MS", dest="deadline_ms",
                       help="'submit': wall-clock budget in milliseconds — "
                       "a job that outlives it is failed fast with "
                       "reason='deadline' instead of occupying a worker")
    serve.add_argument("--url", default="http://127.0.0.1:8734",
                       help="service base URL for 'submit' "
                       "(default http://127.0.0.1:8734)")
    serve.add_argument("--no-wait", action="store_true", dest="no_wait",
                       help="'submit': print the job id and return without "
                       "polling for the result")
    serve.add_argument("--timeout", type=float, default=60.0,
                       help="'submit': seconds to wait for the result "
                       "(default 60)")
    serve.add_argument("--tenant", default=None,
                       help="'submit': tenant label for quota accounting")
    serve.add_argument("--priority", default="normal",
                       choices=["high", "normal"],
                       help="'submit': scheduling class — high drains before "
                       "normal (default normal)")
    return parser


def _list_catalog() -> None:
    """Print the experiment catalog and the (strategy × mode) registry."""
    from .coloring.strategies import STRATEGIES

    for name in sorted(_EXPERIMENTS):
        print(name)
    print()
    print("strategies (python -m repro run --strategy NAME --mode MODE):")
    for name, spec in STRATEGIES.items():
        print(f"  {name:<14} modes: {', '.join(spec.modes):<28} "
              f"{spec.description}")


def _run_command(args, parser: argparse.ArgumentParser) -> int:
    """Execute one (strategy, mode) pipeline and print its summary."""
    from .experiments import traced_run
    from .graph.datasets import load_dataset
    from .run import RunConfig, execute

    if args.strategy is None:
        parser.error("'run' requires --strategy (see 'python -m repro list')")
    try:
        strategy_kwargs = {}
        if args.round_timeout is not None:
            strategy_kwargs["round_timeout"] = args.round_timeout
        config = RunConfig(
            strategy=args.strategy, mode=args.mode, threads=args.threads,
            machine=args.machine, backend=args.backend, ordering=args.ordering,
            seed=args.seed, rounds=args.rounds, weight=args.weight,
            on_failure=args.on_failure, fault_plan=args.fault_plan,
            strategy_kwargs=strategy_kwargs,
        )
        if args.graph_file is not None:
            from .graph.store import load_graph_file

            graph = load_graph_file(args.graph_file)
            label = str(args.graph_file)
        else:
            graph = load_dataset(args.input, scale=args.scale, seed=args.seed)
            label = f"{args.input} (scale={args.scale}, seed={args.seed})"
        tracer = traced_run(args.trace) if args.trace is not None else nullcontext(None)
        with tracer as recorder:
            result = execute(graph, config, recorder=recorder)
            mutated = None
            if args.mutate is not None:
                from .graph.delta import apply_delta, parse_mutation_spec
                from .run import mutation_config

                batch = parse_mutation_spec(args.mutate, graph, seed=args.seed)
                mutated_graph, dirty = apply_delta(graph, batch)
                mutated = execute(mutated_graph, mutation_config(
                    mode=args.mode if args.mode != "mp" else "sequential",
                    threads=args.threads).replace(backend=args.backend),
                    initial=result.coloring, recorder=recorder)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{label}:")
    print(result.summary())
    if mutated is not None:
        meta = mutated.coloring.meta
        print(f"after --mutate {args.mutate!r} "
              f"(n={mutated_graph.num_vertices} m={mutated_graph.num_edges}, "
              f"dirty={dirty.size}, seeded={meta['seeded']}):")
        print(mutated.summary())
    if recorder is not None:
        print(recorder.summary())
        print(f"archived {len(recorder.events)} events to {args.trace}")
    return 0


def _store_command(args, parser: argparse.ArgumentParser) -> int:
    """Convert a graph to the memory-mapped on-disk store."""
    from .graph.datasets import load_dataset
    from .graph.store import load_graph_file, save_graph

    if args.out is None:
        parser.error("'store' requires --out DIR")
    try:
        if args.graph_file is not None:
            graph = load_graph_file(args.graph_file, mmap=False)
            label = str(args.graph_file)
        else:
            graph = load_dataset(args.input, scale=args.scale, seed=args.seed)
            label = f"{args.input} (scale={args.scale}, seed={args.seed})"
        save_graph(graph, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"stored {label}: n={graph.num_vertices} m={graph.num_edges} "
          f"-> {args.out}")
    print(f"color it with: python -m repro run --strategy greedy-ff "
          f"--mode mp --graph-file {args.out}")
    return 0


def _serve_command(args) -> int:
    """Start the coloring service and block until interrupted."""
    from .serve import DEFAULT_MAX_BYTES, DEFAULT_MAX_PENDING, ColoringService
    from .serve.api import make_server

    max_bytes = (int(args.cache_mb * 1024 * 1024) if args.cache_mb is not None
                 else DEFAULT_MAX_BYTES)
    try:
        service = ColoringService(
            max_pending=args.max_pending if args.max_pending is not None
            else DEFAULT_MAX_PENDING,
            max_bytes=max_bytes,
            workers=args.workers,
            store=args.job_store,
            tenant_quota=args.tenant_quota,
            supervise=args.supervise,
            fault_plan=args.fault_plan,
        )
        server = make_server(service, host=args.host, port=args.port)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    recovered = service.recovered
    if recovered["requeued"] or recovered["failed"] or recovered["terminal"]:
        print(f"repro serve: recovered store {args.job_store} — "
              f"{recovered['terminal']} terminal kept, "
              f"{recovered['requeued']} interrupted re-queued, "
              f"{recovered['failed']} unrecoverable failed", flush=True)
    service.start()
    print(f"repro serve: listening on http://{host}:{port} "
          f"(workers={args.workers}, cache={max_bytes // (1024 * 1024)}MiB, "
          f"store={args.job_store or 'memory'}, "
          f"supervise={'on' if args.supervise else 'off'})",
          flush=True)
    print("endpoints: POST /submit  POST /mutate  GET /result/<id>  "
          "GET /stats  GET /healthz", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        service.stop()
    return 0


def _submit_command(args, parser: argparse.ArgumentParser) -> int:
    """Submit one job to a running service and (by default) await it."""
    from .serve.api import submit_job, wait_for_result

    if args.strategy is None:
        parser.error("'submit' requires --strategy (see 'python -m repro list')")
    config = {
        "strategy": args.strategy, "mode": args.mode, "threads": args.threads,
        "machine": args.machine, "backend": args.backend,
        "ordering": args.ordering, "seed": args.seed, "rounds": args.rounds,
        "weight": args.weight, "on_failure": args.on_failure,
        "fault_plan": args.fault_plan,
    }
    payload = {"scale": args.scale, "seed": args.seed, "config": config}
    if args.deadline_ms is not None:
        payload["deadline_ms"] = args.deadline_ms
    if args.tenant is not None:
        payload["tenant"] = args.tenant
    if args.priority != "normal":
        payload["priority"] = args.priority
    if args.graph_file is not None:
        payload["graph_file"] = str(args.graph_file)
    else:
        payload["input"] = args.input
    try:
        reply = submit_job(args.url, payload)
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    if "error" in reply:
        print(f"rejected: {reply['error']}", file=sys.stderr)
        return 1
    print(f"job {reply['job_id']} submitted (key {reply['key'][:16]}…)")
    if args.no_wait:
        return 0
    try:
        result = wait_for_result(args.url, reply["job_id"], timeout=args.timeout)
    except (OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.get("status") == "failed":
        print(f"job failed: {result.get('error')}", file=sys.stderr)
        return 1
    print(f"done via {result['source']}: C={result['num_colors']} "
          f"n={result['num_vertices']} rsd={result['rsd_percent']:.2f}%")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        _list_catalog()
        return 0
    if args.experiment == "run":
        return _run_command(args, parser)
    if args.experiment == "serve":
        return _serve_command(args)
    if args.experiment == "store":
        return _store_command(args, parser)
    if args.experiment == "submit":
        return _submit_command(args, parser)
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    report_chunks: list[str] = []
    from .experiments import traced_run

    tracer = traced_run(args.trace) if args.trace is not None else nullcontext(None)
    with tracer as recorder:
        for name in names:
            for table in _EXPERIMENTS[name](args.scale, args.seed):
                print(table.render())
                print()
                if args.csv is not None:
                    args.csv.mkdir(parents=True, exist_ok=True)
                    slug = table.title.split("—")[0].strip().lower().replace(" ", "_")
                    table.to_csv(args.csv / f"{slug}.csv")
                if args.report is not None:
                    report_chunks.append(f"```\n{table.render()}\n```")
    if recorder is not None:
        print(recorder.summary())
        print(f"archived {len(recorder.events)} events to {args.trace}")
    if args.report is not None:
        header = (f"# repro results (scale={args.scale}, seed={args.seed})\n\n")
        args.report.write_text(header + "\n\n".join(report_chunks) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
