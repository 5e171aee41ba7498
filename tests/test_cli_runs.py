"""Every ``python -m repro run`` and ``store`` command line the CLI promises.

Each row of ``RUNS`` drives :func:`repro.__main__.main` in process: one
strategy in one execution mode, with the flags that reach the round
drivers (``--backend``, ``--fault-plan``, ``--round-timeout``,
``--on-failure``, ``--mutate``).  A row passes when the command exits 0
and prints the summary line of the run it asked for; ``execute``
verifies the coloring before it returns, so an exit 0 is a proper
coloring.  The file also runs with ``CC=false``, where every row runs
the kernels' oracles.
"""

import shlex

import pytest

from repro.__main__ import main


def row(name: str, command: str, *expected: str):
    """A command line and the lines its output must contain."""
    return pytest.param(command, expected, id=name)


RUNS = [
    # the execution layer, one row per mode and round driver
    row("greedy-ff-mp",
        "run --strategy greedy-ff --mode mp --threads 2 --scale 0.05",
        "greedy-ff [mp, p=2]"),
    row("d2-optimistic-mp",
        "run --strategy d2-optimistic --mode mp --threads 2 --input jacrand "
        "--scale 0.05", "d2-optimistic [mp, p=2]"),
    row("d2-balanced-mp",
        "run --strategy d2-balanced --mode mp --threads 2 --input jacrand "
        "--scale 0.05", "d2-balanced [mp, p=2]"),
    # --backend reaches the thread team
    row("d2-balanced-mp-reference",
        "run --strategy d2-balanced --mode mp --threads 2 --input jacrand "
        "--scale 0.05 --backend reference", "d2-balanced [mp, p=2]"),
    # --mutate: the change, then the incremental re-color
    row("vff-mutate-churn",
        "run --strategy vff --scale 0.05 --mutate churn=0.01",
        "vff [sequential, p=1]", "seeded=0", "incremental [sequential, p=1]"),
    row("vff-superstep-mutate-add",
        "run --strategy vff --mode superstep --threads 4 --scale 0.05 "
        "--mutate 'vertices=3;add=0-5'",
        "vff [superstep, p=4]", "seeded=3", "incremental [superstep, p=4]"),
    # a guarded mp round: the stalled block times out and is retried
    row("greedy-ff-mp-stall",
        "run --strategy greedy-ff --mode mp --threads 2 --scale 0.05 "
        "--fault-plan stall@r0.w1:1.0 --round-timeout 0.5 --on-failure repair",
        "greedy-ff [mp, p=2]", "faults=1(recovered=1)"),
    # every fault-taking client of the superstep round driver
    *(row(f"{name}-superstep-stick",
          f"run --strategy {name} --mode superstep --threads 8 --scale 0.05 "
          "--fault-plan stick@r1:6 --on-failure repair",
          f"{name} [superstep, p=8]")
      for name in ("greedy-ff", "vff", "recoloring")),
    row("d2-optimistic-superstep-stick",
        "run --strategy d2-optimistic --mode superstep --threads 4 "
        "--input jacrand --scale 0.05 --fault-plan stick@r1:6 --on-failure repair",
        "d2-optimistic [superstep, p=4]"),
    # the distance-2 rows: sequential, the superstep engine, the drain on mp
    row("d2", "run --strategy d2 --input jacband --scale 0.05",
        "d2 [sequential, p=1]"),
    row("d2-optimistic-superstep",
        "run --strategy d2-optimistic --mode superstep --threads 4 "
        "--input jacrand --scale 0.05", "d2-optimistic [superstep, p=4]"),
    row("d2-balanced-mp-jacband",
        "run --strategy d2-balanced --mode mp --threads 2 --input jacband "
        "--scale 0.05", "d2-balanced [mp, p=2]"),
    # the drain input of the end-to-end benchmark, sequential and mp
    row("d2-balanced-jacrand-0.5",
        "run --strategy d2-balanced --input jacrand --scale 0.5",
        "d2-balanced [sequential, p=1]"),
    row("d2-balanced-mp-jacrand-0.5",
        "run --strategy d2-balanced --mode mp --threads 2 --input jacrand "
        "--scale 0.5", "d2-balanced [mp, p=2]"),
]


@pytest.mark.parametrize("command,expected", RUNS)
def test_run_exits_0_and_prints_its_summary(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    for line in expected:
        assert line in out, out


def test_store_then_run_from_the_graph_file(tmp_path, capsys):
    """``store`` writes the out-of-core graph, and ``run --graph-file``
    colors it exactly as the dataset it came from."""
    path = tmp_path / "cnr.csrg"
    assert main(["store", "--input", "cnr", "--scale", "0.05",
                 "--out", str(path)]) == 0
    assert f"-> {path}" in capsys.readouterr().out
    run = ["run", "--strategy", "greedy-ff", "--mode", "mp", "--threads", "2"]
    assert main([*run, "--graph-file", str(path)]) == 0
    from_file = capsys.readouterr().out.splitlines()
    assert main([*run, "--scale", "0.05"]) == 0
    from_dataset = capsys.readouterr().out.splitlines()
    assert from_file[0] == f"{path}:"

    def summary(lines):  # the summary line without its wall time
        return lines[1].rsplit("wall=", 1)[0]

    assert summary(from_file) == summary(from_dataset)
    assert summary(from_file).startswith("greedy-ff [mp, p=2]")
