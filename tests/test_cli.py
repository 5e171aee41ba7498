"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig1b" in out

    def test_single_experiment(self, capsys):
        assert main(["table2", "--scale", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "europe_osm" in out

    def test_csv_output(self, tmp_path, capsys):
        assert main(["table2", "--scale", "0.04", "--csv", str(tmp_path)]) == 0
        files = list(tmp_path.glob("*.csv"))
        assert len(files) == 1
        assert "input" in files[0].read_text().splitlines()[0]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_fig2_produces_two_tables(self, capsys):
        assert main(["fig2", "--scale", "0.04"]) == 0
        out = capsys.readouterr().out
        assert out.count("Fig. 2") == 2

    def test_report_output(self, tmp_path, capsys):
        report = tmp_path / "report.md"
        assert main(["table2", "--scale", "0.04", "--report", str(report)]) == 0
        text = report.read_text()
        assert text.startswith("# repro results")
        assert "Table II" in text

    def test_trace_archives_events(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        trace = tmp_path / "run.jsonl"
        assert main(["table3", "--scale", "0.04", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "archived" in out and str(trace) in out
        events = read_jsonl(trace)
        assert events[-1]["kind"] == "run_summary"
        assert any(e["kind"] == "coloring" for e in events)
        assert any(e["kind"] == "balance" for e in events)


class TestRunCommand:
    def test_list_shows_strategy_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "greedy-ff" in out and "sequential, superstep, mp" in out

    def test_run_sequential(self, capsys):
        assert main(["run", "--strategy", "vff", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "vff [sequential" in out and "rsd=" in out

    def test_run_superstep_with_machine(self, capsys):
        assert main(["run", "--strategy", "vff", "--mode", "superstep",
                     "--threads", "4", "--machine", "tilegx36",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "vff [superstep" in out and "model=" in out

    def test_run_requires_strategy(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--scale", "0.05"])
        assert "--strategy" in capsys.readouterr().err

    def test_run_unsupported_pair_exits_2(self, capsys):
        rc = main(["run", "--strategy", "kempe", "--mode", "superstep",
                   "--threads", "2", "--scale", "0.05"])
        assert rc == 2
        assert "does not support mode" in capsys.readouterr().err

    def test_run_trace_archives_events(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        trace = tmp_path / "run.jsonl"
        assert main(["run", "--strategy", "vff", "--mode", "superstep",
                     "--threads", "4", "--scale", "0.05",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "archived" in out
        events = read_jsonl(trace)
        assert any(e["kind"] == "superstep" for e in events)


class TestServeCommand:
    """``python -m repro serve`` as a child process (it blocks to serve)."""

    @staticmethod
    def _serve(*args):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, env=env)

    def test_shards_flag_is_rejected(self):
        proc = self._serve("--shards", "2")
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 2
        assert "--shards" in err

    def test_supervised_service_answers_healthz(self):
        proc = self._serve("--port", "0", "--supervise")
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            url = None
            for line in proc.stdout:
                match = re.search(r"listening on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url is not None, proc.stderr.read()
            assert "supervise=on" in line
            with urllib.request.urlopen(url + "/healthz", timeout=30) as reply:
                health = json.load(reply)
            assert health["live"] is True
            assert health["status"] in ("ready", "degraded"), health
            with urllib.request.urlopen(url + "/stats", timeout=30) as reply:
                assert json.load(reply)["supervisor"]["running"] is True
        finally:
            watchdog.cancel()
            proc.kill()
            proc.communicate()
