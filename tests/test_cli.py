"""Tests for the command-line interface."""

import os
import re
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.serve.api import fetch_json

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
    """``python -m repro serve`` as a child process (it blocks to serve),
    driven by the in-process ``submit`` client."""

    @staticmethod
    def _serve(*args):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, env=env)

    @classmethod
    @contextmanager
    def _serving(cls, *args):
        """A ``serve --port 0 ARGS`` child: yields its URL and its
        listening line, and kills it on exit."""
        proc = cls._serve("--port", "0", *args)
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                match = re.search(r"listening on (http://\S+)", line)
                if match:
                    break
            else:
                pytest.fail(proc.stderr.read())
            yield match.group(1), line
        finally:
            watchdog.cancel()
            proc.kill()
            proc.communicate()

    @staticmethod
    def _submit(url, *args):
        return main(["submit", "--url", url, "--strategy", "greedy-ff",
                     "--scale", "0.05", *args])

    def test_shards_flag_is_rejected(self):
        proc = self._serve("--shards", "2")
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 2
        assert "--shards" in err

    def test_supervised_service_answers_healthz(self, capsys):
        with self._serving("--supervise") as (url, line):
            assert "supervise=on" in line
            health = fetch_json(url, "/healthz")
            assert health["live"] is True
            assert health["status"] in ("ready", "degraded"), health
            assert fetch_json(url, "/stats")["supervisor"]["running"] is True
            assert self._submit(url, "--deadline", "60000") == 0
            assert "done via computed" in capsys.readouterr().out

    def test_store_survives_a_restart(self, tmp_path, capsys):
        """A result persisted in ``--store`` outlives the server: after a
        kill and a restart it is served from the store by key, without
        an execute, and job ids keep counting up."""
        store = str(tmp_path / "serve-store")
        with self._serving("--store", store) as (url, _):
            assert self._submit(url, "--tenant", "ci", "--priority", "high") == 0
        with self._serving("--store", store) as (url, _):
            stats = fetch_json(url, "/stats")
            assert stats["scheduler"]["executed"] == 0, stats
            assert stats["store"]["persistent"] is True, stats
            assert self._submit(url) == 0
            scheduler = fetch_json(url, "/stats")["scheduler"]
            assert scheduler["executed"] == 0, scheduler
            assert scheduler["store_hits"] == 1, scheduler
            assert scheduler["cache_hits"] == 1, scheduler
            first = fetch_json(url, "/result/1")
            assert first["status"] == "done" and first["source"] == "store", first
            assert fetch_json(url, "/stats")["scheduler"]["executed"] == 0
            capsys.readouterr()
            assert main(["submit", "--url", url, "--strategy", "greedy-ff",
                         "--scale", "0.04", "--no-wait"]) == 0
            assert "job 3 submitted" in capsys.readouterr().out
            assert fetch_json(url, "/result/3")["id"] == 3
