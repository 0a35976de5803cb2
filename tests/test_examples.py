"""Smoke tests for the runnable examples.

Each example is executed as a subprocess with a small ``--n`` so the whole
file stays fast; assertions check the exit code and a couple of landmark
output lines, guarding the examples against API drift.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_examples_directory_complete(self):
        present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "latency_monitoring.py",
            "distributed_merge.py",
            "unknown_stream_length.py",
            "subset_reconstruction.py",
            "windowed_monitoring.py",
        } <= present

    def test_quickstart(self):
        out = run_example("quickstart.py", "--n", "20000")
        assert "stream length" in out
        assert "rank interval" in out
        assert "4-shard union p99" in out
        # The serve/query walkthrough: a real localhost server round-trip.
        assert "service p50/p99" in out
        assert "after MERGE" in out
        assert "server stats" in out

    def test_latency_monitoring(self):
        out = run_example("latency_monitoring.py", "--n", "30000")
        assert "p99.9" in out
        assert "SLO" in out

    def test_distributed_merge(self):
        out = run_example("distributed_merge.py", "--n", "24000", "--shards", "6")
        assert "merged sketch" in out
        assert "Theorem 3" in out

    def test_unknown_stream_length(self):
        out = run_example("unknown_stream_length.py", "--n", "30000")
        assert "close-out" in out
        assert "in-place" in out

    def test_subset_reconstruction(self):
        out = run_example(
            "subset_reconstruction.py", "--universe", "512", "--n-budget", "30000"
        )
        assert "decoded == secret: True" in out

    def test_windowed_monitoring(self):
        out = run_example("windowed_monitoring.py", "--n", "24000")
        assert "ALERT" in out
        assert "live push" in out
        assert "horizon views" in out
        assert "retained items" in out
