"""Smoke self-test of the benchmark: every workload at tiny size.

    python -m pytest perfbench/tests -q

Each workload runs untraced and traced for a fraction of a second of
work; every metric ``BENCHMARK.json`` names must be printed by name with
its unit, and no op may fail (``failed_op_frac`` is 0).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_and_no_op_fails(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line[0] != "#"}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("# failed_op_frac 0 ") for line in lines)


def _digest(ops) -> str:
    digest = hashlib.sha256()

    def feed(item):
        if isinstance(item, np.ndarray):
            digest.update(item.tobytes())
        elif isinstance(item, (list, tuple)):
            for part in item:
                feed(part)
        else:
            digest.update(repr(item).encode())

    feed(ops)
    return digest.hexdigest()


def test_same_seed_same_inputs():
    for cls in WORKLOADS.values():
        first, second, other = cls(3, 0.3), cls(3, 0.3), cls(4, 0.3)
        assert _digest(first.populate()) == _digest(second.populate())
        for index in (0, first.steps - 1):
            assert _digest(first.step(index)) == _digest(second.step(index))
            assert _digest(first.step(index)) != _digest(other.step(index))


def test_fails_without_the_program(tmp_path):
    """Only the benchmark's own files: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
