"""The benchmark's own test: every workload, tiny inputs, every metric named.

Run from the checkout root::

    python -m pytest perfbench/test_smoke.py

Each workload runs with ``--smoke`` (the ``tiny`` topology, a handful
of operations, one set-up sample on each side of them) untraced and
traced; the result line must carry exactly the metrics
``BENCHMARK.json`` lists for that mode, each with its unit, and no
operation may fail.  A directory holding
only ``BENCHMARK.json`` and the benchmark must make it exit non-zero
without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload: str, trace: int) -> None:
    proc = _run(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert len(json.loads(detail)["detail"]["setup_samples_s"]) == 2
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0.0
    else:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_refuses_without_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
