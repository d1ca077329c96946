"""Helpers shared by the workloads: results, statistics, child processes.

Nothing here imports :mod:`repro`; the program is reached through
``PYTHONPATH=<checkout>/src`` (children) or ``sys.path`` (the benchmark
process's own reference computations, set up by ``run.py``).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

#: Set-up is repeated this many times per run, half before the measured
#: operations and half after them, and reported as a median.  On a
#: shared host slow set-ups come in stretches of seconds; samples on
#: both sides see two host states instead of one (README.md, "Set-up").
SETUP_REPEATS = 16


class WorkloadError(RuntimeError):
    """The workload could not be set up; no operation was measured."""


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``.

    ``e2e`` is filled by untraced runs, ``layers`` by traced runs (a
    layer the workload never enters is left out and reported as 0);
    ``detail`` is free-form context printed beside the result.
    """

    attempted: int
    failed: int
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def child_env() -> dict:
    """The environment every spawned program process runs with."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def repro_cmd(*args: str) -> list[str]:
    """``python -m repro <args>``: the program as a user types it."""
    return [sys.executable, "-m", "repro", *args]


def child_cmd(*args: str) -> list[str]:
    """A benchmark-side child process (see ``child.py``)."""
    return [sys.executable, str(CHILD), *args]


def run_timed(cmd: list[str], log: Path) -> tuple[float, int, bytes, int]:
    """Run ``cmd`` to completion: (wall seconds, exit code, stdout, max RSS KiB).

    The wall time runs from just before the spawn to the reap, i.e. what
    a user waiting on the command sees.  The peak RSS comes from
    ``wait4`` on this very child.  Standard error is appended to ``log``
    (a file cannot fill up and stall the child the way a second pipe
    can while stdout is being drained).
    """
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env())
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        wall = time.perf_counter() - start
    # Reaped by wait4 above; tell Popen so it never waits on a stale pid.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage.ru_maxrss


def generate(ctx, target: Path) -> float:
    """``repro generate`` the workload seed's topology into ``target``: wall seconds."""
    profile = ["--profile", "tiny"] if ctx.smoke else []
    wall, code, _, _ = run_timed(
        repro_cmd("generate", str(target), "--seed", str(ctx.seed), *profile), ctx.log
    )
    if code != 0:
        raise WorkloadError(f"repro generate exited with {code}")
    return wall


def vmhwm_kib(pid: int | str = "self") -> int:
    """RSS high-water mark (``VmHWM``, KiB) of process ``pid`` since its exec.

    A spawned child's ``ru_maxrss`` would also count its parent's
    footprint at the spawn.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise WorkloadError(f"no VmHWM in /proc/{pid}/status")


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def calib_ms() -> float:
    """Median time of a fixed pure-Python loop: the host drift probe.

    Recorded beside every run's metrics and never gated; a shift here
    between two runs is the machine, not the program.
    """
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - start) * 1000.0)
    return median(samples)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
