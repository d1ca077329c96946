"""The repository benchmark: one command, three workloads, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untraced; ``--trace 1`` is a separate run that measures the per-layer
metrics.  ``--smoke`` shrinks any workload to the ``tiny`` topology and
a handful of operations (the benchmark's own test, ``test_smoke.py``).
Metric names and units come from ``BENCHMARK.json`` at the checkout
root.  The last line of stdout is the result::

    {"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}

The line before it carries context that gates nothing: the host drift
probe at the start and end of the run, sample counts, per-workload
details.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

from common import ROOT, SETUP_REPEATS, SRC, WorkloadError, calib_ms, child_env, metric, median

#: End-to-end figures every untraced run measures and prints on the
#: detail line, but BENCHMARK.json does not gate: on a shared 2-vCPU host
#: their ten-run spread reached 0.27-0.32 for the CPU-bound workloads
#: (see README.md), beyond the largest bound a gated metric may have.
UNGATED_UNITS = {"latency_p50_ms": "ms", "throughput_rps": "1/s"}


def _workloads() -> dict:
    import paper_batch
    import serve_keepalive
    import session_churn

    return {
        "paper-batch": paper_batch.run,
        "serve-keepalive": serve_keepalive.run,
        "session-churn": session_churn.run,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny topology, few operations")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    # Byte-compile the program up front (untimed), so no measured process
    # pays a first-import compile that later ones do not.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True, env=child_env(), stdout=subprocess.DEVNULL,
    )

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = SimpleNamespace(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        work=work,
        log=work / "stderr.log",
        min_ops=3 if args.smoke else 5,
        # Smoke runs still take one set-up sample on each side.
        setup_repeats=2 if args.smoke else SETUP_REPEATS,
    )
    try:
        calib_start = calib_ms()
        try:
            outcome = workloads[args.workload](ctx)
        except WorkloadError as exc:
            log = ctx.log.read_text(encoding="utf-8", errors="replace") if ctx.log.exists() else ""
            print(f"error: {args.workload}: {exc}\n{log[-4000:]}", file=sys.stderr)
            return 1
        calib_end = calib_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still owns a sibling directory

    calib = median([calib_start, calib_end])
    if args.trace:
        values = {
            **outcome.layers,
            "host.calib_ms": calib,
            "failed_frac": outcome.failed / outcome.attempted,
        }
        metrics = {
            m["name"]: metric(values.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]
        }
    else:
        metrics = {m["name"]: metric(outcome.e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host.calib_ms": {"start": calib_start, "end": calib_end},
        **outcome.detail,
    }
    if not args.trace:
        detail["ungated"] = {
            name: metric(outcome.e2e[name], unit) for name, unit in UNGATED_UNITS.items()
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
