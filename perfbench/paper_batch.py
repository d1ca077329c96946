"""Workload ``paper-batch``: cold ``repro paper --dataset D`` processes.

One client, closed loop: each operation is a fresh interpreter running
``python -m repro paper --dataset D`` to exit, so every operation pays
interpreter start, import, dataset load, CPM, tree, analyses and
report render -- what a user waiting on the command pays.  ``D`` is
the default-profile topology ``repro generate`` writes for the
workload seed; generating it is this workload's set-up, sampled
before and after the operations (``common.SETUP_REPEATS``).

Correctness: every operation's stdout must equal the first one's, and
the first one's Figure 4.1 block (per-k community counts, total and
unique orders) must equal the block rendered from an independent
``extract_hierarchy`` reference computed in a child process, untimed.

With ``--trace 1`` operations alternate between the plain command and
``child.py paper``, which runs the same CLI ``main`` with the calls
into each layer timed and the program's ``cpm.*`` spans recorded.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from common import (
    Outcome,
    WorkloadError,
    child_cmd,
    generate,
    median,
    quantile,
    repro_cmd,
    run_timed,
)

#: Traced-run layer times, in the order they run inside one operation.
LAYERS = (
    "process.import_s",
    "topology.load_s",
    "cpm.enumerate_s",
    "cpm.overlap_s",
    "cpm.percolate_s",
    "cpm.hierarchy_s",
    "tree.build_s",
    "analysis.sweep_s",
    "analysis.paper_s",
    "report.render_s",
)
COUNTS = ("cliques.enumerated", "overlap.pairs")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _generate(ctx, samples: int, setup: list[float]) -> Path:
    """Set-up: ``repro generate`` the workload's dataset ``samples`` times.

    Appends each wall time to ``setup``.  The first sample's dataset is
    the one measured; every later one must equal it byte for byte.
    """
    first = ctx.work / "dataset0"
    for _ in range(samples):
        target = ctx.work / f"dataset{len(setup)}"
        setup.append(generate(ctx, target))
        if target != first:
            if _files(target) != _files(first):
                raise WorkloadError("repro generate is not deterministic for one seed")
            shutil.rmtree(target)
    return first


def _expected_census_block(ctx, dataset: Path) -> tuple[str, dict[int, int]]:
    """Figure 4.1 as it must read, from the independent reference.

    Computed in a child process: a spawned child's ``ru_maxrss`` starts
    from its parent's footprint, so this process stays free of the
    program's data to keep every operation's peak RSS its own.
    """
    _, code, out, _ = run_timed(child_cmd("reference", str(dataset)), ctx.log)
    if code != 0:
        raise WorkloadError("reference extraction failed")
    doc = json.loads(out)
    return doc["block"], {int(k): v for k, v in doc["per_k"].items()}


def run(ctx) -> Outcome:
    setup: list[float] = []
    dataset = _generate(ctx, (ctx.setup_repeats + 1) // 2, setup)
    block, per_k = _expected_census_block(ctx, dataset)
    paper = repro_cmd("paper", "--dataset", str(dataset))

    # Warm-up (untimed): fixes the reference stdout every operation must repeat.
    _, code, reference, _ = run_timed(paper, ctx.log)
    if code != 0 or block not in reference.decode("utf-8"):
        raise WorkloadError("first `repro paper` run failed or disagrees with the reference")

    latencies, traced_latencies, rss, layers = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds or attempted < ctx.min_ops:
        traced = ctx.trace and attempted % 2 == 1
        if traced:
            out_json = ctx.work / "paper_layers.json"
            cmd = child_cmd("paper", str(dataset), str(out_json), repr(time.time()))
        else:
            cmd = paper
        wall, code, out, maxrss = run_timed(cmd, ctx.log)
        attempted += 1
        ok = code == 0 and out == reference
        if ok and traced:
            doc = json.loads(out_json.read_text(encoding="utf-8"))
            ok = {int(k): v for k, v in doc["per_k"].items()} == per_k
            if ok:
                layers.append(doc)
                traced_latencies.append(wall)
        elif ok:
            latencies.append(wall)
            rss.append(maxrss)
        failed += not ok
    elapsed = time.perf_counter() - start
    _generate(ctx, ctx.setup_repeats // 2, setup)
    if not latencies or (ctx.trace and not layers):
        raise WorkloadError(f"all {attempted} operations failed")

    outcome = Outcome(attempted=attempted, failed=failed)
    outcome.detail = {
        "operations": attempted,
        "setup_samples_s": setup,
        "latencies_ms": [round(x * 1000.0, 3) for x in latencies],
    }
    if not ctx.trace:
        outcome.e2e = {
            "latency_p50_ms": median(latencies) * 1000.0,
            "latency_p90_ms": quantile(latencies, 0.9) * 1000.0,
            "throughput_rps": len(latencies) / elapsed,
            "peak_rss_mb": max(rss) / 1024.0,
            "setup_s": median(setup),
        }
        return outcome
    parts = {name: median([doc[name] for doc in layers]) for name in LAYERS}
    untraced_s = median(latencies)
    outcome.layers = {
        **parts,
        **{name: median([doc[name] for doc in layers]) for name in COUNTS},
        "unattributed_s": untraced_s - sum(parts.values()),
        "trace_overhead_pct": (median(traced_latencies) / untraced_s - 1.0) * 100.0,
    }
    outcome.detail["untraced_latency_p50_ms"] = untraced_s * 1000.0
    return outcome
