"""Workload ``session-churn``: an incremental session absorbing edge deltas.

Inputs (untimed): a default-profile ``TopologyEvolution`` (a fixed
fixture, see ``TOPOLOGY_SEED``); the session opens on its
second-to-last snapshot.  From the workload seed, a cycle of a fixed
number of blocks, each::

    insert a <=1% batch of the final transition's insertions
    flap FLAPS links (delete an existing link, then re-insert it)
    retract the batch

Every delta is undone within its block, so the cycle restores the
graph and a run can repeat it any number of times; a run covers the
cycle a whole number of times, set by ``--seconds``, so every run of
a seed applies exactly the same deltas.  Flap links are drawn one per stratum of the links sorted
by common-neighbour count, so every seed flaps the same spread of
cheap peripheral and expensive core links.

The session lives in its own process (``child.py session``) so its
peak RSS is the session's, not the benchmark's; the child times each
``session.apply`` call.  Set-up is ``open_session`` on the snapshot,
sampled before and after the cycles (``common.SETUP_REPEATS``).

Correctness: ``session.result()`` after a sampled operation of the
first cycle and at the end of the run must equal ``extract_hierarchy``
on the graph at that point (computed here, untimed), and the final
edge set must equal the snapshot's.
"""

from __future__ import annotations

import json
import random
import time

from common import Outcome, WorkloadError, child_cmd, median, quantile, run_timed

#: The evolution is a fixed fixture; the workload seed draws the deltas.
#: Seeded topologies differ by up to ~15% in overlap pairs, and every
#: percolation step scales with them, which doubled the run-to-run spread.
TOPOLOGY_SEED = 42
SNAPSHOTS = 12
BATCH_FRACTION = 0.01
BLOCKS = 16
FLAPS = 8
#: Rough wall time of one cycle on a 2-vCPU host; a run repeats the
#: cycle round(--seconds / this) times (at least once), a count fixed by
#: the arguments alone, so every run of a seed applies the same deltas.
#: One long cycle rather than repeats of a short one: more distinct
#: links per run, so runs of different seeds see the same mix.
CYCLE_NOMINAL_S = 30.0


def _cycle(prev, last, seed: int) -> list[list[dict]]:
    """The seeded delta cycle: state-restoring blocks of JSON-ready ops."""
    from repro.incremental import EdgeDelta

    rng = random.Random(f"{seed}:churn")
    insertions = [list(edge) for edge in EdgeDelta.between(prev, last).insertions]
    cap = max(1, int(prev.number_of_edges * BATCH_FRACTION))
    links = sorted(
        (tuple(sorted(edge)) for edge in prev.edges()),
        key=lambda e: (len(prev.neighbors(e[0]) & prev.neighbors(e[1])), e),
    )
    strata = BLOCKS * FLAPS
    flaps = [
        list(rng.choice(links[i * len(links) // strata : (i + 1) * len(links) // strata]))
        for i in range(strata)
    ]
    rng.shuffle(flaps)
    blocks = []
    for block in range(BLOCKS):
        batch = rng.sample(insertions, min(cap, len(insertions)))
        ops = [{"ins": batch, "del": []}]
        for link in flaps[block * FLAPS : (block + 1) * FLAPS]:
            ops.append({"ins": [], "del": [link]})
            ops.append({"ins": [link], "del": []})
        ops.append({"ins": [], "del": batch})
        blocks.append(ops)
    return blocks


def _reference(prev, ops: list[dict]) -> dict:
    """``extract_hierarchy`` on the snapshot with ``ops`` applied."""
    from repro.core.percolation import extract_hierarchy
    from repro.core.serialize import hierarchy_to_dict

    graph = prev.copy()
    for op in ops:
        for u, v in op["del"]:
            graph.remove_edge(u, v)
        for u, v in op["ins"]:
            graph.add_edge(u, v)
    return hierarchy_to_dict(extract_hierarchy(graph))


def run(ctx) -> Outcome:
    from repro.evolution import TopologyEvolution
    from repro.graph.io import write_edgelist
    from repro.topology.generator import GeneratorConfig

    config = GeneratorConfig.tiny() if ctx.smoke else GeneratorConfig.default()
    evolution = TopologyEvolution(config, seed=TOPOLOGY_SEED, n_snapshots=SNAPSHOTS)
    snapshots = evolution.snapshots()
    prev, last = snapshots[-2], snapshots[-1]
    blocks = _cycle(prev, last, ctx.seed)
    rng = random.Random(f"{ctx.seed}:check")
    # A sampled state with a batch inserted: inside a block, before its retraction.
    check_at = (rng.randrange(BLOCKS), rng.randrange(2 * FLAPS + 1))

    graph_path, spec_path, out_path = (
        ctx.work / "snapshot.edges", ctx.work / "session.json", ctx.work / "session.out.json"
    )
    write_edgelist(prev, graph_path)
    spec_path.write_text(json.dumps({
        "graph": str(graph_path),
        "blocks": blocks,
        "check_at": check_at,
        "trace": ctx.trace,
        # A traced run drives two sessions through the same cycles.
        "cycles": max(1, round(ctx.seconds / CYCLE_NOMINAL_S / (2 if ctx.trace else 1))),
        "setup_repeats": ctx.setup_repeats,
    }), encoding="utf-8")

    _, code, _, _ = run_timed(
        child_cmd("session", str(spec_path), str(out_path), repr(time.time())), ctx.log
    )
    if code != 0:
        raise WorkloadError(f"session child exited with {code}")
    doc = json.loads(out_path.read_text(encoding="utf-8"))

    # Correctness gates (untimed): sampled state, final state, final edges.
    expected_start = _reference(prev, [])
    block, position = check_at
    sampled = _reference(prev, blocks[block][: position + 1])
    failures = sum(check != sampled for check in doc["checks"])
    failures += sum(final != expected_start for final in doc["final"])
    snapshot_edges = sorted(list(sorted(edge)) for edge in prev.edges())
    failures += doc["final_edges"] != snapshot_edges
    failures += len(doc["checks"]) != 1

    latencies = doc["latencies"][0]
    attempted = sum(len(side) for side in doc["latencies"])
    outcome = Outcome(attempted=attempted, failed=min(failures, attempted))
    outcome.detail = {
        "operations": attempted,
        "cycles": doc["cycles"],
        "ops_per_cycle": sum(len(ops) for ops in blocks),
        "checked_position": check_at,
        "setup_samples_s": doc["setup_s"],
        "latencies_ms": [round(x * 1000.0, 3) for x in latencies],
    }
    if not ctx.trace:
        seconds = sum(latencies)
        outcome.e2e = {
            "latency_p50_ms": median(latencies) * 1000.0,
            "latency_p90_ms": quantile(latencies, 0.9) * 1000.0,
            "throughput_rps": len(latencies) / seconds,
            "peak_rss_mb": doc["max_rss_kib"] / 1024.0,
            "setup_s": median(doc["setup_s"]),
        }
        return outcome

    spans, counters = doc["spans"], doc["counters"]
    traced = doc["latencies"][1]
    batches = counters["incr.batches"]
    outcome.layers = {
        "process.import_s": doc["process.import_s"],
        "topology.load_s": doc["topology.load_s"],
        "cliques.enumerated": doc["n_cliques"],
        "overlap.pairs": doc["n_overlap_pairs"],
        "incr.open_s": median(spans["incr.open"]),
        **{
            f"incr.{phase}_ms": median(spans.get(f"incr.{phase}", [0.0])) * 1000.0
            for phase in ("mutate", "percolate", "diff", "hierarchy")
        },
        **{
            name: counters[name] / batches
            for name in ("incr.cliques_born", "incr.cliques_retired", "incr.orders_repercolated")
        },
        "trace_overhead_pct": (median(traced) / median(latencies) - 1.0) * 100.0,
    }
    return outcome
