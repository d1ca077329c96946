"""Benchmark-side child processes for the traced and in-process layers.

Run as ``python perfbench/child.py <mode> ...`` with ``PYTHONPATH``
pointing at the checkout's ``src`` (``common.child_env``):

* ``import SPAWN_WALL`` -- import the CLI module graph and report the
  time since the parent's spawn (interpreter start + import);
* ``reference DATASET`` -- the Figure 4.1 block and per-k community
  counts from the independent ``extract_hierarchy`` oracle;
* ``paper DATASET OUT SPAWN_WALL`` -- ``repro paper --dataset DATASET``
  through the CLI's own ``main`` with its own defaults, with the calls
  into each layer timed from here and a ``Tracer(memory=False)`` handed
  to ``PaperRun`` so the program's ``cpm.*`` spans are recorded.  The
  report goes to stdout exactly as the CLI prints it; timings go to
  the JSON file OUT;
* ``session INPUT OUT SPAWN_WALL`` -- hold one incremental session and apply the
  seeded delta cycle described in INPUT (see ``session_churn.py``).

Every mode writes its measurements as one JSON document; nothing here
decides pass or fail -- the parent checks the outputs.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter

#: The lazily computed PaperRun analyses ``full_report`` consumes.
PAPER_ANALYSES = (
    "census", "sizes", "density_odf", "overlap", "ixp_share", "geo",
    "bands", "crown", "trunk", "root",
)


def span_seconds(tracer, names) -> dict:
    """Total wall seconds per span name (all records of that name)."""
    totals = {name: 0.0 for name in names}
    for record in tracer.records:
        if record.name in totals:
            totals[record.name] += record.wall_seconds
    return totals


def mode_import(spawn_wall: float) -> int:
    import repro.cli  # noqa: F401  (the module graph `python -m repro` loads)

    print(json.dumps({"import_s": time.time() - spawn_wall}))
    return 0


def mode_reference(dataset: str) -> int:
    """Figure 4.1 rendered from an independent ``extract_hierarchy`` run."""
    from types import SimpleNamespace

    from repro.analysis.census import CommunityCensus
    from repro.core.percolation import extract_hierarchy
    from repro.report.paper import PaperRun
    from repro.topology.dataset import ASDataset

    reference = extract_hierarchy(ASDataset.load(dataset).graph)
    block = PaperRun.figure_4_1(SimpleNamespace(census=CommunityCensus(reference)))
    per_k = {k: len(reference[k]) for k in reference.orders}
    print(json.dumps({"block": block, "per_k": per_k}))
    return 0


def mode_paper(dataset: str, out: str, spawn_wall: float) -> int:
    import repro.cli as cli

    imported = time.time()
    from repro.obs import MetricsRegistry, Tracer
    from repro.report.paper import PaperRun
    from repro.topology.dataset import ASDataset

    tracer = Tracer(memory=False)
    registry = MetricsRegistry()
    times: dict[str, float] = {}
    per_k: dict[int, int] = {}

    load = ASDataset.load.__func__

    def timed_load(cls, directory):
        start = perf()
        dataset = load(cls, directory)
        times["topology.load_s"] = perf() - start
        return dataset

    ASDataset.load = classmethod(timed_load)

    class TracedPaperRun(PaperRun):
        def __init__(self, dataset, **kwargs):
            kwargs["tracer"] = tracer
            kwargs["metrics"] = registry
            super().__init__(dataset, **kwargs)

        def full_report(self) -> str:
            start = perf()
            self.context.metrics_rows()
            times["analysis.sweep_s"] = perf() - start
            start = perf()
            for name in PAPER_ANALYSES:
                getattr(self, name)
            times["analysis.paper_s"] = perf() - start
            start = perf()
            text = super().full_report()
            times["report.render_s"] = perf() - start
            hierarchy = self.context.hierarchy
            per_k.update({k: len(hierarchy[k]) for k in hierarchy.orders})
            return text

    cli.PaperRun = TracedPaperRun
    code = cli.main(["paper", "--dataset", dataset])
    sys.stdout.flush()
    spans = span_seconds(
        tracer, ("cpm.enumerate", "cpm.overlap", "cpm.percolate", "cpm.hierarchy", "tree.build")
    )
    document = {
        "process.import_s": imported - spawn_wall,
        **times,
        "cpm.enumerate_s": spans["cpm.enumerate"],
        "cpm.overlap_s": spans["cpm.overlap"],
        "cpm.percolate_s": spans["cpm.percolate"],
        "cpm.hierarchy_s": spans["cpm.hierarchy"],
        "tree.build_s": spans["tree.build"],
        "cliques.enumerated": registry.counter("cliques.enumerated").value,
        "overlap.pairs": registry.counter("overlap.pairs").value,
        "per_k": per_k,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return code


def mode_session(input_path: str, out: str, spawn_wall: float) -> int:
    from repro.api import open_session

    imported = time.time()
    from common import vmhwm_kib
    from repro.core.serialize import hierarchy_to_dict
    from repro.graph.io import read_edgelist
    from repro.incremental import EdgeDelta
    from repro.obs import MetricsRegistry, Tracer

    with open(input_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    start = perf()
    graph = read_edgelist(spec["graph"])
    load_s = perf() - start

    blocks = [
        [
            EdgeDelta(
                insertions=[tuple(edge) for edge in op["ins"]],
                deletions=[tuple(edge) for edge in op["del"]],
            )
            for op in block
        ]
        for block in spec["blocks"]
    ]
    check_block, check_position = spec["check_at"]
    traced = bool(spec["trace"])

    setup: list[float] = []

    def open_timed():
        start = perf()
        opened = open_session(graph)
        setup.append(perf() - start)
        return opened

    # Set-up samples on both sides of the cycles; the last session
    # opened before them is the one measured.
    session = None
    for _ in range((spec["setup_repeats"] + 1) // 2):
        session = None
        session = open_timed()
    sessions = [(session, None, None)]
    if traced:
        # A second, traced session over the same graph.  Every block
        # restores the graph, so the two take turns block by block and
        # see the same host drift and the same warm-up.
        tracer, registry = Tracer(memory=False), MetricsRegistry()
        sessions.append((open_session(graph, tracer=tracer, metrics=registry), tracer, registry))

    latencies: list[list[float]] = [[] for _ in sessions]
    checks: list[dict] = []
    for cycle_index in range(spec["cycles"]):
        for block_index, block in enumerate(blocks):
            order = list(enumerate(sessions))
            if block_index % 2:
                order.reverse()  # neither session always runs the block second
            for which, (live, _, _) in order:
                for position, delta in enumerate(block):
                    start = perf()
                    live.apply(delta)
                    latencies[which].append(perf() - start)
                    if (cycle_index, which, block_index, position) == (
                        0, 0, check_block, check_position
                    ):
                        checks.append(hierarchy_to_dict(live.result().hierarchy))
    max_rss_kib = vmhwm_kib()

    final = [hierarchy_to_dict(live.result().hierarchy) for live, _, _ in sessions]
    edges = sorted(tuple(sorted(edge)) for edge in sessions[0][0].graph.edges())
    document = {
        "process.import_s": imported - spawn_wall,
        "topology.load_s": load_s,
        "setup_s": setup,
        "cycles": spec["cycles"],
        "latencies": latencies,
        "checks": checks,
        "final": final,
        "final_edges": edges,
        "n_cliques": session.n_cliques,
        "n_overlap_pairs": session.n_overlap_pairs,
        "max_rss_kib": max_rss_kib,
    }
    if traced:
        tracer, registry = sessions[1][1:]
        by_name: dict[str, list[float]] = {}
        for record in tracer.records:
            by_name.setdefault(record.name, []).append(record.wall_seconds)
        document["spans"] = by_name
        document["counters"] = {
            name: registry.counter(name).value
            for name in ("incr.batches", "incr.cliques_born", "incr.cliques_retired",
                         "incr.orders_repercolated")
        }
    # The peak RSS is read; free the measured sessions before opening more.
    session = sessions = order = live = None
    for _ in range(spec["setup_repeats"] // 2):
        open_timed()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "import":
        return mode_import(float(argv[2]))
    if mode == "reference":
        return mode_reference(argv[2])
    if mode == "paper":
        return mode_paper(argv[2], argv[3], float(argv[4]))
    if mode == "session":
        return mode_session(argv[2], argv[3], float(argv[4]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
