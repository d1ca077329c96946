"""Query-service read path: artifact build, load, and point lookups.

The query artifact exists so the read path answers in microseconds with
zero CPM recompute; this bench freezes the session context into an
artifact, round-trips it through save -> mmap load, and times the four
point-query families a served artifact answers (membership, band,
lowest common community, top-N).  Correctness comes first: every timed
lookup family is checked against the live hierarchy/tree objects before
any number is recorded, so the timings measure the same answers.

Persisted measurements (``BENCH_*.json`` config, gated by
``check_bench_regression.py``): ``query_lookup_seconds_*`` are
many-iteration loop totals sized to clear the gate's tiny-baseline
floor (0.05 s) so the latency trajectory is actually enforced; the
per-call ``query_lookup_us_*`` microsecond figures and the build/load
costs ride along ungated.  The build's ``query.build`` span lands in
the manifest via ``bench_tracer``/``bench_metrics``.

``test_query_service_concurrent`` drives the *served* path: a live
:class:`~repro.query.server.QueryServer` hammered over HTTP by
keep-alive client threads, once in the legacy global-lock mode
(``serialize_requests=True``) and once concurrently.  It records
``query_throughput_rps`` (gated, higher-is-better: multi-threaded
serving must not silently lose throughput) and the per-endpoint
``query_p99_seconds_*`` tail latencies straight from the server's
log-bucketed histograms.  Every request is also timed from the
client, send to last byte: ``query_client_p50_seconds`` /
``query_client_p99_seconds`` and ``query_transport_gap`` (client p50
over the server's ``query.request_seconds`` p50) show what the
handler histograms cannot — time spent in the transport — and the
client p50 must stay under ``_CLIENT_P50_CEILING`` on any host, so a
return of the ~40 ms Nagle/delayed-ACK stall per keep-alive request
fails here loudly.  The concurrent-vs-serialized speedup floor
only *fails* under ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` (set by CI, which
has multiple vCPUs) — a single-core dev box cannot overlap requests
and would fail the floor for hardware reasons, exactly like the shard
bench's treatment.
"""

from __future__ import annotations

import http.client
import os
import statistics
import threading
import time

from repro.api import load_query_artifact, make_query_server
from repro.obs.manifest import graph_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.query import LookupEngine, build_artifact
from repro.report.figures import ascii_table

#: Loop counts per lookup family, sized so each loop total clears the
#: regression gate's 0.05 s floor by a wide margin on CI hardware.
_LOOPS = {"membership": 50_000, "band": 40_000, "lca": 20_000, "top": 10_000}

#: Concurrent-load shape: client threads x keep-alive requests each.
_CLIENTS = 8
_REQUESTS_PER_CLIENT = 300

#: Required concurrent/serialized throughput ratio when the floor is
#: armed (REPRO_BENCH_REQUIRE_SPEEDUP=1; CI runs with >= 4 vCPUs).
_SPEEDUP_FLOOR = 1.05

#: Client-observed p50 ceiling (s) of the concurrent arm, always armed:
#: the stall it guards against costs 40+ ms per request.
_CLIENT_P50_CEILING = 0.010


def test_query_service_lookups(
    benchmark, context, emit, bench_record, bench_tracer, bench_metrics, tmp_path
):
    hierarchy = context.hierarchy

    start = time.perf_counter()
    built = build_artifact(
        hierarchy,
        tree=context.tree,
        graph=context.graph,
        csr=context.csr,
        tracer=bench_tracer,
        metrics=bench_metrics,
    )
    bench_record["query_build_seconds"] = round(time.perf_counter() - start, 4)

    path = tmp_path / "bench.rqart"
    built.save(path)
    start = time.perf_counter()
    artifact = load_query_artifact(path)
    bench_record["query_load_seconds"] = round(time.perf_counter() - start, 4)
    bench_record["query_artifact_bytes"] = path.stat().st_size

    engine = LookupEngine(artifact)
    nodes = artifact.nodes
    assert artifact.fingerprint == graph_fingerprint(context.graph)

    # Exactness before timing: the artifact must answer identically to
    # the live objects for every family about to be measured.
    for node in nodes[:50]:
        assert engine.memberships(node) == hierarchy.membership_of(node)
        assert engine.band(node)["max_k"] == max(hierarchy.membership_of(node))
    pair_members = artifact.members(0)
    lca = engine.lowest_common(pair_members[0], pair_members[1])
    assert lca is not None and lca["k"] >= artifact.orders[0]
    top = engine.top("density", n=10)
    densities = [record["link_density"] for record in top]
    assert densities == sorted(densities, reverse=True)

    # Timed loops — each family cycles through real ASes so the postings
    # slices touched vary the way served traffic would.
    n = len(nodes)
    timings: dict[str, tuple[float, float]] = {}

    def _loop(name: str, fn) -> None:
        loops = _LOOPS[name]
        start = time.perf_counter()
        for i in range(loops):
            fn(i)
        total = time.perf_counter() - start
        timings[name] = (total, total / loops)
        bench_record[f"query_lookup_seconds_{name}"] = round(total, 4)
        bench_record[f"query_lookup_us_{name}"] = round(total / loops * 1e6, 2)

    _loop("membership", lambda i: engine.memberships(nodes[i % n]))
    _loop("band", lambda i: engine.band(nodes[i % n]))
    _loop("lca", lambda i: engine.lowest_common(nodes[i % n], nodes[(i * 7 + 1) % n]))
    _loop("top", lambda i: engine.top("density", n=10))

    # The timed target for pytest-benchmark: one membership lookup.
    benchmark(lambda: engine.memberships(nodes[0]))

    table = ascii_table(
        ["lookup", "loops", "total (s)", "per call (us)"],
        [
            [name, _LOOPS[name], round(total, 3), round(per_call * 1e6, 2)]
            for name, (total, per_call) in timings.items()
        ],
        title=(
            f"query-service point lookups "
            f"({artifact.n_communities} communities, {artifact.n_nodes} ASes, "
            f"{path.stat().st_size} byte artifact)"
        ),
    )
    emit("query_service_lookups", table)

    artifact.close()


def _serve_and_hammer(artifact, nodes, *, serialize: bool) -> tuple[float, dict, list[float]]:
    """Serve ``artifact`` and hammer it; returns (wall, metrics dict,
    client-observed per-request seconds).

    ``_CLIENTS`` threads each issue ``_REQUESTS_PER_CLIENT`` requests
    over one keep-alive :class:`http.client.HTTPConnection`, cycling
    membership/band/top paths the way served traffic would.  Every
    response is checked to be 200.
    """
    metrics = MetricsRegistry()
    server = make_query_server(artifact, metrics=metrics, serialize_requests=serialize)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    n = len(nodes)
    bad: list[int] = []
    latencies: list[float] = []

    def client(t: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for i in range(_REQUESTS_PER_CLIENT):
                node = nodes[(t * _REQUESTS_PER_CLIENT + i) % n]
                path = (
                    f"/membership?as={node}",
                    f"/band?as={node}",
                    "/top?metric=density&n=5",
                )[i % 3]
                start = time.perf_counter()
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - start)
                if response.status != 200:
                    bad.append(response.status)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(t,)) for t in range(_CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not bad, f"non-200 responses under load: {bad[:5]}"
    data = metrics.to_dict()
    total = _CLIENTS * _REQUESTS_PER_CLIENT
    assert data["counters"]["query.requests"] == total, "lost counter updates"
    return wall, data, latencies


def test_query_service_concurrent(context, emit, bench_record, tmp_path):
    built = build_artifact(
        context.hierarchy, tree=context.tree, graph=context.graph, csr=context.csr
    )
    path = tmp_path / "bench-live.rqart"
    built.save(path)
    artifact = load_query_artifact(path)
    nodes = artifact.nodes
    total = _CLIENTS * _REQUESTS_PER_CLIENT

    serial_wall, _serial_data, _ = _serve_and_hammer(artifact, nodes, serialize=True)
    concurrent_wall, data, latencies = _serve_and_hammer(artifact, nodes, serialize=False)

    serial_rps = total / serial_wall
    concurrent_rps = total / concurrent_wall
    speedup = concurrent_rps / serial_rps
    bench_record["query_concurrent_requests"] = total
    bench_record["query_concurrent_clients"] = _CLIENTS
    bench_record["query_throughput_rps"] = round(concurrent_rps, 1)
    bench_record["query_throughput_serial_rps"] = round(serial_rps, 1)
    bench_record["query_concurrent_speedup"] = round(speedup, 3)

    rows = []
    server_p50s = []
    histograms = data["histograms"]
    for endpoint in ("membership", "band", "top"):
        summary = histograms[f'query.request_seconds{{endpoint="{endpoint}"}}']
        bench_record[f"query_p99_seconds_{endpoint}"] = round(summary["p99"], 6)
        bench_record[f"query_p50_seconds_{endpoint}"] = round(summary["p50"], 6)
        server_p50s.append(summary["p50"])
        rows.append(
            [
                endpoint,
                summary["count"],
                round(summary["p50"] * 1e6, 1),
                round(summary["p99"] * 1e6, 1),
                round(summary["max"] * 1e6, 1),
            ]
        )
        # Sanity on the live histograms: exact counts survived the
        # concurrent writers, and the tail dominates the median.
        assert summary["count"] == total // 3
        assert summary["p99"] >= summary["p50"] > 0.0

    # The mix is an equal share of each endpoint, so the median of the
    # per-endpoint server p50s stands for the whole mix.
    client_p50 = statistics.median(latencies)
    client_p99 = statistics.quantiles(latencies, n=100)[98]
    server_p50 = statistics.median(server_p50s)
    bench_record["query_client_p50_seconds"] = round(client_p50, 6)
    bench_record["query_client_p99_seconds"] = round(client_p99, 6)
    bench_record["query_transport_gap"] = round(client_p50 / server_p50, 1)
    rows.append(
        [
            "client (all)",
            len(latencies),
            round(client_p50 * 1e6, 1),
            round(client_p99 * 1e6, 1),
            round(max(latencies) * 1e6, 1),
        ]
    )

    table = ascii_table(
        ["endpoint", "requests", "p50 (us)", "p99 (us)", "max (us)"],
        rows,
        title=(
            f"served lookups under concurrent load "
            f"({_CLIENTS} clients x {_REQUESTS_PER_CLIENT} reqs: "
            f"serialized {serial_rps:,.0f} rps -> concurrent {concurrent_rps:,.0f} rps, "
            f"{speedup:.2f}x)"
        ),
    )
    emit("query_service_concurrent", table)

    assert client_p50 < _CLIENT_P50_CEILING, (
        f"client-observed p50 {client_p50 * 1e3:.1f} ms over keep-alive "
        f"(server p50 {server_p50 * 1e3:.3f} ms): the transport is stalling"
    )

    if os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP"):
        assert speedup >= _SPEEDUP_FLOOR, (
            f"concurrent serving {speedup:.2f}x vs serialized; "
            f"expected >= {_SPEEDUP_FLOOR}x with the global lock removed"
        )

    artifact.close()
