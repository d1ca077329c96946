"""Workload ``serve-keepalive``: ``repro query serve`` under keep-alive clients.

Inputs (untimed): the workload seed's default-profile topology from
``repro generate`` and its artifact from ``repro query build``.  The
server is ``python -m repro query serve ART --port 0`` in its own
process; set-up runs from spawning it to its first healthy
``/health``, sampled before and after the load (``common.SETUP_REPEATS``).

Load: two client threads, each holding one HTTP/1.1 keep-alive
connection, in a closed loop over a seeded request mix (equal shares
of ``/membership``, ``/band``, ``/lca``, ``/top`` and ``/community``
over the artifact's ASes and communities).  Paths and expected bodies
are built before timing from an in-process ``LookupEngine`` over the
same artifact; latency is client-observed, from send to last byte.

``--trace 1`` adds what the server cannot show without tracing
flags: ``/metrics`` handler quantiles against the client's view (the
transport gap), server and client CPU per request, in-process lookup
costs per endpoint, artifact load time and interpreter+import time.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import subprocess
import threading
import time

from common import (
    Outcome,
    WorkloadError,
    child_cmd,
    child_env,
    generate,
    median,
    quantile,
    repro_cmd,
    run_timed,
    vmhwm_kib,
)

CLIENTS = 2
ENDPOINTS = ("membership", "band", "lca", "top", "community")
#: Distinct requests in the seeded mix (cycled through by the clients).
MIX_SIZE = 1000
WARMUP_PER_CLIENT = 20


def _build_inputs(ctx):
    dataset, artifact = ctx.work / "dataset", ctx.work / "communities.rqa"
    generate(ctx, dataset)
    _, code, _, _ = run_timed(repro_cmd("query", "build", str(dataset), str(artifact)), ctx.log)
    if code != 0:
        raise WorkloadError(f"repro query build exited with {code}")
    return artifact


def _answer(engine, kind: str, args: tuple):
    """The body the server's route for ``kind`` builds from ``engine``."""
    if kind == "membership":
        (node,) = args
        memberships = engine.memberships(node)
        return {"as": node, "memberships": {str(k): v for k, v in memberships.items()}}
    if kind == "band":
        return engine.band(*args)
    if kind == "lca":
        a, b = args
        return {"a": a, "b": b, "lca": engine.lowest_common(a, b)}
    if kind == "top":
        metric, n, k = args
        return {"metric": metric, "k": k, "communities": engine.top(metric, n, k)}
    return engine.community(*args)


def _request_mix(artifact, seed: int) -> list[tuple[str, tuple, str, bytes]]:
    """(endpoint, lookup args, path, expected body bytes) per request.

    The server's routes serialise with the same ``json.dumps``, so a
    correct response is byte-equal to the expected body.
    """
    from repro.query.engine import TOP_METRICS, LookupEngine

    engine = LookupEngine(artifact)
    rng = random.Random(f"{seed}:serve")
    nodes = list(artifact.nodes)
    labels = [artifact.label(o) for o in range(artifact.n_communities)]
    orders = artifact.orders
    kinds = [ENDPOINTS[i % len(ENDPOINTS)] for i in range(MIX_SIZE)]
    rng.shuffle(kinds)
    mix = []
    for kind in kinds:
        if kind in ("membership", "band"):
            args = (rng.choice(nodes),)
            path = f"/{kind}?as={args[0]}"
        elif kind == "lca":
            args = (rng.choice(nodes), rng.choice(nodes))
            path = f"/lca?a={args[0]}&b={args[1]}"
        elif kind == "top":
            args = (rng.choice(TOP_METRICS), rng.choice((5, 10)), rng.choice([None, *orders]))
            path = f"/top?metric={args[0]}&n={args[1]}"
            path += "" if args[2] is None else f"&k={args[2]}"
        else:
            args = (rng.choice(labels),)
            path = f"/community?label={args[0]}"
        mix.append((kind, args, path, json.dumps(_answer(engine, kind, args)).encode("utf-8")))
    return mix


class _Server:
    """One ``repro query serve`` process on a free port."""

    def __init__(self, artifact, log) -> None:
        self._log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_cmd("query", "serve", str(artifact), "--port", "0"),
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(),
        )
        line = self.proc.stdout.readline().decode("utf-8")
        if " at http://" not in line:
            self.stop()
            raise WorkloadError(f"query serve did not start: {line!r}")
        host, port = line.rsplit(" at http://", 1)[1].strip().split(":")
        self.host, self.port = host, int(port)

    def wait_healthy(self) -> float:
        """Seconds from spawn to the first 200 from ``/health``."""
        deadline = self.started + 30.0
        while time.perf_counter() < deadline:
            try:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                conn.close()
                if response.status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.005)
        raise WorkloadError("query serve never became healthy")

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _client(server, mix, counter, seconds, barrier, results) -> None:
    """One keep-alive connection: warm up, then a closed loop for ``seconds``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    samples = []
    try:
        for i in range(WARMUP_PER_CLIENT):
            conn.request("GET", mix[i][2])
            conn.getresponse().read()
        barrier.wait()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            _, _, path, body = mix[next(counter) % len(mix)]
            start = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            got = response.read()
            elapsed = time.perf_counter() - start
            ok = response.status == 200 and got == body
            samples.append((elapsed, ok, len(got)))
    except (OSError, http.client.HTTPException, threading.BrokenBarrierError):
        samples.append((None, False, 0))
        barrier.abort()
    finally:
        conn.close()
        results.append(samples)


def _drive(server, mix, seconds: float, min_ops: int) -> tuple[list, float, float, float]:
    """Run the clients; (samples, wall seconds, server CPU s, client CPU s)."""
    counter = itertools.count()
    results: list[list] = []
    barrier = threading.Barrier(CLIENTS + 1)
    threads = [
        threading.Thread(target=_client, args=(server, mix, counter, seconds, barrier, results))
        for _ in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client failed during warm-up; its failure is in results
    server_cpu = server.cpu_seconds()
    client_cpu = time.process_time()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    samples = [s for chunk in results for s in chunk]
    if len(samples) < min_ops:
        raise WorkloadError(f"only {len(samples)} requests completed")
    return (
        samples,
        wall,
        server.cpu_seconds() - server_cpu,
        time.process_time() - client_cpu,
    )


def _handler_quantiles(server) -> tuple[float, float]:
    """Handler p50/p99 (s) over the lookup endpoints, from ``/metrics``.

    The mix is uniform over the endpoints, so the median of the
    per-endpoint p50s stands for the whole mix; p99 is the worst one.
    """
    from repro.obs.exposition import parse_exposition

    samples = parse_exposition(server.get("/metrics").decode("utf-8"))
    p50, p99 = [], []
    for (name, labels), value in samples.items():
        tags = dict(labels)
        if name.endswith("query_request_seconds") and tags.get("endpoint") in ENDPOINTS:
            if tags.get("quantile") == "0.5":
                p50.append(value)
            elif tags.get("quantile") == "0.99":
                p99.append(value)
    if len(p50) != len(ENDPOINTS):
        raise WorkloadError("/metrics lacks per-endpoint query.request_seconds")
    return median(p50), max(p99)


def _lookup_costs(artifact, mix) -> tuple[dict, float]:
    """In-process µs per lookup per endpoint, plus the tracer's overhead (%)."""
    from repro.obs import Tracer
    from repro.query.engine import LookupEngine

    def per_call_us(engine, kind, rounds):
        calls = [args for k, args, _, _ in mix if k == kind]
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            for args in calls:
                _answer(engine, kind, args)
            samples.append((time.perf_counter() - start) / len(calls) * 1e6)
        return median(samples)

    plain = LookupEngine(artifact)
    traced = LookupEngine(artifact, tracer=Tracer(memory=False))
    costs, ratios = {}, []
    for kind in ENDPOINTS:
        costs[f"query.lookup_us.{kind}"] = per_call_us(plain, kind, 15)
        ratios.append(per_call_us(traced, kind, 15) / costs[f"query.lookup_us.{kind}"])
    return costs, (median(ratios) - 1.0) * 100.0


def run(ctx) -> Outcome:
    from repro.api import load_query_artifact

    artifact_path = _build_inputs(ctx)
    artifact = load_query_artifact(artifact_path)
    try:
        mix = _request_mix(artifact, ctx.seed)
        setup, server = [], None

        def start_servers(count: int):
            nonlocal server
            for _ in range(count):
                if server is not None:
                    server.stop()
                server = _Server(artifact_path, ctx.log)
                setup.append(server.wait_healthy())

        try:
            # Set-up samples on both sides of the load; the last server
            # started before it is the one measured.
            start_servers((ctx.setup_repeats + 1) // 2)
            samples, wall, server_cpu, client_cpu = _drive(server, mix, ctx.seconds, ctx.min_ops)
            handler_p50, handler_p99 = _handler_quantiles(server) if ctx.trace else (0.0, 0.0)
            peak_rss_kib = vmhwm_kib(server.proc.pid)
            start_servers(ctx.setup_repeats // 2)
        finally:
            if server is not None:
                server.stop()

        latencies = [s[0] for s in samples if s[1]]
        attempted, failed = len(samples), sum(not s[1] for s in samples)
        outcome = Outcome(attempted=attempted, failed=failed)
        outcome.detail = {
            "requests": attempted, "clients": CLIENTS, "mix": len(mix), "setup_samples_s": setup,
        }
        if not latencies:
            raise WorkloadError("no request succeeded")
        client_p50 = median(latencies)
        if not ctx.trace:
            outcome.e2e = {
                "latency_p50_ms": client_p50 * 1000.0,
                "latency_p90_ms": quantile(latencies, 0.9) * 1000.0,
                "throughput_rps": attempted / wall,
                "peak_rss_mb": peak_rss_kib / 1024.0,
                "setup_s": median(setup),
            }
            return outcome

        costs, overhead = _lookup_costs(artifact, mix)
        loads = []
        for _ in range(5):
            start = time.perf_counter()
            load_query_artifact(artifact_path).close()
            loads.append(time.perf_counter() - start)
        imports = []
        for _ in range(5):
            _, code, out, _ = run_timed(child_cmd("import", repr(time.time())), ctx.log)
            if code != 0:
                raise WorkloadError("import probe failed")
            imports.append(json.loads(out)["import_s"])
        outcome.layers = {
            "process.import_s": median(imports),
            "query.load_s": median(loads),
            **costs,
            "server.handler_p50_ms": handler_p50 * 1000.0,
            "server.handler_p99_ms": handler_p99 * 1000.0,
            "transport.gap_p50_ms": (client_p50 - handler_p50) * 1000.0,
            "client.latency_p99_ms": quantile(latencies, 0.99) * 1000.0,
            "server.cpu_ms_per_req": server_cpu / attempted * 1000.0,
            "client.cpu_ms_per_req": client_cpu / attempted * 1000.0,
            "response.bytes_mean": sum(s[2] for s in samples) / attempted,
            "trace_overhead_pct": overhead,
        }
        outcome.detail["client_latency_p50_ms"] = client_p50 * 1000.0
        return outcome
    finally:
        artifact.close()
