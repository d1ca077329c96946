"""Keep-alive latency check against a running query server.

Sends ``REQUESTS`` sequential ``GET /band`` requests over one HTTP/1.1
keep-alive connection (``http.client.HTTPConnection``) and requires
every one to return 200 with a client-observed p50 under
``P50_CEILING_S``.  A fresh connection per request, as the smoke
client makes, can never show a transport stall that hits keep-alive
connections only: with Nagle's algorithm on the server socket, each
reply's body waits ~40 ms for the client's delayed ACK of its headers.
Prints the p50 and p99 round trips.

Usage: python query_keepalive_check.py http://127.0.0.1:8091
"""

from __future__ import annotations

import http.client
import json
import statistics
import sys
import time
import urllib.parse

REQUESTS = 200
P50_CEILING_S = 0.010


def main(base: str) -> int:
    url = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:

        def get(path: str) -> tuple[int, bytes, float]:
            start = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            return response.status, body, time.perf_counter() - start

        # Real ASes to query: the members of the largest community.
        status, body, _ = get("/top?metric=size&n=1")
        if status != 200:
            raise SystemExit(f"keep-alive check FAILED: /top -> {status}")
        label = json.loads(body)["communities"][0]["label"]
        status, body, _ = get(f"/community?label={label}&members=1")
        if status != 200:
            raise SystemExit(f"keep-alive check FAILED: /community -> {status}")
        members = json.loads(body)["members"]

        round_trips, bad = [], []
        for i in range(REQUESTS):
            status, _, seconds = get(f"/band?as={members[i % len(members)]}")
            round_trips.append(seconds)
            if status != 200:
                bad.append(status)
    finally:
        conn.close()

    p50 = statistics.median(round_trips)
    p99 = statistics.quantiles(round_trips, n=100)[98]
    print(
        f"keep-alive: {REQUESTS} requests on one connection, "
        f"p50={p50 * 1e3:.2f}ms p99={p99 * 1e3:.2f}ms"
    )
    if bad:
        raise SystemExit(f"keep-alive check FAILED: non-200 responses {bad[:5]}")
    if p50 >= P50_CEILING_S:
        raise SystemExit(
            f"keep-alive check FAILED: p50 {p50 * 1e3:.1f}ms >= "
            f"{P50_CEILING_S * 1e3:.0f}ms — the transport is stalling"
        )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} BASE_URL")
    sys.exit(main(sys.argv[1].rstrip("/")))
