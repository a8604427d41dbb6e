"""S1 — serving-layer throughput: the async front door at rate.

Four measurements:

* **cold** — one-shot ``compile_source``: parses, type checks and
  translates the full prelude every time;
* **warm** — ``compile_source(..., snapshot=...)``: the prelude comes
  from a prebuilt :class:`~repro.service.snapshot.PreludeSnapshot`, so
  only the user program is compiled.  Required: **>= 5x** faster;
* **sequential** — the PR-6-era measurement: synchronous clients, one
  request per round trip.  This is the recorded baseline regime
  (1540.7 req/s on the reference box) that the serving-layer rebuild
  is measured against;
* **pipelined** — mixed traffic (eval by handle, eval by source, ping,
  typeof) over :class:`PipelinedClient` with a bounded in-flight
  window, the way the protocol is meant to be driven at rate.  Repeat
  evals ride the expression memo and the event-loop fast path, so
  round trips stop dominating.  Required: **>= 5x** the recorded
  sequential baseline.  Latency percentiles (p50/p95/p99) are
  recorded against the SLO table, along with shed/protocol-error
  counts (both must be zero at this load).

Run under pytest (``pytest benchmarks/bench_s1_server_throughput.py``)
for the shape assertions, or as a script to (re)write ``BENCH_s1.json``
at the repository root::

    PYTHONPATH=src python benchmarks/bench_s1_server_throughput.py
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import time
from typing import Any, Dict, List

from benchmarks.conftest import record
from repro import CompilerOptions, compile_source
from repro.service.server import (
    CompileServer,
    CompileService,
    PipelinedClient,
    ServiceClient,
)
from repro.service.snapshot import PreludeSnapshot

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: compile repetitions per flavour (medians are reported)
REPEATS = int(os.environ.get("BENCH_S1_REPEATS", "5"))
#: total requests in the pipelined mixed-traffic phase
REQUESTS = int(os.environ.get("BENCH_S1_REQUESTS", "20000"))
#: requests in the sequential reference phase
SEQUENTIAL_REQUESTS = int(os.environ.get("BENCH_S1_SEQ_REQUESTS", "300"))
#: max requests in flight on the pipelined connection
WINDOW = int(os.environ.get("BENCH_S1_WINDOW", "64"))
REQUIRED_SPEEDUP = 5.0

#: sequential requests/s recorded when the baseline was frozen (PR 6,
#: synchronous clients against the thread-pool server)
BASELINE_REQUESTS_PER_S = 1540.7

#: latency objectives for the pipelined phase, milliseconds
SLO_MS = {"p50": 10.0, "p95": 50.0, "p99": 250.0}


def quickstart_source() -> str:
    path = os.path.join(REPO_ROOT, "examples", "quickstart.py")
    spec = importlib.util.spec_from_file_location("quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    times: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_compiles() -> Dict[str, float]:
    source = quickstart_source()
    options = CompilerOptions()
    snapshot = PreludeSnapshot.build(options)

    cold = _median_seconds(lambda: compile_source(source, options))
    warm = _median_seconds(
        lambda: compile_source(source, options, snapshot=snapshot))
    return {
        "cold_compile_s": round(cold, 6),
        "warm_compile_s": round(warm, 6),
        "speedup": round(cold / warm, 2),
    }


def _start_server() -> CompileServer:
    options = CompilerOptions(request_timeout=60.0)
    server = CompileServer(service=CompileService(options))
    server.port = server.start()
    return server


def measure_sequential(server: CompileServer, key: str) -> Dict[str, Any]:
    """The old regime: one synchronous request per round trip."""
    with ServiceClient("127.0.0.1", server.port) as c:
        t0 = time.perf_counter()
        for i in range(SEQUENTIAL_REQUESTS):
            r = c.request("eval", program=key, expr=f"double {i % 8}")
            assert r["ok"], r
        elapsed = time.perf_counter() - t0
    return {
        "requests": SEQUENTIAL_REQUESTS,
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(SEQUENTIAL_REQUESTS / elapsed, 1),
    }


def _mixed_request(client: PipelinedClient, i: int, source: str,
                   key: str) -> int:
    """One request of the traffic mix; returns its id."""
    slot = i % 20
    if slot < 16:  # 80%: eval by handle, 8 distinct exprs (memo hits)
        return client.send("eval", program=key, expr=f"double {i % 8}")
    if slot < 17:  # 5%: eval by source (service-cache hit, slow path)
        return client.send("eval", source=source, expr="double 21")
    if slot < 18:  # 5%: typeof by handle (slow path)
        return client.send("typeof", program=key, expr="double")
    if slot < 19:  # 5%: ping (management)
        return client.send("ping")
    # 5%: eval of a second memoized expression
    return client.send("eval", program=key, expr=f"double ({i % 8} + 8)")


def measure_pipelined(server: CompileServer, source: str,
                      key: str) -> Dict[str, Any]:
    """Mixed traffic with a bounded in-flight window: send WINDOW
    requests, then one more per response.  Per-request latency is
    queueing + service, measured from the moment the request goes on
    the wire."""
    latencies: List[float] = []
    failures: List[Any] = []
    with PipelinedClient("127.0.0.1", server.port,
                         timeout=120.0) as client:
        # Prime the expression memo so the run measures the warm
        # serving path, as a steady-state client population would see.
        for i in range(16):
            assert client.request("eval", program=key,
                                  expr=f"double {i % 16}")["ok"]

        sent_at: Dict[int, float] = {}
        sent = 0
        received = 0
        t0 = time.perf_counter()
        while received < REQUESTS:
            while sent < REQUESTS and sent - received < WINDOW:
                request_id = _mixed_request(client, sent, source, key)
                sent_at[request_id] = time.perf_counter()
                sent += 1
            client.flush()
            response = client.recv()
            now = time.perf_counter()
            received += 1
            request_id = response.get("id")
            if request_id in sent_at:
                latencies.append(now - sent_at.pop(request_id))
            if not response.get("ok"):
                failures.append(response)
        elapsed = time.perf_counter() - t0

        counters = client.request(
            "stats")["result"]["server"]["counters"]

    latencies.sort()

    def pct(p: float) -> float:
        return latencies[min(len(latencies) - 1,
                             int(p / 100.0 * len(latencies)))]

    protocol_errors = [f for f in failures
                       if f.get("error", {}).get("type") == "protocol"]
    percentiles = {"p50": pct(50), "p95": pct(95), "p99": pct(99)}
    slos = {
        name: {
            "slo_ms": SLO_MS[name],
            "measured_ms": round(percentiles[name] * 1e3, 3),
            "met": percentiles[name] * 1e3 <= SLO_MS[name],
        }
        for name in SLO_MS
    }
    return {
        "requests": REQUESTS,
        "window": WINDOW,
        "elapsed_s": round(elapsed, 4),
        "requests_per_s": round(REQUESTS / elapsed, 1),
        "errors": len(failures),
        "protocol_errors": len(protocol_errors),
        "shed_total": counters.get("shed_total", 0),
        "fastpath_hits": counters.get("fastpath_hits", 0),
        "expr_cache_hits": counters.get("expr_cache_hits", 0),
        "slos": slos,
    }


def measure_serving() -> Dict[str, Any]:
    source = quickstart_source()
    server = _start_server()
    try:
        with ServiceClient("127.0.0.1", server.port) as c:
            r = c.request("compile", source=source)
            assert r["ok"], r
            key = r["result"]["program"]
        sequential = measure_sequential(server, key)
        pipelined = measure_pipelined(server, source, key)
    finally:
        server.stop()
    return {
        "sequential": sequential,
        "pipelined": pipelined,
        "baseline_requests_per_s": BASELINE_REQUESTS_PER_S,
        "speedup_vs_baseline": round(
            pipelined["requests_per_s"] / BASELINE_REQUESTS_PER_S, 2),
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_warm_compile_is_5x_faster():
    metrics = measure_compiles()
    record("S1 server throughput", "compile cold vs warm", **metrics)
    assert metrics["speedup"] >= REQUIRED_SPEEDUP, metrics


def test_pipelined_serving_is_clean_at_rate():
    os.environ.setdefault("BENCH_S1_REQUESTS", "20000")
    metrics = measure_serving()
    record("S1 server throughput", "pipelined mixed traffic",
           requests_per_s=metrics["pipelined"]["requests_per_s"],
           sequential_requests_per_s=metrics["sequential"][
               "requests_per_s"],
           speedup_vs_baseline=metrics["speedup_vs_baseline"])
    pipelined = metrics["pipelined"]
    assert pipelined["errors"] == 0, pipelined
    assert pipelined["protocol_errors"] == 0, pipelined
    assert pipelined["shed_total"] == 0, pipelined
    # The memo and fast path carried the load, not raw luck.
    assert pipelined["expr_cache_hits"] > 0
    # Pipelining beats the synchronous regime on the same server.
    assert pipelined["requests_per_s"] \
        > metrics["sequential"]["requests_per_s"], metrics


# ---------------------------------------------------------------------------
# script entry point: write BENCH_s1.json
# ---------------------------------------------------------------------------

def main() -> int:
    compiles = measure_compiles()
    serving = measure_serving()
    pipelined = serving["pipelined"]
    passed = (
        compiles["speedup"] >= REQUIRED_SPEEDUP
        and serving["speedup_vs_baseline"] >= REQUIRED_SPEEDUP
        and pipelined["protocol_errors"] == 0
        and pipelined["slos"]["p99"]["met"]
    )
    payload = {
        "benchmark": "s1_server_throughput",
        "compile": compiles,
        "serving": serving,
        "required_speedup": REQUIRED_SPEEDUP,
        "passed": passed,
    }
    out = os.path.join(REPO_ROOT, "BENCH_s1.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {out}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
