"""Compile/eval server tests: protocol, concurrency, resilience.

These drive a real TCP server on an ephemeral port through
:class:`repro.service.server.ServiceClient`.
"""

from __future__ import annotations

import io
import json
import os
import socket
import sys
import threading
import time

import pytest

from repro import CompilerOptions, compile_source
from repro.service import server as server_module
from repro.service.server import (
    PROTOCOL_VERSION,
    CompileServer,
    CompileService,
    PipelinedClient,
    ServiceClient,
)
from repro.service.worker import LocalPool

PROGRAM = """
class Sized a where
  size :: a -> Int

data Box = Box Int

instance Sized Box where
  size (Box n) = n

main = size (Box 42)
"""


@pytest.fixture(scope="module")
def server():
    options = CompilerOptions(request_timeout=30.0)
    srv = CompileServer(service=CompileService(options))
    port = srv.start()
    yield srv, port
    srv.stop()


@pytest.fixture()
def client(server):
    _srv, port = server
    with ServiceClient("127.0.0.1", port) as c:
        yield c


class TestProtocol:
    def test_ping(self, client):
        r = client.request("ping")
        assert r["ok"]
        assert r["result"]["protocol"] == PROTOCOL_VERSION

    def test_compile_then_cached(self, client):
        r1 = client.request("compile", source=PROGRAM)
        assert r1["ok"] and r1["result"]["cached"] is False
        r2 = client.request("compile", source=PROGRAM)
        assert r2["ok"] and r2["result"]["cached"] is True
        assert r1["result"]["program"] == r2["result"]["program"]
        # Class methods live in the class env, not the schemes map —
        # matching one-shot compile_source (see test_concurrency).
        assert r1["result"]["schemes"]["main"] == "Int"

    def test_eval_and_typeof_by_handle(self, client):
        key = client.request("compile", source=PROGRAM)["result"]["program"]
        r = client.request("eval", program=key, expr="size (Box 7) + 1")
        assert r["ok"] and r["result"]["value"] == "8"
        assert r["result"]["stats"]["steps"] > 0
        r = client.request("typeof", program=key, expr="size")
        assert r["ok"] and r["result"]["type"] == "Sized a => a -> Int"

    def test_eval_by_source(self, client):
        r = client.request("eval", source="triple x = 3 * x",
                           expr="triple 14")
        assert r["ok"] and r["result"]["value"] == "42"

    def test_unknown_program_handle(self, client):
        r = client.request("eval", program="feedface" * 8, expr="1")
        assert not r["ok"]
        assert r["error"]["type"] == "protocol"
        assert "unknown program" in r["error"]["message"]

    def test_compile_error_is_structured(self, client):
        r = client.request("compile", source="main = undefinedName")
        assert not r["ok"]
        assert "error" in r
        assert r["error"]["type"]
        assert r["error"]["message"]

    def test_type_error_reports_position(self, client):
        r = client.request("eval", source="main = 1",
                           expr="length True")
        assert not r["ok"]
        assert r["error"]["type"]

    def test_unknown_op(self, client):
        r = client.request("frobnicate")
        assert not r["ok"]
        assert r["error"]["type"] == "protocol"
        assert "unknown op" in r["error"]["message"]

    def test_stats(self, client):
        client.request("compile", source=PROGRAM)
        r = client.request("stats")
        assert r["ok"]
        result = r["result"]
        assert result["server"]["counters"]["requests_total"] > 0
        assert result["cache"]["capacity"] > 0
        assert len(result["snapshot"]["fingerprint"]) == 64
        assert result["snapshot"]["prelude_bindings"] > 0

    def test_stats_report_per_phase_latency(self, client):
        # At least one cache-miss compile happened on this server, so
        # the pipeline passes show up as aggregated histograms.
        client.request("compile", source=PROGRAM)
        phases = client.request("stats")["result"]["server"]["phases"]
        for name in ("parse", "infer", "translate", "selectors"):
            assert name in phases, name
            assert phases[name]["count"] >= 1
            assert phases[name]["mean_ms"] >= 0.0
        # Warm-path compiles skip the prelude: every pass records one
        # sample per miss.
        assert phases["translate"]["count"] \
            == phases["parse"]["count"]

    def test_info(self, client):
        key = client.request("compile", source=PROGRAM)["result"]["program"]
        r = client.request("info", name="length", program=key)
        assert r["ok"] and "length" in r["result"]["info"]


class TestResilience:
    def test_malformed_json_is_structured_error(self, client):
        client._sock.sendall(b"this is not json\n")
        raw = client._reader.readline()
        response = json.loads(raw)
        assert response["ok"] is False
        assert response["error"]["type"] == "protocol"
        assert "malformed JSON" in response["error"]["message"]
        # The connection (and server) survive.
        assert client.request("ping")["ok"]

    def test_deep_nesting_is_refused_at_decode(self, client):
        deep = "[" * 200 + "]" * 200
        client._sock.sendall(
            f'{{"id": {deep}, "op": "ping"}}\n'.encode("utf-8"))
        response = json.loads(client._reader.readline())
        assert response["id"] is None
        assert response["error"]["code"] == "protocol"
        assert "nested deeper than 100" in response["error"]["message"]
        assert client.request("ping", id_note=[[1]])["ok"]  # shallow is fine

    def test_timeout_does_not_kill_server(self, client):
        r = client.request("eval", source="main = 1",
                           expr="length (enumFromTo 1 100000)",
                           timeout=0.01, step_limit=500_000)
        assert not r["ok"]
        assert r["error"]["type"] == "timeout"
        # Same connection keeps working afterwards.
        r = client.request("eval", source="main = 1", expr="2 + 2")
        assert r["ok"] and r["result"]["value"] == "4"

    def test_eval_error_does_not_kill_server(self, client):
        r = client.request("eval", source="main = 1",
                           expr="head []")
        assert not r["ok"]
        assert client.request("ping")["ok"]

    def test_deep_eval_succeeds_on_worker_stack(self, client):
        # Deep interpreted recursion needs the enlarged worker stacks;
        # on a default thread stack this is fatal, not an exception.
        r = client.request("eval", source="main = 1",
                           expr="length (enumFromTo 1 30000)")
        assert r["ok"] and r["result"]["value"] == "30000"


class TestConcurrency:
    def test_concurrent_clients_no_cross_talk(self, server):
        """Four clients hammer the server with *different* programs;
        every response must match its own program — and the schemes
        must equal a single-shot ``compile_source`` of the same text."""
        _srv, port = server
        per_client = 6
        errors = []

        def worker(tag: int) -> None:
            source = (f"client{tag} x = x + {tag}\n"
                      f"main = client{tag} 100")
            try:
                with ServiceClient("127.0.0.1", port) as c:
                    for i in range(per_client):
                        r = c.request("eval", source=source,
                                      expr=f"client{tag} {i}")
                        assert r["ok"], r
                        assert r["result"]["value"] == str(i + tag), r
                    r = c.request("compile", source=source)
                    assert r["ok"], r
                    schemes = r["result"]["schemes"]
                    solo = compile_source(source)
                    expected = {
                        name: str(s) for name, s in solo.schemes.items()
                        if "$" not in name and "@" not in name}
                    assert schemes == expected, (schemes, expected)
            except Exception as exc:  # noqa: BLE001 — collected for report
                errors.append((tag, exc))

        threads = [threading.Thread(target=worker, args=(tag,))
                   for tag in range(1, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors

    def test_concurrent_evals_one_program(self, server):
        """Many threads share one cached program; per-request evaluator
        state must not leak between them."""
        _srv, port = server
        results = {}
        errors = []

        def worker(n: int) -> None:
            try:
                with ServiceClient("127.0.0.1", port) as c:
                    r = c.request("eval", source=PROGRAM,
                                  expr=f"size (Box {n}) * 2")
                    assert r["ok"], r
                    results[n] = r["result"]["value"]
            except Exception as exc:  # noqa: BLE001
                errors.append((n, exc))

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert results == {n: str(n * 2) for n in range(8)}


class TestAdmissionControl:
    """Backpressure, per-connection rate limits, and server-side
    ceilings on client-supplied budgets."""

    def test_overload_sheds_with_structured_error(self, monkeypatch):
        monkeypatch.setattr(server_module, "QUEUE_DEPTH", 1)
        options = CompilerOptions(request_timeout=60.0)
        srv = CompileServer(service=CompileService(options))
        port = srv.start()
        try:
            with PipelinedClient("127.0.0.1", port, timeout=120.0) as c:
                # One slow request fills the queue; a burst of
                # never-seen programs behind it (none can take the memo
                # stage — nothing is memoized) exceeds queue depth 1 and
                # is shed rather than buffered without bound.  (Pings
                # would not do: the front door answers them itself, by
                # design, even during overload.)
                c.send("eval", source="main = 1",
                       expr="length (enumFromTo 1 200000)")
                for i in range(8):
                    c.send("eval", source=f"main = {i + 2}", expr="main")
                c.flush()
                responses = c.collect(9)
            shed = [r for r in responses
                    if not r["ok"]
                    and r["error"].get("code") == "service.overloaded"]
            assert shed, responses
            for r in shed:
                assert "retry" in r["error"]["message"]
            # Shedding is load protection, not failure: once the queue
            # drains, the same server serves again.
            with ServiceClient("127.0.0.1", port) as c2:
                assert c2.request("ping")["ok"]
        finally:
            srv.stop()

    def test_rate_limit_rejects_excess_requests(self):
        options = CompilerOptions(server_rate_limit=5.0)
        srv = CompileServer(service=CompileService(options))
        port = srv.start()
        try:
            with PipelinedClient("127.0.0.1", port, timeout=60.0) as c:
                # Not pings: management ops are answered ahead of the
                # rate limit.
                for _ in range(25):
                    c.send("eval", source="main = 1", expr="1")
                c.flush()
                responses = c.collect(25)
            limited = [r for r in responses
                       if not r["ok"]
                       and r["error"].get("code") == "service.rate-limited"]
            assert len([r for r in responses if r["ok"]]) >= 5
            assert limited, responses
            # A fresh connection gets a fresh bucket.
            with ServiceClient("127.0.0.1", port) as c2:
                assert c2.request("ping")["ok"]
        finally:
            srv.stop()

    def test_timed_out_threads_stay_admitted(self, monkeypatch):
        # Threads cannot be killed: a request that timed out still
        # occupies its thread until it returns, so admission must keep
        # counting it — or the next request queues behind the runaways
        # and times out instead of being shed.  The step limit bounds
        # the runaways so their threads end.
        monkeypatch.setattr(server_module, "QUEUE_DEPTH", 4)
        options = CompilerOptions(request_timeout=0.5)
        srv = CompileServer(service=CompileService(options))
        port = srv.start()
        try:
            with PipelinedClient("127.0.0.1", port, timeout=60.0) as c:
                for _ in range(4):
                    c.send("eval", source="main = 1",
                           expr="length (enumFromTo 1 100000000)",
                           step_limit=500_000)
                runaways = c.collect(4)
                assert all(r["error"]["code"] == "timeout"
                           for r in runaways), runaways
                r = c.request("eval", source="main = 2", expr="main")
                assert r["error"]["code"] == "service.overloaded", r
                assert "4 requests outstanding" in r["error"]["message"]
            deadline = time.monotonic() + 60
            while srv.pool.outstanding(0) and time.monotonic() < deadline:
                time.sleep(0.05)
            with ServiceClient("127.0.0.1", port) as c2:
                r = c2.request("eval", source="main = 2", expr="main")
                assert r["ok"] and r["result"]["value"] == "2", r
        finally:
            srv.stop()

    @pytest.fixture(scope="class")
    def ceiling_server(self):
        options = CompilerOptions(eval_step_limit=100_000)
        srv = CompileServer(service=CompileService(options))
        port = srv.start()
        yield port
        srv.stop()

    def test_step_limit_over_ceiling_is_rejected(self, ceiling_server):
        with ServiceClient("127.0.0.1", ceiling_server) as c:
            r = c.request("eval", source="main = 1", expr="1 + 1",
                          step_limit=10_000_000)
            assert not r["ok"]
            assert r["error"]["code"] == "service.limit-exceeded"
            assert r["error"]["limit"] == "step_limit"
            assert "100000" in r["error"]["message"]

    def test_max_depth_over_ceiling_is_rejected(self, ceiling_server):
        with ServiceClient("127.0.0.1", ceiling_server) as c:
            r = c.request("eval", source="main = 1", expr="1 + 1",
                          max_depth=100_000_000)
            assert not r["ok"]
            assert r["error"]["code"] == "service.limit-exceeded"
            assert r["error"]["limit"] == "max_depth"

    def test_timeout_over_ceiling_is_rejected(self, ceiling_server):
        with ServiceClient("127.0.0.1", ceiling_server) as c:
            r = c.request("eval", source="main = 1", expr="1 + 1",
                          timeout=3600.0)
            assert not r["ok"]
            assert r["error"]["code"] == "service.limit-exceeded"
            assert r["error"]["limit"] == "timeout"

    def test_budgets_under_the_ceiling_still_apply(self, ceiling_server):
        with ServiceClient("127.0.0.1", ceiling_server) as c:
            r = c.request("eval", source="main = 1",
                          expr="length (enumFromTo 1 50000)",
                          step_limit=50)
            assert not r["ok"]  # the *request's own* budget ran out
            assert r["error"]["code"] != "service.limit-exceeded"
            r = c.request("eval", source="main = 1", expr="2 + 2",
                          step_limit=50_000, timeout=15.0)
            assert r["ok"] and r["result"]["value"] == "4"


class TestExpressionMemo:
    def test_repeated_expression_hits_the_memo(self):
        options = CompilerOptions()
        srv = CompileServer(service=CompileService(options))
        port = srv.start()
        try:
            with ServiceClient("127.0.0.1", port) as c:
                key = c.request("compile",
                                source=PROGRAM)["result"]["program"]
                for _ in range(3):
                    r = c.request("eval", program=key,
                                  expr="size (Box 5)")
                    assert r["ok"] and r["result"]["value"] == "5"
                counters = c.request(
                    "stats")["result"]["server"]["counters"]
                assert counters["expr_cache_misses"] >= 1
                assert counters["expr_cache_hits"] >= 2
        finally:
            srv.stop()


class TestLocalPool:
    def test_outstanding_count_survives_contention(self):
        # The admission count is bumped by submitters and dropped by
        # the pool's threads as requests finish: a lost update would
        # leave it off zero once all are done.
        pool = LocalPool(CompileService(CompilerOptions()))
        futures = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def submit_many(tag: int) -> None:
                for i in range(40):
                    futures.append(pool.submit(
                        {"op": "eval", "source": "main = 1",
                         "expr": f"{tag} + {i}"}))

            threads = [threading.Thread(target=submit_many, args=(tag,))
                       for tag in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert all(f.result(timeout=120)["ok"] for f in futures)
        finally:
            sys.setswitchinterval(old)
        deadline = time.monotonic() + 30
        while pool.outstanding(0) and time.monotonic() < deadline:
            time.sleep(0.01)  # the last done-callbacks may still run
        pool.stop()
        assert pool.outstanding(0) == 0
        assert pool.info()[0]["requests"] == 320

    def test_big_stack_work_stays_on_a_pool_thread(self):
        # The pool's threads are started with a big stack and marked:
        # with_big_stack runs inline there, and starts a thread only
        # for an unmarked caller.
        from types import SimpleNamespace

        from repro.coreir.eval import with_big_stack

        def handle(_request):
            return (threading.current_thread(),
                    with_big_stack(threading.current_thread))

        pool = LocalPool(SimpleNamespace(snapshot=None, handle=handle))
        try:
            caller, ran_on = pool.submit({}).result(timeout=30)
        finally:
            pool.stop()
        assert ran_on is caller
        assert caller.name.startswith("repro-worker")
        here = threading.current_thread()
        assert with_big_stack(threading.current_thread) is not here

    def test_recursion_limit_is_raised_again_after_a_pool(self):
        # Marked threads keep the big-stack count up for good; a
        # recursion limit lowered since (a test harness restoring its
        # own, say) must still be raised for the next big-stack thread.
        from types import SimpleNamespace

        from tests.fuzz.corpus import DEEP_RECURSION_OK

        LocalPool(SimpleNamespace(snapshot=None, handle=dict)).stop()
        program = compile_source(DEEP_RECURSION_OK)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(50_000)
        try:
            assert program.run("main") == 100000
        finally:
            sys.setrecursionlimit(old)


class TestTransport:
    def test_accepted_connections_disable_nagle(self, server):
        # Without TCP_NODELAY on the server's end, each small reply
        # waits for the client's next segment.
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc to find the server's socket")
        _srv, port = server
        with ServiceClient("127.0.0.1", port) as c:
            assert c.request("ping")["ok"]  # accepted and served
            client_end = c._sock.getsockname()
            flags = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    dup = os.dup(int(fd))
                except OSError:
                    continue
                try:
                    sock = socket.socket(fileno=dup)
                except OSError:  # not a socket
                    os.close(dup)
                    continue
                with sock:
                    try:
                        if sock.getpeername() == client_end:
                            flags.append(sock.getsockopt(
                                socket.IPPROTO_TCP, socket.TCP_NODELAY))
                    except OSError:
                        pass
        assert flags and all(flags), flags


class TestLifecycle:
    def test_shutdown_request_stops_server(self):
        srv = CompileServer(service=CompileService(
            CompilerOptions()))
        port = srv.start()
        with ServiceClient("127.0.0.1", port) as c:
            r = c.request("shutdown")
            assert r["ok"] and r["result"]["shutting_down"]
        assert srv.wait(10)
        # The listener really is gone: a connect attempt is either
        # refused or — Linux quirk with freed ephemeral ports — ends up
        # as a TCP self-connection, which is not the server either.
        try:
            probe = socket.create_connection(("127.0.0.1", port),
                                             timeout=0.5)
        except OSError:
            pass
        else:
            with probe:
                assert probe.getsockname() == probe.getpeername()

    def test_stdio_transport(self):
        requests = "\n".join([
            json.dumps({"id": 1, "op": "ping"}),
            "not json at all",
            json.dumps({"id": 2, "op": "eval", "source": "main = 1",
                        "expr": "40 + 2"}),
            json.dumps({"id": 3, "op": "shutdown"}),
        ]) + "\n"
        stdout = io.StringIO()
        srv = CompileServer(service=CompileService(
            CompilerOptions()))
        srv.serve_stdio(stdin=io.BytesIO(requests.encode("utf-8")),
                        stdout=stdout)
        lines = [json.loads(line) for line
                 in stdout.getvalue().splitlines() if line]
        by_id = {line["id"]: line for line in lines}
        assert by_id[1]["ok"] and by_id[1]["result"]["pong"]
        assert by_id[None]["ok"] is False
        assert by_id[None]["error"]["type"] == "protocol"
        assert by_id[2]["ok"] and by_id[2]["result"]["value"] == "42"
        assert by_id[3]["ok"] and by_id[3]["result"]["shutting_down"]
        srv.stop()
