"""Sharded-backend server tests.

These drive the asyncio front door with ``server_shards > 0``: real
worker *processes* behind a real TCP listener — shard routing, merged
fleet stats, and crash recovery — plus direct :class:`WorkerPool`
tests for the failure semantics that need precise control over which
worker dies when.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro import CompilerOptions
from repro.service.cache import cache_key
from repro.service.server import (
    PROTOCOL_VERSION,
    SERVER_VERSION,
    CompileServer,
    ServiceClient,
)
from repro.service.worker import WorkerPool

PROGRAM = """
class Sized a where
  size :: a -> Int

data Box = Box Int

instance Sized Box where
  size (Box n) = n

main = size (Box 42)
"""

SLOW_EXPR = "length (enumFromTo 1 50000000)"


@pytest.fixture(scope="module")
def sharded():
    options = CompilerOptions(server_shards=2, request_timeout=60.0)
    srv = CompileServer(options=options)
    port = srv.start()
    yield srv, port
    srv.stop()


@pytest.fixture()
def client(sharded):
    _srv, port = sharded
    with ServiceClient("127.0.0.1", port, timeout=120.0) as c:
        yield c


class TestShardedProtocol:
    def test_ping_reports_fleet_identity(self, client):
        r = client.request("ping")
        assert r["ok"]
        result = r["result"]
        assert result["pong"]
        assert result["protocol"] == PROTOCOL_VERSION
        assert result["version"] == SERVER_VERSION
        assert result["shards"] == 2
        int(result["options_fingerprint"], 16)
        int(result["prelude_fingerprint"], 16)
        assert len(result["options_fingerprint"]) == 64
        assert len(result["prelude_fingerprint"]) == 64

    def test_eval_by_source(self, client):
        r = client.request("eval", source="triple x = 3 * x",
                           expr="triple 14")
        assert r["ok"] and r["result"]["value"] == "42"

    def test_compile_then_eval_by_handle(self, client):
        r1 = client.request("compile", source=PROGRAM)
        assert r1["ok"], r1
        key = r1["result"]["program"]
        r2 = client.request("eval", program=key, expr="size (Box 7) + 1")
        assert r2["ok"] and r2["result"]["value"] == "8"

    def test_source_and_handle_route_to_same_shard(self, sharded):
        # The compile handle *is* the source's content address, so
        # handle-addressed follow-ups land on the worker whose
        # in-memory caches hold the program.
        srv, _port = sharded
        key = cache_key(PROGRAM, srv.options, srv.snapshot_fp)
        assert srv._route({"op": "compile", "source": PROGRAM}) \
            == srv._route({"op": "eval", "program": key, "expr": "main"})

    def test_repeat_eval_is_a_worker_cache_hit(self, client):
        for _ in range(2):
            r = client.request("eval", source=PROGRAM, expr="size (Box 3)")
            assert r["ok"] and r["result"]["value"] == "3"
        # Stable routing: the second request hit the first's shard.
        stats = client.request("stats")["result"]
        assert stats["cache"]["hits"] >= 1

    def test_errors_stay_structured_across_the_pipe(self, client):
        r = client.request("eval", source="main = 1", expr="head []")
        assert not r["ok"]
        assert r["error"]["type"]
        assert r["error"]["message"]

    def test_stats_merges_front_and_workers(self, client):
        client.request("compile", source=PROGRAM)
        r = client.request("stats")
        assert r["ok"]
        result = r["result"]
        assert result["version"] == SERVER_VERSION
        assert result["server"]["counters"]["requests_total"] > 0
        assert len(result["snapshot"]["fingerprint"]) == 64
        shards = result["shards"]
        assert len(shards) == 2
        assert all(s["alive"] for s in shards)
        assert sum(s["requests"] for s in shards) > 0
        gauges = result["server"].get("gauges", {})
        assert "queue_depth.shard0" in gauges
        assert "queue_depth.shard1" in gauges

    def test_per_shard_latency_histograms(self, client):
        client.request("eval", source=PROGRAM, expr="size (Box 1)")
        latency = client.request("stats")["result"]["server"]["latency"]
        assert any(name.startswith("shard") and name.endswith(".eval")
                   for name in latency), latency


class TestShardedCounting:
    def test_stats_count_each_request_once(self):
        # The front door answers stats itself and times only per-shard
        # latency; the shards count and time what they execute.
        srv = CompileServer(options=CompilerOptions(server_shards=2,
                                                    request_timeout=60.0))
        port = srv.start()
        try:
            with ServiceClient("127.0.0.1", port, timeout=120.0) as c:
                for i in range(3):
                    r = c.request("eval", source="main = 1", expr=f"{i} + 1")
                    assert r["ok"], r
                server = c.request("stats")["result"]["server"]
        finally:
            srv.stop()
        assert server["counters"]["requests_total"] == 4
        assert server["latency"]["eval"]["count"] == 3
        assert sum(hist["count"] for name, hist in server["latency"].items()
                   if name.endswith(".eval")) == 3


class TestShardedStdio:
    def test_front_door_answers_management_ops(self):
        lines = [{"id": 1, "op": "ping"},
                 {"id": 2, "op": "eval", "source": "main = 1",
                  "expr": "2 + 3"},
                 {"id": 3, "op": "stats"},
                 {"id": 4, "op": "shutdown"}]
        stdin = io.BytesIO("".join(json.dumps(line) + "\n"
                                   for line in lines).encode("utf-8"))
        stdout = io.StringIO()
        srv = CompileServer(options=CompilerOptions(server_shards=2))
        srv.serve_stdio(stdin=stdin, stdout=stdout)
        by_id = {r["id"]: r for r in map(json.loads,
                                         stdout.getvalue().splitlines())}
        assert by_id[1]["result"]["shards"] == 2
        assert by_id[2]["result"]["value"] == "5"
        # the merged fleet view, not one worker's
        assert [s["index"] for s in by_id[3]["result"]["shards"]] == [0, 1]
        assert by_id[4]["result"]["shutting_down"]
        # shutdown stopped the fleet
        assert not any(s["alive"] for s in srv.pool.info())

    def test_stdio_timeout_recycles_the_stuck_shard(self):
        lines = [{"id": 1, "op": "eval", "source": "main = 1",
                  "expr": SLOW_EXPR, "timeout": 0.5},
                 {"id": 2, "op": "eval", "source": "main = 1",
                  "expr": "20 + 22"},
                 {"id": 3, "op": "shutdown"}]
        stdin = io.BytesIO("".join(json.dumps(line) + "\n"
                                   for line in lines).encode("utf-8"))
        stdout = io.StringIO()
        srv = CompileServer(options=CompilerOptions(
            server_shards=1, eval_step_limit=2_000_000_000))
        srv.serve_stdio(stdin=stdin, stdout=stdout)
        by_id = {r["id"]: r for r in map(json.loads,
                                         stdout.getvalue().splitlines())}
        assert by_id[1]["error"]["code"] == "timeout"
        assert "shard 0 was recycled" in by_id[1]["error"]["message"]
        # queued behind the runaway: resubmitted to the respawned worker
        assert by_id[2]["ok"] and by_id[2]["result"]["value"] == "42"
        assert srv.pool.info()[0]["crashes"] == 1

    def test_stats_json_writes_the_fleet_snapshot(self, tmp_path):
        out = tmp_path / "stats.json"
        script = "".join(json.dumps(line) + "\n" for line in [
            {"id": 1, "op": "eval", "source": "main = 1", "expr": "2 + 3"},
            {"id": 2, "op": "shutdown"}])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--shards", "1", "--stats-json", str(out)],
            input=script, capture_output=True, text=True, timeout=120,
            env=env)
        assert proc.returncode == 0, proc.stderr
        assert [json.loads(line)["ok"]
                for line in proc.stdout.splitlines()] == [True, True]
        stats = json.loads(out.read_text(encoding="utf-8"))
        assert stats["counters"]["requests_total"] == 2
        assert stats["latency"]["eval"]["count"] == 1
        assert stats["cache"]["misses"] == 1
        assert [s["index"] for s in stats["shards"]] == [0]


class TestShardedCrashRecovery:
    def test_killed_workers_are_backfilled(self, sharded):
        srv, port = sharded
        with ServiceClient("127.0.0.1", port, timeout=120.0) as c:
            assert c.request("eval", source="main = 1",
                             expr="1 + 1")["ok"]
            old_pids = [s["pid"] for s in srv.pool.info()]
            for i in range(len(srv.pool)):
                srv.pool.kill_shard(i)
            deadline = time.time() + 30
            while time.time() < deadline:
                info = srv.pool.info()
                if all(s["alive"] and s["pid"] not in old_pids
                       for s in info):
                    break
                time.sleep(0.05)
            info = srv.pool.info()
            assert all(s["alive"] for s in info), info
            assert all(s["crashes"] >= 1 for s in info), info
            # The fleet serves again — on the same connection.
            r = c.request("eval", source="main = 1", expr="2 + 3")
            assert r["ok"] and r["result"]["value"] == "5"


class TestWorkerPool:
    def test_in_flight_request_fails_structured_on_crash(self, tmp_path):
        options = CompilerOptions(eval_step_limit=2_000_000_000,
                                  cache_dir=str(tmp_path))
        pool = WorkerPool(options, shards=1)
        try:
            slow = pool.submit({"op": "eval", "source": "main = 1",
                                "expr": SLOW_EXPR}, shard=0)
            quick = pool.submit({"op": "eval", "source": "main = 1",
                                 "expr": "20 + 22", "id": 7}, shard=0)
            time.sleep(0.5)  # let the worker get stuck into SLOW_EXPR
            pool.kill_shard(0)
            crashed = slow.result(timeout=60)
            assert crashed["ok"] is False
            assert crashed["error"]["code"] == "service.worker-crashed"
            assert "respawned" in crashed["error"]["message"]
            # The request queued *behind* the poison pill was
            # resubmitted to the respawned worker and still answers.
            survived = quick.result(timeout=120)
            assert survived["ok"], survived
            assert survived["result"]["value"] == "42"
            assert survived["id"] == 7
            assert pool.info()[0]["crashes"] == 1
        finally:
            pool.stop(grace=1.0)

    def test_crash_leaves_no_corrupt_cache_entries(self, tmp_path):
        options = CompilerOptions(eval_step_limit=2_000_000_000,
                                  cache_dir=str(tmp_path))
        pool = WorkerPool(options, shards=1)
        try:
            pool.submit({"op": "compile", "source": PROGRAM},
                        shard=0).result(timeout=120)
            pool.submit({"op": "eval", "source": "main = 1",
                         "expr": SLOW_EXPR}, shard=0)
            time.sleep(0.5)
            pool.kill_shard(0)
            # Publishes are atomic renames: a killed worker can leave a
            # half-written temp file at worst, never a half-written
            # entry a later read would trust.
            entries = [f for f in os.listdir(str(tmp_path))
                       if f.endswith(".pkl")]
            import pickle
            from repro.service.cache import DISK_HEADER
            for name in entries:
                with open(os.path.join(str(tmp_path), name), "rb") as fh:
                    assert fh.read(len(DISK_HEADER)) == DISK_HEADER
                    pickle.load(fh)  # must not raise
            # And the respawned worker reads the shared tier fine.
            r = pool.submit({"op": "compile", "source": PROGRAM},
                            shard=0).result(timeout=120)
            assert r["ok"], r
        finally:
            pool.stop(grace=1.0)

    def test_stopped_pool_answers_instead_of_hanging(self):
        pool = WorkerPool(CompilerOptions(), shards=1)
        pool.stop(grace=1.0)
        r = pool.submit({"op": "ping", "id": 3}, shard=0).result(timeout=5)
        assert r["ok"] is False
        assert r["error"]["code"] == "service.worker-crashed"
        assert r["id"] == 3

    def test_shard_of_is_stable_and_in_range(self):
        pool = WorkerPool(CompilerOptions(), shards=2)
        try:
            for key in ("deadbeef" * 8, "0" * 64, "f" * 64):
                shard = pool.shard_of(key)
                assert 0 <= shard < 2
                assert pool.shard_of(key) == shard
        finally:
            pool.stop(grace=0.5)
