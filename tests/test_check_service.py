"""The ``check`` service verb, multi-position error envelopes, and the
memo stage's key resolution / eval-EMA fixes.

``check`` type-checks a module set without linking or evaluating,
through the same artifact cache as ``build`` — so a warm re-check
after editing one module body re-infers exactly that module — and is
*tolerant*: per-module failures become ``diagnostics`` entries (full
error envelopes, multi-position ``positions`` included) instead of
failing the request.
"""

from __future__ import annotations

import pytest

from repro import CompilerOptions
from repro.service.server import (
    CompileServer,
    CompileService,
    PipelinedClient,
    ServiceClient,
)

MOD_A = "module A (inc) where\ninc :: Int -> Int\ninc x = x + 1\n"
MOD_B_BAD = "module B (f) where\nimport A\nf = inc 'c'\n"
MOD_B_OK = "module B (f) where\nimport A\nf = inc 3\n"
MOD_B_OK_EDITED = "module B (f) where\nimport A\nf = inc 4\n"
MOD_C = "module C (g) where\nimport A\ng = inc 2\n"
MOD_D_USES_B = "module D (h) where\nimport B\nh = f\n"


def specs(*sources):
    return [{"source": src} for src in sources]


@pytest.fixture()
def service():
    return CompileService(CompilerOptions())


class TestCheckVerb:
    def test_tolerant_diagnostics(self, service):
        resp = service.handle({"id": 1, "op": "check",
                               "modules": specs(MOD_A, MOD_B_BAD, MOD_C)})
        assert resp["ok"], resp
        result = resp["result"]
        assert result["ok"] is False
        statuses = {name: info["status"]
                    for name, info in result["check"]["modules"].items()}
        # B failed but A and the independent C are still checked
        assert statuses == {"A": "checked", "B": "error", "C": "checked"}
        (diag,) = result["diagnostics"]
        assert diag["module"] == "B"
        assert diag["code"] == "type.unify"
        assert diag["type"] == "UnificationError"
        assert diag["positions"], "diagnostic lost its positions"
        for entry in diag["positions"]:
            assert set(entry) == {"filename", "line", "column", "reason"}
        assert diag["positions"][0]["reason"] == "application"

    def test_dependents_of_broken_module_are_skipped(self, service):
        resp = service.handle({"id": 1, "op": "check",
                               "modules": specs(MOD_A, MOD_B_BAD,
                                                MOD_D_USES_B)})
        result = resp["result"]
        assert result["check"]["modules"]["D"]["status"] == "skipped"
        assert result["check"]["modules"]["D"]["blocked_on"] == ["B"]
        # only B contributes a diagnostic; D was never attempted
        assert [d["module"] for d in result["diagnostics"]] == ["B"]

    def test_warm_recheck_reinfers_only_the_edited_module(self, service):
        modules = specs(MOD_A, MOD_B_OK, MOD_C)
        first = service.handle({"id": 1, "op": "check",
                                "modules": modules})["result"]
        assert all(info["status"] == "checked"
                   for info in first["check"]["modules"].values())
        warm = service.handle({"id": 2, "op": "check",
                               "modules": modules})["result"]
        assert all(info["status"] == "cached"
                   for info in warm["check"]["modules"].values())
        # Edit B's *body* (exported surface unchanged): the re-check
        # must re-infer B and nothing else — A is untouched and C's
        # closure key is cut off at A's unchanged interface.
        edited = specs(MOD_A, MOD_B_OK_EDITED, MOD_C)
        third = service.handle({"id": 3, "op": "check",
                                "modules": edited})["result"]
        statuses = {name: info["status"]
                    for name, info in third["check"]["modules"].items()}
        assert statuses == {"A": "cached", "B": "checked", "C": "cached"}
        assert third["check"]["n_checked"] == 1

    def test_check_does_not_link_or_eval(self, service):
        # A module set whose *link* would fail coherence cannot fail
        # check... simpler invariant: check returns no program handle
        # and a later eval against it is impossible.
        result = service.handle({"id": 1, "op": "check",
                                 "modules": specs(MOD_A)})["result"]
        assert "program" not in result
        assert result["ok"] is True

    def test_check_metrics(self, service):
        service.handle({"id": 1, "op": "check",
                        "modules": specs(MOD_A, MOD_B_BAD)})
        snap = service.metrics.snapshot()
        assert snap["counters"]["check.requests"] == 1
        assert snap["counters"]["check.diagnostics"] == 1
        # handle() wraps every op in a timer: per-verb latency histogram
        assert snap["latency"]["check"]["count"] == 1

    def test_protocol_validation(self, service):
        resp = service.handle({"id": 1, "op": "check"})
        assert not resp["ok"] and resp["error"]["type"] == "protocol"
        resp = service.handle({"id": 2, "op": "check", "modules": []})
        assert not resp["ok"] and resp["error"]["type"] == "protocol"
        resp = service.handle({"id": 3, "op": "check",
                               "modules": [{"name": "X"}]})
        assert not resp["ok"] and resp["error"]["type"] == "protocol"


class TestPositionsEnvelope:
    """Satellite: ``positions`` survives to_json -> server envelope ->
    client, for single-program ops too."""

    def test_eval_type_error_carries_positions(self, service):
        resp = service.handle({
            "id": 1, "op": "eval",
            "source": "f :: Int -> Int\nf x = x\nbad = f 'c'",
            "expr": "1"})
        assert not resp["ok"]
        error = resp["error"]
        assert error["positions"]
        assert error["positions"][0]["reason"] == "application"
        assert error["pos"] is not None  # primary stays intact


@pytest.fixture(scope="module")
def server():
    options = CompilerOptions(request_timeout=30.0)
    srv = CompileServer(service=CompileService(options))
    port = srv.start()
    yield srv, port
    srv.stop()


class TestCheckOverWire:
    def test_pipelined_client_check(self, server):
        _srv, port = server
        with PipelinedClient("127.0.0.1", port) as client:
            result = client.check(specs(MOD_A, MOD_B_BAD, MOD_C))
            assert result["ok"] is False
            (diag,) = result["diagnostics"]
            assert diag["module"] == "B"
            # the full multi-position envelope crossed the wire as JSON
            assert diag["positions"][0]["line"] == 3
            assert diag["positions"][0]["reason"] == "application"

    def test_pipelined_client_check_raises_on_protocol_error(self, server):
        _srv, port = server
        with PipelinedClient("127.0.0.1", port) as client:
            with pytest.raises(RuntimeError, match="check failed"):
                client.check([])

    def test_positions_round_trip_eval(self, server):
        _srv, port = server
        with ServiceClient("127.0.0.1", port) as client:
            r = client.request(
                "eval",
                source="f :: Int -> Int\nf x = x\nbad = f 'c'",
                expr="1")
            assert not r["ok"]
            assert r["error"]["positions"] == [
                {"filename": "<request>", "line": 3, "column": 7,
                 "reason": "application"}]

    def test_check_in_fleet_stats(self, server):
        _srv, port = server
        with ServiceClient("127.0.0.1", port) as client:
            client.request("check", modules=specs(MOD_A, MOD_B_BAD))
            stats = client.request("stats")["result"]
            counters = stats["server"]["counters"]
            assert counters["check.requests"] >= 1
            assert counters["check.diagnostics"] >= 1
            assert stats["server"]["latency"]["check"]["count"] >= 1


class TestFastPathKeyResolution:
    """The memo stage (once the fast path) must probe the memos with
    the key the op itself resolves to, never the raw request handle."""

    def _service(self) -> CompileService:
        return CompileService(CompilerOptions())

    def test_typeof_by_source_takes_fast_path(self):
        svc = self._service()
        request = {"op": "typeof", "source": "v = 41", "expr": "v + 1"}
        assert svc.memo_stage(request) is None  # cold: no memo
        svc.handle(request)  # fills cache + memo
        resp = svc.memo_stage(request)
        assert resp is not None and resp["result"]["type"] == "Int"
        assert svc.metrics.counter("fastpath_hits") == 1

    def test_stale_handle_with_source_resolves_to_source_key(self):
        svc = self._service()
        request = {"op": "typeof", "source": "v = 41", "expr": "v"}
        svc.handle(request)
        # A bogus handle alongside the source: _resolve ignores it (not
        # cached) and compiles/looks up by source, so the memo stage
        # must do the same — the old fast path probed the memo with the
        # raw handle, missed, and fell back to the executor.
        stale = dict(request, program="feedface" * 8)
        resp = svc.memo_stage(stale)
        assert resp is not None and resp["result"]["type"] == "Int"

    def test_memo_without_program_stays_on_slow_path(self):
        svc = self._service()
        request = {"op": "typeof", "source": "v = 41", "expr": "v"}
        key = svc.handle(request)["result"]["program"]
        assert (key, "v") in svc._typeof_cache
        # Evict the program while the memo survives (separate LRUs):
        # the memo stage must decline, or the op would recompile on
        # the event loop.
        svc.cache.clear()
        hits_before = svc.metrics.counter("fastpath_hits")
        assert svc.memo_stage(request) is None
        assert svc.metrics.counter("fastpath_hits") == hits_before

    def test_evicted_handle_without_source_declines(self):
        svc = self._service()
        assert svc.memo_stage(
            {"op": "typeof", "program": "feedface" * 8,
             "expr": "1"}) is None


class TestEvalLatencyEstimate:
    """The eval EMA must be recorded on every ``eval``, with budget
    overrides too."""

    def test_ema_recorded_on_plain_eval(self):
        svc = CompileService(CompilerOptions())
        key = svc.handle({"op": "compile",
                          "source": "v = 41"})["result"]["program"]
        svc.handle({"op": "eval", "program": key, "expr": "v + 1"})
        entry = svc._expr_cache[(key, "v + 1")]
        assert entry[1] is not None and entry[1] > 0.0

    def test_ema_recorded_with_overrides(self):
        # Overrides (step_limit) disable evaluator reuse but must not
        # disable latency accounting — a stale "fast" estimate would
        # let the memo stage run a slow expression on the event loop.
        svc = CompileService(CompilerOptions())
        key = svc.handle({"op": "compile",
                          "source": "v = 41"})["result"]["program"]
        svc.handle({"op": "eval", "program": key, "expr": "v",
                    "step_limit": 100000})
        entry = svc._expr_cache[(key, "v")]
        assert entry[1] is not None

    def test_ema_ages_across_requests(self):
        svc = CompileService(CompilerOptions())
        key = svc.handle({"op": "compile",
                          "source": "v = 41"})["result"]["program"]
        svc.handle({"op": "eval", "program": key, "expr": "v"})
        first = svc._expr_cache[(key, "v")][1]
        assert first is not None
        # Pin the aging arithmetic without racing the clock: seed a
        # known estimate and check the 0.8/0.2 blend moved toward the
        # new sample.
        svc._expr_cache[(key, "v")][1] = 10.0
        svc.handle({"op": "eval", "program": key, "expr": "v"})
        second = svc._expr_cache[(key, "v")][1]
        assert second is not None and second < 10.0
        assert second >= 0.8 * 10.0  # EMA, not overwrite
