"""A long-lived compile/eval server: one async request pipeline over
one of two backends.

The server answers requests over a line-delimited JSON protocol, either
on a TCP socket or on stdio::

    -> {"id": 1, "op": "compile", "source": "main = 1 + 2"}
    <- {"id": 1, "ok": true, "result": {"program": "ab12...", ...}}

Operations: ``compile``, ``build``, ``check``, ``eval``, ``typeof``,
``info``, ``stats``, ``ping``, ``shutdown``.  An asyncio front door
runs every line, from either transport, through one pipeline::

    decode -> management ops -> rate limit -> budget ceilings
           -> memo stage -> admission -> execute -> encode

onto the in-process :class:`LocalPool` (``server_shards = 0``) or a
:class:`WorkerPool` of N processes routed by content hash
(:mod:`repro.service.worker`).  Errors never kill the process: every
failure comes back as ``{"ok": false, "error": ...}`` with a stable
``code``.  docs/SERVICE.md describes each stage, the schema and the
error codes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.coreir.eval import BIG_STACK_MB, mark_big_stack
from repro.errors import ReproError, ServiceLimitError
from repro.options import CompilerOptions, options_fingerprint
from repro.service.cache import CompileCache, cache_key, resolve_cache_dir
from repro.service.metrics import (
    Metrics,
    merge_cache_snapshots,
    merge_metric_snapshots,
)
from repro.service.snapshot import get_default_snapshot
from repro.service.worker import DRAIN_GRACE, LocalPool, WorkerPool

PROTOCOL_VERSION = 1
#: serving-stack version, reported by ``ping`` (bumped with the
#: sharded front door; the *protocol* is unchanged)
SERVER_VERSION = "2.0"

#: the memo stage answers an ``eval`` on the event loop when its
#: memoized expression's moving-average latency is at most this
MEMO_STAGE_SECONDS = 0.002

#: entries of each service's compiled-expression memo, and of its
#: typeof memo
EXPR_MEMO_SIZE = 512

#: per-shard outstanding-request ceiling; requests beyond it are shed
#: with a ``service.overloaded`` error (admission control)
QUEUE_DEPTH = 64

#: ceiling for the client-supplied per-request ``timeout`` field,
#: seconds; larger values are rejected (``service.limit-exceeded``)
TIMEOUT_CEILING = 120.0

#: budget for gathering every shard's ``stats``
STATS_TIMEOUT = 30.0

#: deepest nesting of lists and objects a request may carry: deeper
#: ones cannot be pickled to a worker or have their ``id`` echoed
MAX_NESTING = 100


def _error(kind: str, message: str, code: Optional[str] = None,
           **extra: Any) -> Dict[str, Any]:
    """The error envelope: ``type`` (legacy, human-oriented), ``code``
    (stable, machine-readable — see docs/SERVICE.md), ``message`` and
    optionally ``pos``."""
    out: Dict[str, Any] = {"type": kind, "code": code or kind,
                           "message": message, "pos": None}
    out.update(extra)
    return out


def _repro_error_envelope(exc: ReproError) -> Dict[str, Any]:
    """``{code, message, pos}`` from the error itself; ``type`` (the
    class name) is kept for older clients."""
    error = exc.to_json()
    error["type"] = type(exc).__name__
    if getattr(exc, "limit", None):
        error["limit"] = exc.limit
    return error


class ProtocolError(Exception):
    """A malformed request (bad JSON, missing field, unknown op)."""


def _depth(value: Any) -> int:
    """How deeply *value*'s lists and objects nest — found without
    recursion, since the point is to refuse what recursion cannot
    handle."""
    deepest, stack = 0, [(value, 1)]
    while stack:
        item, level = stack.pop()
        if isinstance(item, dict):
            item = list(item.values())
        if isinstance(item, list):
            deepest = max(deepest, level)
            stack.extend((child, level + 1) for child in item)
    return deepest


class CompileService:
    """Transport-independent request handling: snapshot + cache + ops.

    The one shard of the in-process backend, the service inside every
    worker process, and direct in-process use (``repro batch`` drives
    it without any socket)."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options if options is not None else CompilerOptions()
        self.snapshot = get_default_snapshot(self.options)
        self.cache = CompileCache(
            capacity=self.options.cache_size,
            disk_dir=resolve_cache_dir(self.options),
            disk_budget=self.options.cache_disk_budget)
        self.metrics = Metrics()
        #: ``(program key, expr) -> [CompiledExpr, ema_seconds]`` —
        #: repeated evals of one expression skip the ~0.3ms
        #: parse/infer/translate entirely and reuse a warm evaluator
        self._expr_cache: "OrderedDict[Tuple[str, str], List[Any]]" = \
            OrderedDict()
        #: ``(program key, expr) -> printed type`` — ``typeof`` is pure
        #: per program, so repeats skip inference entirely
        self._typeof_cache: "OrderedDict[Tuple[str, str], str]" = \
            OrderedDict()
        self._expr_lock = threading.Lock()

    # ------------------------------------------------------------- programs

    def compile(self, source: str,
                filename: str = "<request>") -> Tuple[str, Any, bool]:
        """Compile *source* through the cache; returns
        ``(key, program, was_cached)``."""
        key = cache_key(source, self.options, self.snapshot.fingerprint)
        program = self.cache.get(key)
        if program is not None:
            self.metrics.incr("cache_hits")
            return key, program, True
        with self.metrics.time("compile_miss"):
            from repro.driver import compile_source
            program = compile_source(source, self.options, filename=filename,
                                     snapshot=self.snapshot)
        self.cache.put(key, program)
        self.metrics.incr("cache_misses")
        # Per-phase latency: every miss contributes one sample per
        # pipeline pass (programs unpickled from an older disk cache
        # may predate the trace — hence the getattr).
        trace = getattr(program.compile_stats, "phases", None)
        if trace is not None:
            self.metrics.record_phases(trace)
        return key, program, False

    def _resolve(self, request: Dict[str, Any],
                 probe: bool = False) -> Tuple[Optional[str], Any]:
        """The program a request targets, as ``(key, program)``: by
        ``program`` handle while that handle is cached, else by the
        content address of ``source``, compiled on demand.

        With *probe* (the memo stage) nothing is compiled, loaded or
        counted: the program comes back None, and so does the key
        whenever the op would fail or have to compile.  One resolver
        for both keeps the memo stage's key the one the op will use: a
        stale handle sent with its source resolves to the source's
        key in both."""
        handle = request.get("program")
        if handle is not None:
            if isinstance(handle, str):
                if probe:
                    if self.cache.contains(handle):
                        return handle, None
                else:
                    program = self.cache.get(handle)
                    if program is not None:
                        return handle, program
            if "source" not in request:
                if probe:
                    return None, None
                raise ProtocolError(
                    f"unknown program {handle!r} (evicted or never "
                    f"compiled); re-send with its source")
        source = request.get("source")
        if not isinstance(source, str):
            if probe:
                return None, None
            raise ProtocolError(
                "request needs a 'program' handle or a 'source' string")
        if probe:
            key = cache_key(source, self.options, self.snapshot.fingerprint)
            return (key if self.cache.contains(key) else None), None
        key, program, _ = self.compile(source)
        return key, program

    # ------------------------------------------- expression compilation memo

    def _compiled_entry(self, key: str, program: Any,
                        expr: str) -> List[Any]:
        """The memoised ``[CompiledExpr, ema_seconds]`` entry for
        ``(key, expr)``, compiling on a miss.  ``ema_seconds`` (None
        until the first run) feeds the decision in :meth:`memo_stage`."""
        memo_key = (key, expr)
        with self._expr_lock:
            entry = self._expr_cache.get(memo_key)
            if entry is not None:
                self._expr_cache.move_to_end(memo_key)
                self.metrics.incr("expr_cache_hits")
                return entry
        compiled = program.compile_expr(expr)
        entry = [compiled, None]
        with self._expr_lock:
            existing = self._expr_cache.get(memo_key)
            if existing is not None:
                return existing
            self._expr_cache[memo_key] = entry
            while len(self._expr_cache) > EXPR_MEMO_SIZE:
                self._expr_cache.popitem(last=False)
        self.metrics.incr("expr_cache_misses")
        return entry

    def _memoized_type(self, key: str, program: Any, expr: str) -> str:
        """``typeof`` through the memo — inference is pure per
        program, so one expression infers once."""
        memo_key = (key, expr)
        with self._expr_lock:
            printed = self._typeof_cache.get(memo_key)
            if printed is not None:
                self._typeof_cache.move_to_end(memo_key)
                self.metrics.incr("expr_cache_hits")
                return printed
        printed = program.type_of(expr)
        with self._expr_lock:
            self._typeof_cache[memo_key] = printed
            while len(self._typeof_cache) > EXPR_MEMO_SIZE:
                self._typeof_cache.popitem(last=False)
        self.metrics.incr("expr_cache_misses")
        return printed

    def memo_stage(self, request: Any) -> Optional[Dict[str, Any]]:
        """Answer *request* here and now when the memo proves it cheap:
        a ``typeof`` already in the typeof memo, or an ``eval`` without
        budget overrides whose memoized expression averages at most
        :data:`MEMO_STAGE_SECONDS` — in both cases against a program
        still cached, so nothing compiles.  The front door calls this
        on its event loop, skipping the thread hop for the hot path.
        Returns None when the request must go on to admission."""
        if not isinstance(request, dict):
            return None
        op = request.get("op")
        expr = request.get("expr")
        if op not in ("eval", "typeof", "type_of") \
                or not isinstance(expr, str):
            return None
        is_eval = op == "eval"
        if is_eval and ("step_limit" in request or "max_depth" in request):
            return None
        key, _ = self._resolve(request, probe=True)
        if key is None:
            return None
        with self._expr_lock:
            if is_eval:
                entry = self._expr_cache.get((key, expr))
                ready = entry is not None and entry[1] is not None \
                    and entry[1] <= MEMO_STAGE_SECONDS
            else:
                ready = (key, expr) in self._typeof_cache
        if not ready:
            return None
        self.metrics.incr("fastpath_hits")
        return self.handle(request)

    # ------------------------------------------------------------- requests

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request dict to a response dict (never raises)."""
        request_id = request.get("id") if isinstance(request, dict) else None
        if isinstance(request, dict) and request.get("op") == "stats":
            # A read of the metrics is not metered itself: the front
            # door counts the client's request once, however many
            # shards it asks.
            return {"id": request_id, "ok": True, "result": self.stats()}
        self.metrics.incr("requests_total")
        try:
            if not isinstance(request, dict):
                raise ProtocolError("request must be a JSON object")
            op = request.get("op")
            if not isinstance(op, str):
                raise ProtocolError("request needs an 'op' string")
            op = {"type_of": "typeof"}.get(op, op)
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            with self.metrics.time(op):
                result = handler(request)
            return {"id": request_id, "ok": True, "result": result}
        except ProtocolError as exc:
            return self._failure(request_id, _error("protocol", str(exc)))
        except ReproError as exc:
            return self._failure(request_id, _repro_error_envelope(exc))
        except Exception as exc:  # never let a request kill the server
            return self._failure(
                request_id, _error("internal", f"{type(exc).__name__}: {exc}"))

    def _failure(self, request_id: Any,
                 error: Dict[str, Any]) -> Dict[str, Any]:
        self.metrics.incr("errors_total")
        # Per-code counters surface in ``stats`` so operators can see
        # *what kind* of failures a fleet is eating (e.g. a spike in
        # ``errors.limit`` means someone is feeding us pathological
        # inputs).
        self.metrics.incr(f"errors.{error.get('code') or 'error'}")
        return {"id": request_id, "ok": False, "error": error}

    # ------------------------------------------------------------------ ops

    def _op_compile(self, request: Dict[str, Any]) -> Dict[str, Any]:
        source = request.get("source")
        if not isinstance(source, str):
            raise ProtocolError("'compile' needs a 'source' string")
        key, program, cached = self.compile(
            source, filename=request.get("filename", "<request>"))
        result: Dict[str, Any] = {
            "program": key,
            "cached": cached,
            "warnings": [str(w) for w in program.warnings],
        }
        if request.get("schemes", True):
            result["schemes"] = {
                name: str(scheme)
                for name, scheme in sorted(program.schemes.items())
                if "$" not in name and "@" not in name}
        return result

    def _eval_overrides(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Client-supplied evaluator limits, validated against the
        server's configured ceilings.  A request may *lower* its
        budgets freely; asking for more than the operator allowed is a
        ``service.limit-exceeded`` rejection, not a silent clamp — the
        client must know its request did not run under the limits it
        asked for."""
        overrides: Dict[str, Any] = {}
        for name, ceiling in (("step_limit", self.options.eval_step_limit),
                              ("max_depth", self.options.eval_depth_limit)):
            if name not in request:
                continue
            try:
                value = int(request[name])
            except (TypeError, ValueError):
                raise ProtocolError(f"'{name}' must be an integer")
            if ceiling and value > ceiling:
                raise ServiceLimitError(name, value, ceiling)
            overrides[name] = value
        return overrides

    def _op_eval(self, request: Dict[str, Any]) -> Dict[str, Any]:
        expr = request.get("expr")
        if not isinstance(expr, str):
            raise ProtocolError("'eval' needs an 'expr' string")
        overrides = self._eval_overrides(request)
        key, program = self._resolve(request)
        from repro.cli import render
        entry = self._compiled_entry(key, program, expr)
        t0 = time.perf_counter()
        value = program.eval_compiled(entry[0], reuse=not overrides,
                                      **overrides)
        elapsed = time.perf_counter() - t0
        # Exponential moving average of this expression's latency; the
        # memo stage trusts it to run cheap requests inline.
        entry[1] = elapsed if entry[1] is None \
            else 0.8 * entry[1] + 0.2 * elapsed
        result: Dict[str, Any] = {"program": key, "value": render(value)}
        stats = program.last_stats
        if stats is not None:
            result["stats"] = stats.snapshot()
        return result

    def _op_typeof(self, request: Dict[str, Any]) -> Dict[str, Any]:
        expr = request.get("expr")
        if not isinstance(expr, str):
            raise ProtocolError("'typeof' needs an 'expr' string")
        key, program = self._resolve(request)
        return {"program": key,
                "type": self._memoized_type(key, program, expr)}

    def _op_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = request.get("name")
        kinds = bool(request.get("kinds"))
        if not isinstance(name, str) and not kinds:
            raise ProtocolError("'info' needs a 'name' string and/or "
                                "'kinds': true")
        key, program = self._resolve(request)
        result: Dict[str, Any] = {"program": key}
        if isinstance(name, str):
            result["info"] = program.info(name)
        if kinds:
            result["kinds"] = program.kinds_listing()
        return result

    def _module_graph(self, request: Dict[str, Any],
                      op: str) -> Tuple[Any, Any]:
        """The import DAG of a ``build`` or ``check`` request's inline
        ``modules``, and a builder over this service's artifact cache;
        *op* names the request in a malformed request's error."""
        from repro.modules.build import ModuleBuilder
        from repro.modules.resolve import scan_inline_modules
        modules = request.get("modules")
        if not isinstance(modules, list) or not modules:
            raise ProtocolError(f"'{op}' needs a non-empty 'modules' list")
        for spec in modules:
            if not isinstance(spec, dict) or \
                    not isinstance(spec.get("source"), str):
                raise ProtocolError(
                    "each 'modules' entry needs a 'source' string "
                    "(plus optional 'name'/'filename')")
        graph = scan_inline_modules(
            modules, max_depth=self.options.max_parse_depth)
        return graph, ModuleBuilder(self.options, self.snapshot,
                                    cache=self.cache)

    def _op_build(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Build a multi-module program from inline sources: resolve
        the import DAG, compile each module separately (through the
        shared artifact cache, so repeated builds are incremental),
        link, and cache the linked program under a content key the
        client can hand to ``eval``/``typeof``/``info``.  ``jobs`` is
        validated and echoed in the reply; it sets nothing else."""
        from repro.modules.build import module_cache_key
        jobs = request.get("jobs")
        if jobs is not None:
            try:
                jobs = int(jobs)
            except (TypeError, ValueError):
                raise ProtocolError("'jobs' must be an integer")
        graph, builder = self._module_graph(request, "build")
        build = builder.build(graph, jobs=jobs)
        program = build.program
        # Address the *linked* program by the build's content.  The
        # surface fingerprint alone is NOT enough: a body-only edit
        # keeps it stable (by design — that is the rebuild cut-off) but
        # changes the linked program, so the key also pins each
        # module's source digest and unfolding digest.
        key = module_cache_key(
            "<link>", self.options, self.snapshot.fingerprint,
            [(name, "{fingerprint}:{source_sha}:{unfold_fp}".format(
                **{field: build.modules[name].get(field, "")
                   for field in ("fingerprint", "source_sha",
                                 "unfold_fp")}))
             for name in build.order])
        self.cache.put(key, program)
        trace = getattr(program.compile_stats, "phases", None)
        if trace is not None:
            self.metrics.record_phases(trace)
        result: Dict[str, Any] = {
            "program": key,
            "build": build.stats(),
            "warnings": [str(w) for w in program.warnings],
        }
        if trace is not None and hasattr(trace, "all_counters"):
            specialization = {name: dict(bucket)
                             for name, bucket in trace.all_counters().items()
                             if name.startswith("specialize")}
            if specialization:
                result["specialization"] = specialization
        if request.get("schemes", True):
            result["schemes"] = {
                name: str(scheme)
                for name, scheme in sorted(program.schemes.items())
                if "$" not in name and "@" not in name}
        return result

    def _op_check(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Type-check a module set without linking or evaluating.

        Shares :meth:`_op_build`'s artifact cache, so a warm re-check
        after editing one module body re-infers that module alone —
        every dependent's closure key is cut off at the unchanged
        interface fingerprint.  Unlike ``build`` the reply is *never*
        an error envelope for a per-module compile failure: the check
        loop is tolerant, and each failed module contributes one entry
        to ``diagnostics`` (the standard error envelope — including
        the multi-position ``positions`` list — plus the module name),
        so a client sees every independent error in one round trip.
        """
        graph, builder = self._module_graph(request, "check")
        checked = builder.check(graph)
        diagnostics = [dict(_repro_error_envelope(exc), module=name)
                       for name, exc in checked.diagnostics]
        # Fleet visibility: how many diagnostics this server is
        # producing, alongside the per-verb ``check`` latency histogram
        # recorded by handle()'s timer.
        self.metrics.incr("check.requests")
        self.metrics.incr("check.diagnostics", len(diagnostics))
        return {"ok": checked.ok,
                "check": checked.stats(),
                "diagnostics": diagnostics}

    def stats(self) -> Dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "version": SERVER_VERSION,
            "server": self.metrics.snapshot(),
            "cache": self.cache.snapshot(),
            "snapshot": {
                "fingerprint": self.snapshot.fingerprint,
                "prelude_bindings": self.snapshot.n_bindings,
            },
        }


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------


class _TokenBucket:
    """Per-stream request rate limiter (classic token bucket, burst
    twice the rate)."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.capacity = max(1.0, 2.0 * rate)
        self.tokens = self.capacity
        self._t = time.monotonic()

    def take(self) -> bool:
        now = time.monotonic()
        self.tokens = min(self.capacity,
                          self.tokens + (now - self._t) * self.rate)
        self._t = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class _Stream:
    """One client stream — a TCP connection or stdio: how its replies
    are written, its token bucket and its requests in flight."""

    def __init__(self, send, rate: float) -> None:
        self.send = send  # async (response dict) -> None: the encode stage
        self.bucket = _TokenBucket(rate) if rate > 0 else None
        self.tasks: set = set()

    def spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    async def settle(self) -> None:
        """Wait until every reply in flight has been written."""
        if self.tasks:
            await asyncio.gather(*self.tasks, return_exceptions=True)


class CompileServer:
    """Line-delimited JSON over TCP (:meth:`start`) or stdio
    (:meth:`serve_stdio`), both feeding one request pipeline on an
    asyncio event loop running on a dedicated background thread.
    Requests on one stream pipeline freely (responses match by ``id``).

    ``server_shards = 0`` (default) executes requests on the in-process
    :class:`LocalPool`; ``server_shards = N`` on a :class:`WorkerPool`
    of N processes (see module docstring).  Passing an explicit
    *service* always selects the in-process backend.  With
    *stats_json*, the final fleet-wide metrics are written to that file
    as the server stops.
    """

    def __init__(self, options: Optional[CompilerOptions] = None,
                 service: Optional[CompileService] = None,
                 host: Optional[str] = None,
                 port: Optional[int] = None,
                 stats_json: Optional[str] = None) -> None:
        if service is not None:
            self.options = service.options
        else:
            self.options = options if options is not None else \
                CompilerOptions()
        #: the in-process service whose memo the memo stage reads; None
        #: when requests execute in worker processes
        self.service: Optional[CompileService] = None
        if service is None and self.options.server_shards > 0:
            self.pool: Any = WorkerPool(self.options)
        else:
            self.service = service if service is not None \
                else CompileService(self.options)
            self.pool = LocalPool(self.service)
        #: the front door's own metrics, merged with every shard's into
        #: the ``stats`` reply
        self.metrics = Metrics()
        self.snapshot_fp = self.pool.snapshot.fingerprint
        self._options_fp = options_fingerprint(self.options)
        self.host = host if host is not None else self.options.server_host
        self.port = port if port is not None else self.options.server_port
        self.stats_json = stats_json
        self._shutdown = threading.Event()
        self._stopping = threading.Lock()
        self._stopped = False
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._aserver: Optional[asyncio.AbstractServer] = None

    # --------------------------------------------------------------- life

    def _start_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.new_event_loop()
        self._loop = loop
        # The loop thread gets a big stack too: the memo stage runs
        # evals directly on it.
        old = threading.stack_size(BIG_STACK_MB * 1024 * 1024)
        try:
            thread = threading.Thread(target=self._loop_main,
                                      name="repro-front", daemon=True)
            thread.start()
        finally:
            threading.stack_size(old)
        self._loop_thread = thread
        return loop

    def _loop_main(self) -> None:
        mark_big_stack()
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def start(self) -> int:
        """Bind and start accepting TCP connections on a background
        event loop; returns the bound port (useful with
        ``server_port = 0``)."""
        listener = socket.create_server((self.host, self.port))
        self.port = listener.getsockname()[1]
        ready = asyncio.run_coroutine_threadsafe(
            self._start_async(listener), self._start_loop())
        try:
            ready.result(timeout=30)
        except BaseException:
            listener.close()
            self.stop()
            raise
        return self.port

    #: per-line read limit — request lines carry whole module sources
    _READ_LIMIT = 32 * 1024 * 1024

    async def _start_async(self, listener: socket.socket) -> None:
        self._aserver = await asyncio.start_server(self._on_client,
                                                   sock=listener,
                                                   limit=self._READ_LIMIT)

    def serve_stdio(self, stdin=None, stdout=None) -> None:
        """Serve line-delimited JSON on stdio until EOF or shutdown.

        A reader thread pushes stdin's lines into the event loop —
        plain file objects (tests drive this with in-memory streams)
        cannot be polled portably — where they take the same pipeline
        as a TCP connection's."""
        stdin = stdin if stdin is not None else sys.stdin.buffer
        stdout = stdout if stdout is not None else sys.stdout
        served = asyncio.run_coroutine_threadsafe(
            self._serve_stdio(stdin, stdout), self._start_loop())
        served.add_done_callback(lambda _done: self.stop())
        self._shutdown.wait()

    def stop(self) -> None:
        with self._stopping:
            if self._stopped:
                return
            self._stopped = True
        if threading.current_thread() is self._loop_thread:
            # Called from the event loop (the shutdown op): finish
            # teardown on a plain thread so the loop can unwind.
            threading.Thread(target=self._teardown, name="repro-stop",
                             daemon=True).start()
            return
        self._teardown()

    def _teardown(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            self._close(streams=True)
            loop.call_soon_threadsafe(loop.stop)
            thread = self._loop_thread
            if thread is not None and \
                    thread is not threading.current_thread():
                thread.join(timeout=5)
                if not thread.is_alive():
                    loop.close()
        try:
            if self.stats_json:
                stats = self.stats(timeout=5.0)
                payload = dict(stats["server"], cache=stats["cache"],
                               shards=stats["shards"])
                with open(self.stats_json, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=2, sort_keys=True)
                    handle.write("\n")
        finally:
            self.pool.stop()
            self._shutdown.set()

    def _close(self, streams: bool) -> None:
        """Stop accepting connections; with *streams*, also end every
        stream and request in flight — cancelling their tasks closes
        each connection, so its client sees EOF."""
        async def close() -> None:
            server, self._aserver = self._aserver, None
            if server is not None:
                server.close()
            if streams:
                tasks = asyncio.all_tasks() - {asyncio.current_task()}
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
            if server is not None:
                await asyncio.wait_for(server.wait_closed(), timeout=2.0)

        try:
            asyncio.run_coroutine_threadsafe(close(), self._loop) \
                .result(timeout=5)
        except Exception:  # a listener that will not close is still
            pass           # abandoned: teardown goes on

    def drain(self, grace: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting connections, give
        in-flight requests up to *grace* seconds (default
        :data:`~repro.service.worker.DRAIN_GRACE`) to finish, then
        stop.  ``repro serve`` wires SIGTERM to this."""
        if grace is None:
            grace = DRAIN_GRACE
        self._draining = True
        loop = self._loop
        if loop is not None and loop.is_running():
            self._close(streams=False)
            deadline = time.monotonic() + max(0.0, grace)
            while time.monotonic() < deadline and any(
                    self.pool.outstanding(shard)
                    for shard in range(len(self.pool))):
                time.sleep(0.05)
        self.stop()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server shuts down; True if it did."""
        return self._shutdown.wait(timeout)

    # ---------------------------------------------------------- transports

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        """The TCP adapter: one connection's lines into the pipeline."""
        if self._draining or self._shutdown.is_set():
            writer.close()
            return
        # asyncio only disables Nagle on sockets it created itself; on
        # this one each small reply would wait for the client's next
        # segment.
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        write_lock = asyncio.Lock()

        async def send(response: Dict[str, Any]) -> None:
            data = (json.dumps(response) + "\n").encode("utf-8")
            async with write_lock:
                try:
                    writer.write(data)
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass

        async def readline() -> bytes:
            try:
                return await reader.readline()
            except (ConnectionError, OSError, ValueError):
                return b""  # ValueError: line over the read limit

        try:
            await self._serve(readline,
                              _Stream(send, self.options.server_rate_limit))
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_stdio(self, stdin, stdout) -> None:
        """The stdio adapter: a reader thread feeds the lines in."""
        loop = asyncio.get_running_loop()
        lines: "asyncio.Queue[bytes]" = asyncio.Queue()

        def pump() -> None:
            # OSError/ValueError: stdin closed under us; RuntimeError:
            # the server stopped first and closed its loop.
            try:
                for raw in stdin:
                    if isinstance(raw, str):
                        raw = raw.encode("utf-8")
                    loop.call_soon_threadsafe(lines.put_nowait, raw)
            except (OSError, ValueError, RuntimeError):
                pass
            try:
                loop.call_soon_threadsafe(lines.put_nowait, b"")
            except RuntimeError:
                pass

        threading.Thread(target=pump, name="repro-stdin",
                         daemon=True).start()

        # A blocking write stalls the loop, but stdio is the loop's only
        # stream: that is this stream's backpressure.
        async def send(response: Dict[str, Any]) -> None:
            try:
                stdout.write(json.dumps(response) + "\n")
                stdout.flush()
            except (ValueError, OSError):
                pass

        await self._serve(lines.get,
                          _Stream(send, self.options.server_rate_limit))

    async def _serve(self, readline, stream: _Stream) -> None:
        """Run one stream's lines through the pipeline until EOF or
        shutdown; every reply in flight is written before it returns."""
        try:
            while not self._shutdown.is_set():
                raw = await readline()
                if not raw:
                    break
                if not raw.strip():
                    continue
                try:
                    if not await self._pipeline(raw, stream):
                        break
                except Exception as exc:  # front-door bug containment
                    await stream.send({"id": None, "ok": False,
                                       "error": _error(
                                           "internal",
                                           f"{type(exc).__name__}: {exc}")})
        finally:
            await stream.settle()

    # ------------------------------------------------------------ pipeline

    async def _pipeline(self, raw: bytes, stream: _Stream) -> bool:
        """decode -> management ops -> rate limit -> budget ceilings ->
        memo stage -> admission -> execute -> encode, for one request
        line.  False ends the stream (shutdown)."""
        try:
            request = json.loads(raw.decode("utf-8"))
            if raw.count(b"[") + raw.count(b"{") > MAX_NESTING \
                    and _depth(request) > MAX_NESTING:
                raise ValueError(f"nested deeper than {MAX_NESTING} levels")
        # ValueError: bad UTF-8 or JSON, an integer over Python's digit
        # limit, or too deep; RecursionError: too deep for the decoder
        except (ValueError, RecursionError) as exc:
            await stream.send(self._reject(
                None, _error("protocol", f"malformed JSON: {exc}")))
            return True
        fields = request if isinstance(request, dict) else {}
        request_id = fields.get("id")
        op = fields.get("op")
        if op in ("ping", "stats", "shutdown"):
            return await self._manage(op, request_id, stream)
        if stream.bucket is not None and not stream.bucket.take():
            await stream.send(self._reject(request_id, _error(
                "rate-limited",
                f"per-connection rate limit "
                f"({self.options.server_rate_limit:g} req/s) exceeded",
                code="service.rate-limited"), "rate_limited_total"))
            return True
        try:
            timeout = self._request_timeout(fields)
        except ServiceLimitError as exc:
            await stream.send(self._reject(request_id,
                                           _repro_error_envelope(exc)))
            return True
        if self.service is not None:
            response = self.service.memo_stage(request)
            if response is not None:
                await stream.send(response)
                return True
        shard = self._route(fields)
        queued = self.pool.outstanding(shard)
        if queued >= QUEUE_DEPTH:
            where = f"shard {shard}" if self.service is None \
                else "the server"
            await stream.send(self._reject(request_id, _error(
                "overloaded",
                f"{where} has {queued} requests outstanding (queue depth "
                f"{QUEUE_DEPTH}); retry with backoff",
                code="service.overloaded"), "shed_total"))
            return True
        # Submitted before the next line is read, so the requests of a
        # pipelined burst see each other in the queue-depth check.
        future = self.pool.submit(request, shard)
        stream.spawn(self._execute(future, request_id, op, shard, timeout,
                                   stream))
        return True

    def _reject(self, request_id: Any, error: Dict[str, Any],
                *counters: str) -> Dict[str, Any]:
        """A front-door error reply, counted as one request."""
        for name in ("requests_total", "errors_total",
                     f"errors.{error['code']}") + counters:
            self.metrics.incr(name)
        return {"id": request_id, "ok": False, "error": error}

    async def _manage(self, op: str, request_id: Any,
                      stream: _Stream) -> bool:
        """Answer a management op at the front door, in both modes."""
        self.metrics.incr("requests_total")
        if op == "stats":
            # Gathered off the loop, without holding up the stream.
            stream.spawn(self._stats_reply(request_id, stream))
            return True
        with self.metrics.time(op):
            if op == "ping":
                result: Dict[str, Any] = {
                    "pong": True,
                    "protocol": PROTOCOL_VERSION,
                    "version": SERVER_VERSION,
                    "shards": self.options.server_shards,
                    "options_fingerprint": self._options_fp,
                    "prelude_fingerprint": self.snapshot_fp,
                }
            else:
                # Graceful: earlier requests on this stream respond
                # before the shutdown does.
                await stream.settle()
                result = {"shutting_down": True}
        await stream.send({"id": request_id, "ok": True, "result": result})
        if op == "ping":
            return True
        self.stop()
        return False

    async def _stats_reply(self, request_id: Any, stream: _Stream) -> None:
        with self.metrics.time("stats"):
            result = await asyncio.get_running_loop().run_in_executor(
                None, self.stats)
        await stream.send({"id": request_id, "ok": True, "result": result})

    def _route(self, request: Dict[str, Any]) -> int:
        """The shard a request executes on: the home shard of its
        content address — source, program handle or module set — so
        one program's traffic always finds the shard whose caches hold
        it; the least-loaded shard for requests without content."""
        shards = len(self.pool)
        if shards == 1:
            return 0
        source = request.get("source")
        if isinstance(source, str):
            return self.pool.shard_of(
                cache_key(source, self.options, self.snapshot_fp))
        handle = request.get("program")
        if isinstance(handle, str):
            return self.pool.shard_of(handle)
        modules = request.get("modules")
        if isinstance(modules, list):
            digest = hashlib.sha256()
            for spec in modules:
                if isinstance(spec, dict):
                    digest.update(
                        str(spec.get("source", "")).encode("utf-8",
                                                           "replace"))
                    digest.update(b"\x00")
            return self.pool.shard_of(digest.hexdigest())
        return min(range(shards), key=self.pool.outstanding)

    def _request_timeout(self, request: Dict[str, Any]) -> Optional[float]:
        """The request's time budget, honouring the client's
        ``timeout`` field up to :data:`TIMEOUT_CEILING` (beyond it:
        ``service.limit-exceeded``)."""
        timeout = self.options.request_timeout
        if "timeout" in request:
            try:
                requested: Optional[float] = float(request["timeout"])
            except (TypeError, ValueError):
                requested = None
            if requested is not None:
                if requested > TIMEOUT_CEILING:
                    raise ServiceLimitError("timeout", requested,
                                            TIMEOUT_CEILING)
                timeout = requested
        return timeout if timeout and timeout > 0 else None

    async def _execute(self, future, request_id: Any, op: Any, shard: int,
                       timeout: Optional[float], stream: _Stream) -> None:
        started = time.perf_counter()
        try:
            response = await asyncio.wait_for(asyncio.wrap_future(future),
                                              timeout)
        except asyncio.TimeoutError:
            self.metrics.incr("timeouts_total")
            self.metrics.incr("errors.timeout")
            message = f"request exceeded {timeout}s budget"
            if self.pool.kill_shard(shard):
                # The pool respawns the worker and resubmits the
                # requests queued behind the runaway one.
                message += f"; shard {shard} was recycled"
            response = {"id": request_id, "ok": False,
                        "error": _error("timeout", message)}
        except Exception as exc:  # the pool stopped under the request
            response = {"id": request_id, "ok": False,
                        "error": _error("internal",
                                        f"{type(exc).__name__}: {exc}")}
        if isinstance(op, str) and hasattr(CompileService, f"_op_{op}"):
            self.metrics.observe(f"shard{shard}.{op}",
                                 time.perf_counter() - started)
        await stream.send(response)

    def stats(self, timeout: float = STATS_TIMEOUT) -> Dict[str, Any]:
        """The fleet-wide ``stats`` result: the front door's metrics
        merged with every shard's (counters add; merged percentiles are
        count-weighted approximations — see docs/SERVICE.md).  A shard
        that does not answer within *timeout* is left out."""
        shards = range(len(self.pool))
        for shard in shards:
            self.metrics.gauge(f"queue_depth.shard{shard}",
                               self.pool.outstanding(shard))
        futures = [self.pool.submit({"op": "stats"}, shard)
                   for shard in shards]
        deadline = time.monotonic() + timeout
        results = []
        for future in futures:
            try:
                reply = future.result(
                    timeout=max(0.0, deadline - time.monotonic()))
            except Exception:
                continue
            if reply.get("ok"):
                results.append(reply["result"])
        return {
            "protocol": PROTOCOL_VERSION,
            "version": SERVER_VERSION,
            "server": merge_metric_snapshots(
                [self.metrics.snapshot()]
                + [result.get("server", {}) for result in results]),
            "cache": merge_cache_snapshots(
                [result.get("cache", {}) for result in results]),
            "snapshot": {
                "fingerprint": self.snapshot_fp,
                "prelude_bindings": self.pool.snapshot.n_bindings,
            },
            "shards": self.pool.info(),
        }


# ---------------------------------------------------------------------------
# Clients (tests, benchmarks, simple tooling)
# ---------------------------------------------------------------------------

class ServiceClient:
    """A minimal synchronous client: one request in flight at a time."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._next_id = 0

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        with self._lock:
            self._next_id += 1
            payload: Dict[str, Any] = {"id": self._next_id, "op": op}
            payload.update(fields)
            self._sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            while True:
                raw = self._reader.readline()
                if not raw:
                    raise ConnectionError("server closed the connection")
                response = json.loads(raw.decode("utf-8"))
                if response.get("id") == self._next_id:
                    return response

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class PipelinedClient:
    """A load-generation client: many requests in flight on one
    connection, responses collected out of band and matched by ``id``.
    This is how the protocol is meant to be driven at rate — the
    synchronous :class:`ServiceClient` serialises on round trips."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._next_id = 0
        self._buffer: List[bytes] = []

    def send(self, op: str, **fields: Any) -> int:
        """Queue one request locally; returns its id.  Call
        :meth:`flush` to put queued requests on the wire."""
        self._next_id += 1
        payload: Dict[str, Any] = {"id": self._next_id, "op": op}
        payload.update(fields)
        self._buffer.append((json.dumps(payload) + "\n").encode("utf-8"))
        return self._next_id

    def flush(self) -> None:
        if self._buffer:
            self._sock.sendall(b"".join(self._buffer))
            self._buffer.clear()

    def recv(self) -> Dict[str, Any]:
        """The next response on the wire (any id)."""
        raw = self._reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw.decode("utf-8"))

    def collect(self, n: int) -> List[Dict[str, Any]]:
        self.flush()
        return [self.recv() for _ in range(n)]

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Synchronous convenience for setup traffic."""
        request_id = self.send(op, **fields)
        self.flush()
        while True:
            response = self.recv()
            if response.get("id") == request_id:
                return response

    def check(self, modules: List[Dict[str, Any]],
              **fields: Any) -> Dict[str, Any]:
        """Type-check *modules* (``[{source, name?, filename?}, ...]``)
        without linking or evaluating.  Returns the ``check`` result —
        per-module status plus a ``diagnostics`` list whose entries are
        full error envelopes (code, message, ``positions``) tagged with
        the failing module's name.  Raises on transport or protocol
        failure; per-module compile errors do NOT raise."""
        response = self.request("check", modules=modules, **fields)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise RuntimeError(
                f"check failed [{error.get('code', 'error')}]: "
                f"{error.get('message', 'unknown error')}")
        return response["result"]

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "PipelinedClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
