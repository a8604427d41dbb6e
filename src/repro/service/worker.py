"""The two backends behind the compile server's front door, with one
interface — ``submit(request, shard) -> Future``, ``outstanding``,
``kill_shard``, ``info`` and ``stop``: the in-process
:class:`LocalPool` (one shard) and the :class:`WorkerPool`.

A :class:`WorkerPool` owns N worker *processes*, each running a full
:class:`~repro.service.server.CompileService` — its own prelude
snapshot, in-memory compile cache and metrics — over a pipe speaking
``(seq, request) -> (seq, response)``.  All workers share the
content-addressed *disk* cache tier (publishes are atomic renames, GC
is cross-process locked; see :mod:`repro.service.cache`), so a program
compiled by one worker is a disk hit for every other.

Protocol invariant of a worker process: it is **serial FIFO** — it
processes its pipe in order and answers in order.  That single
invariant makes failure handling exact:

* the *head* of a shard's pending deque is always the request the
  worker is executing right now;
* a worker crash (EOF on the pipe) therefore fails exactly the head
  with a structured ``service.worker-crashed`` error — the request
  that was likely the poison pill is not retried — while every queued
  request behind it is transparently resubmitted to the respawned
  worker;
* a front-door timeout kills the worker (there is no portable way to
  interrupt a compute-bound request) and the same crash path respawns
  and resubmits, so one runaway request costs one worker restart, not
  the queue behind it.

Workers are started with the ``fork`` start method where available:
the parent builds the prelude snapshot *once* before forking, so
children inherit it by page sharing instead of each paying the
~100ms+ prelude compile — and, because ``fork`` also inherits the
parent's hash seed, a worker compiles exactly what the parent would
in process: the ``shards2`` ``build`` and ``check`` replies in
``tests/golden/protocol.jsonl`` pin the in-process fingerprints,
program key, schemes and diagnostics (only each shard's cache counters
differ).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.coreir.eval import BIG_STACK_MB, mark_big_stack
from repro.options import CompilerOptions

#: fallback request budget for pool management traffic (stats, drain)
_MGMT_TIMEOUT = 30.0

#: request-handling threads of the in-process backend
LOCAL_THREADS = 4

#: graceful-drain deadline of ``CompileServer.drain`` and
#: :meth:`WorkerPool.stop`, seconds
DRAIN_GRACE = 5.0


def _crash_error(message: str) -> Dict[str, Any]:
    return {"type": "worker-crashed", "code": "service.worker-crashed",
            "message": message, "pos": None}


def _stopped_reply(request: Any) -> "Future":
    """A future already holding the reply for a request submitted to
    a stopped pool."""
    future: "Future" = Future()
    future.set_result({
        "id": request.get("id") if isinstance(request, dict) else None,
        "ok": False, "error": _crash_error("worker pool is stopped")})
    return future


def _worker_main(conn, options: CompilerOptions, index: int) -> None:
    """Child-process entry point: serve requests off *conn* serially.

    The pipe is read on the child's main thread; requests execute on a
    single dedicated big-stack thread, marked as one (interpreted
    evaluation nests deeply — see
    :func:`repro.coreir.eval.with_big_stack`), which also writes the
    responses so they leave in sequence order.  A ``None``
    sentinel drains: queued requests finish, then the process exits.
    """
    import queue as queue_mod

    from repro.service.server import CompileService

    service = CompileService(options)
    work: "queue_mod.Queue" = queue_mod.Queue()

    def run() -> None:
        mark_big_stack()
        while True:
            item = work.get()
            if item is None:
                return
            seq, request = item
            try:
                response = service.handle(request)
            except BaseException as exc:  # handle() never raises; belt
                response = {"id": None, "ok": False,
                            "error": _crash_error(
                                f"worker handler failed: {exc}")}
            try:
                conn.send((seq, response))
            except (BrokenPipeError, OSError):
                return

    old = threading.stack_size(BIG_STACK_MB * 1024 * 1024)
    try:
        handler = threading.Thread(target=run, name=f"repro-shard{index}",
                                   daemon=True)
        handler.start()
    finally:
        threading.stack_size(old)
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        work.put(item)
    work.put(None)
    handler.join(timeout=_MGMT_TIMEOUT)


class _Shard:
    """One worker process plus its parent-side bookkeeping.

    ``_pending`` holds ``(seq, request, future)`` in submission order;
    because the worker is serial FIFO, its head is the in-flight
    request.  A background reader thread per process moves responses
    into futures and drives crash recovery on EOF.
    """

    def __init__(self, index: int, options: CompilerOptions, ctx) -> None:
        self.index = index
        self.options = options
        self._ctx = ctx
        self._lock = threading.Lock()
        self._pending: "deque" = deque()
        self._seq = itertools.count(1)
        self._closed = False
        self.crashes = 0
        self.requests = 0
        self.process = None
        self.conn = None
        self._spawn_locked()

    # ----------------------------------------------------------- lifecycle

    def _spawn_locked(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.options, self.index),
            name=f"repro-shard{self.index}", daemon=True)
        process.start()
        child_conn.close()
        self.conn = parent_conn
        self.process = process
        reader = threading.Thread(target=self._read_loop,
                                  args=(parent_conn, process),
                                  name=f"repro-shard{self.index}-reader",
                                  daemon=True)
        reader.start()

    def submit(self, request: Dict[str, Any]) -> "Future":
        """Queue *request* on this shard; the future resolves to the
        response dict (including structured errors — it never raises
        for request-level failures)."""
        future: "Future" = Future()
        with self._lock:
            if self._closed:
                return _stopped_reply(request)
            seq = next(self._seq)
            self._pending.append((seq, request, future))
            self.requests += 1
            try:
                self.conn.send((seq, request))
            except (BrokenPipeError, OSError):
                pass  # the reader's EOF path recovers the queue
        return future

    def outstanding(self) -> int:
        with self._lock:
            return len(self._pending)

    def kill(self) -> None:
        """Kill the worker process (timeout handling, crash tests).
        The reader's EOF path fails the in-flight head, respawns the
        process, and resubmits everything queued behind it."""
        process = self.process
        if process is not None and process.is_alive():
            process.kill()

    def stop(self, grace: float = 1.0) -> None:
        """Drain and stop: queued requests finish within *grace*
        seconds, then the process is killed if still alive."""
        with self._lock:
            self._closed = True
            conn = self.conn
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        process = self.process
        if process is not None:
            process.join(timeout=grace)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        try:
            conn.close()
        except OSError:
            pass

    # -------------------------------------------------------------- reader

    def _read_loop(self, conn, process) -> None:
        while True:
            try:
                seq, response = conn.recv()
            except (EOFError, OSError):
                break
            with self._lock:
                future = None
                if self._pending and self._pending[0][0] == seq:
                    _seq, _request, future = self._pending.popleft()
            if future is not None and not future.done():
                future.set_result(response)
        self._on_worker_exit(conn, process)

    def _on_worker_exit(self, conn, process) -> None:
        """EOF on the pipe: planned (stop) or a crash.  On a crash,
        fail the in-flight head, respawn, resubmit the queue."""
        head = None
        with self._lock:
            if self._closed or conn is not self.conn:
                return  # planned shutdown, or a stale reader
            exitcode = process.exitcode
            self.crashes += 1
            if self._pending:
                head = self._pending.popleft()
            queued = list(self._pending)
            self._pending.clear()
            try:
                conn.close()
            except OSError:
                pass
            self._spawn_locked()
            for _old_seq, request, future in queued:
                if future.done():
                    continue  # timed out while queued: nobody waits
                seq = next(self._seq)
                self._pending.append((seq, request, future))
                try:
                    self.conn.send((seq, request))
                except (BrokenPipeError, OSError):
                    pass
        if head is not None:
            _seq, request, future = head
            if not future.done():
                future.set_result({
                    "id": request.get("id")
                    if isinstance(request, dict) else None,
                    "ok": False,
                    "error": _crash_error(
                        f"worker process died mid-request "
                        f"(exit code {exitcode}); it was respawned and "
                        f"queued requests were resubmitted")})


class WorkerPool:
    """N sharded worker processes over one shared disk cache.

    Routing: content-addressed requests go to ``shard_of(key)`` —
    stable, so repeated requests for one program always hit the worker
    whose in-memory cache holds it.  The server's router picks every
    request's shard and passes it to :meth:`submit`.
    """

    def __init__(self, options: Optional[CompilerOptions] = None,
                 shards: Optional[int] = None) -> None:
        self.options = options if options is not None else CompilerOptions()
        n = shards if shards is not None else self.options.server_shards
        if n < 1:
            raise ValueError("WorkerPool needs at least one shard")
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        # Build the snapshot in the parent *before* forking: children
        # inherit the compiled prelude (and the parent's hash seed,
        # which makes their compiles the in-process ones).
        from repro.service.snapshot import get_default_snapshot
        self.snapshot = get_default_snapshot(self.options)
        self.shards: List[_Shard] = [
            _Shard(i, self.options, ctx) for i in range(n)]
        self._stopped = False

    def __len__(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------- routing

    def shard_of(self, key: str) -> int:
        """The home shard of a content key (hex digest)."""
        try:
            return int(key[:8], 16) % len(self.shards)
        except ValueError:
            return hash(key) % len(self.shards)

    def submit(self, request: Dict[str, Any], shard: int) -> "Future":
        return self.shards[shard].submit(request)

    def outstanding(self, shard: int) -> int:
        return self.shards[shard].outstanding()

    # ------------------------------------------------------------ lifecycle

    def kill_shard(self, shard: int) -> bool:
        """Kill and respawn *shard*'s worker process; True: the shard
        was recycled."""
        self.shards[shard].kill()
        return True

    def stop(self, grace: Optional[float] = None) -> None:
        if self._stopped:
            return
        self._stopped = True
        if grace is None:
            grace = DRAIN_GRACE
        per_shard = max(0.1, grace)
        threads = [threading.Thread(target=s.stop, args=(per_shard,),
                                    daemon=True)
                   for s in self.shards]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=per_shard + 2.0)

    def info(self) -> List[Dict[str, Any]]:
        """Per-shard management view for the ``stats`` response."""
        out = []
        for s in self.shards:
            process = s.process
            out.append({
                "index": s.index,
                "pid": process.pid if process is not None else None,
                "alive": bool(process is not None and process.is_alive()),
                "requests": s.requests,
                "outstanding": s.outstanding(),
                "crashes": s.crashes,
            })
        return out

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()


class LocalPool:
    """The in-process backend: one shard — a single
    :class:`~repro.service.server.CompileService` — served by
    :data:`LOCAL_THREADS` big-stack threads, each marked as one, behind
    the same interface as :class:`WorkerPool`.

    A request counts as outstanding from :meth:`submit` until its
    thread returns, whatever the front door's timeout did meanwhile:
    admission control must see the threads a runaway request still
    occupies.
    """

    def __init__(self, service: Any) -> None:
        self.service = service
        self.snapshot = service.snapshot
        self.requests = 0
        self._outstanding = 0
        self._stopped = False
        self._lock = threading.Lock()
        # Stack size is fixed at thread creation and the executor spawns
        # threads lazily, so every thread is forced into existence here,
        # inside the enlarged-stack window.
        old = threading.stack_size(BIG_STACK_MB * 1024 * 1024)
        try:
            self._executor = ThreadPoolExecutor(
                max_workers=LOCAL_THREADS, thread_name_prefix="repro-worker",
                initializer=mark_big_stack)
            ready = threading.Barrier(LOCAL_THREADS + 1)
            started = [self._executor.submit(ready.wait)
                       for _ in range(LOCAL_THREADS)]
            ready.wait()
            for future in started:
                future.result()
        finally:
            threading.stack_size(old)

    def __len__(self) -> int:
        return 1

    def submit(self, request: Dict[str, Any], shard: int = 0) -> "Future":
        try:
            future = self._executor.submit(self.service.handle, request)
        except RuntimeError:  # the executor is shut down
            return _stopped_reply(request)
        with self._lock:
            self.requests += 1
            self._outstanding += 1
        future.add_done_callback(self._release)
        return future

    def _release(self, _future: "Future") -> None:
        with self._lock:
            self._outstanding -= 1

    def outstanding(self, shard: int = 0) -> int:
        return self._outstanding

    def kill_shard(self, shard: int) -> bool:
        """Threads cannot be interrupted: the request runs on to its
        own step or depth budget.  False: nothing was recycled."""
        return False

    def info(self) -> List[Dict[str, Any]]:
        return [{"index": 0, "pid": os.getpid(), "alive": not self._stopped,
                 "requests": self.requests,
                 "outstanding": self._outstanding, "crashes": 0}]

    def stop(self) -> None:
        self._stopped = True
        self._executor.shutdown(wait=False, cancel_futures=True)
