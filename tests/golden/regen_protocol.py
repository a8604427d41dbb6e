#!/usr/bin/env python
"""Regenerate the wire-protocol golden (run from the repo root with
PYTHONPATH=src) after an intentional change to what the compile
server answers::

    PYTHONPATH=src python tests/golden/regen_protocol.py

One fixed request script is sent, one line at a time, to the
in-process backend and to a 2-shard worker fleet, over both TCP and
stdio.  Every reply is recorded with its timings, pids and latency
numbers masked, one JSON line per request, in ``protocol.jsonl``.
``tests/test_protocol_golden.py`` replays the same script and names
the first request and field that diverge.
"""

from __future__ import annotations

import json
import pathlib
import queue
import socket
import sys
import threading
from typing import Any, Dict, Iterator, List

GOLDEN = pathlib.Path(__file__).with_name("protocol.jsonl")

PROGRAM = """
class Sized a where
  size :: a -> Int

data Box = Box Int

instance Sized Box where
  size (Box n) = n

main = size (Box 42)
"""

MOD_A = "module A (inc) where\ninc :: Int -> Int\ninc x = x + 1\n"
MOD_B_OK = "module B (f) where\nimport A\nf = inc 3\n"
MOD_B_BAD = "module B (f) where\nimport A\nf = inc 'c'\n"

#: stands for the program handle the script's first ``compile`` returns
HANDLE = "$HANDLE"


def _line(**fields: Any) -> str:
    return json.dumps(fields, sort_keys=True)


#: the request script: one line each, sent in order, each answered
#: before the next is sent
SCRIPT: List[str] = [
    _line(id=1, op="ping"),
    _line(id=2, op="compile", source=PROGRAM),
    _line(id=3, op="compile", source=PROGRAM),
    _line(id=4, op="eval", program=HANDLE, expr="size (Box 7) + 1"),
    _line(id=5, op="eval", program=HANDLE, expr="size (Box 7) + 1"),
    _line(id=6, op="eval", source="triple x = 3 * x", expr="triple 14"),
    _line(id=7, op="typeof", program=HANDLE, expr="size"),
    _line(id=8, op="info", program=HANDLE, name="size", kinds=True),
    _line(id=9, op="build", modules=[{"source": MOD_A},
                                     {"source": MOD_B_OK}]),
    _line(id=10, op="check", modules=[{"source": MOD_A},
                                      {"source": MOD_B_BAD}]),
    _line(id=11, op="eval", source="f :: Int -> Int\nf x = x\nbad = f 'c'",
          expr="1"),
    "this is not json",
    "[1, 2, 3]",
    _line(id=14, op="frobnicate"),
    _line(id=15),
    _line(id=16, op="eval", program=HANDLE, expr="1 + 1",
          step_limit=10_000_000),
    _line(id=17, op="eval", program=HANDLE, expr="1 + 1",
          max_depth=100_000_000),
    _line(id=18, op="eval", program=HANDLE, expr="1 + 1", timeout=3600.0),
    _line(id=19, op="eval", program="feedface" * 8, expr="1"),
    _line(id=20, op="stats"),
    _line(id=21, op="shutdown"),
]

#: backend name -> server_shards
BACKENDS = {"inproc": 0, "shards2": 2}
TRANSPORTS = ("tcp", "stdio")
RUNS = [f"{backend}/{transport}"
        for backend in BACKENDS for transport in TRANSPORTS]

MASK = "<masked>"
#: keys whose values vary from run to run
_VOLATILE = {"ms", "pid", "uptime_s"}


def options(shards: int = 0):
    """The server configuration the golden is recorded under.  Lint is
    pinned so that REPRO_LINT in the environment does not move program
    handles or phase listings; the step ceiling is set so the script
    can exceed it."""
    from repro.options import CompilerOptions
    return CompilerOptions(lint=False, cache_dir="",
                           eval_step_limit=1_000_000, request_timeout=30.0,
                           server_shards=shards)


def mask(value: Any) -> Any:
    """*value* with timings, pids and latency numbers replaced by
    ``MASK`` (latency summaries keep their ``count``)."""
    if isinstance(value, dict):
        return {key: MASK if key in _VOLATILE or key.endswith("_ms")
                else mask(item) for key, item in value.items()}
    if isinstance(value, list):
        return [mask(item) for item in value]
    return value


class _Exchange:
    """Feeds script lines one at a time, each after the previous
    line's reply arrived, substituting the program handle."""

    def __init__(self, lines: List[str]) -> None:
        self.lines = lines
        self.replies: List[Dict[str, Any]] = []
        self.handle = HANDLE

    def next_lines(self) -> Iterator[str]:
        for line in self.lines:
            yield line.replace(HANDLE, self.handle)

    def got(self, reply: Dict[str, Any]) -> None:
        self.replies.append(reply)
        result = reply.get("result")
        if self.handle == HANDLE and isinstance(result, dict) \
                and "program" in result:
            self.handle = result["program"]


def _run_tcp(server, exchange: _Exchange) -> None:
    port = server.start()
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock, \
            sock.makefile("rb") as reader:
        for line in exchange.next_lines():
            sock.sendall((line + "\n").encode("utf-8"))
            raw = reader.readline()
            if not raw:
                raise ConnectionError(f"no reply to {line!r}")
            exchange.got(json.loads(raw))
    server.wait(30)


class _Collector:
    """A stdout stand-in that parses each written line as a reply."""

    def __init__(self) -> None:
        self.replies: "queue.Queue[Dict[str, Any]]" = queue.Queue()
        self._partial = ""
        self._lock = threading.Lock()

    def write(self, text: str) -> int:
        with self._lock:
            self._partial += text
            *done, self._partial = self._partial.split("\n")
        for line in done:
            if line.strip():
                self.replies.put(json.loads(line))
        return len(text)

    def flush(self) -> None:
        pass


def _run_stdio(server, exchange: _Exchange) -> None:
    out = _Collector()

    def stdin() -> Iterator[bytes]:
        lines = list(exchange.lines)
        for i, line in enumerate(exchange.next_lines()):
            yield (line + "\n").encode("utf-8")
            if i < len(lines) - 1:
                exchange.got(out.replies.get(timeout=60))

    server.serve_stdio(stdin=stdin(), stdout=out)
    exchange.got(out.replies.get(timeout=60))
    server.stop()


def run_script(run: str, lines: List[str] = SCRIPT) -> List[Dict[str, Any]]:
    """Send *lines* through one ``backend/transport`` run; returns the
    masked replies in script order."""
    from repro.service.server import CompileServer
    backend, transport = run.split("/")
    server = CompileServer(options=options(BACKENDS[backend]))
    exchange = _Exchange(lines)
    try:
        (_run_tcp if transport == "tcp" else _run_stdio)(server, exchange)
    finally:
        server.stop()
    return [mask(reply) for reply in exchange.replies]


def records(run: str) -> List[Dict[str, Any]]:
    """The golden lines of one run."""
    return [{"run": run, "seq": seq, "request": line, "response": reply}
            for seq, (line, reply) in enumerate(zip(SCRIPT,
                                                    run_script(run)))]


def regen() -> None:
    out = []
    for run in RUNS:
        rows = records(run)
        assert len(rows) == len(SCRIPT), (run, len(rows))
        out.extend(json.dumps(row, sort_keys=True) for row in rows)
        print(f"{run}: {len(rows)} replies")
    GOLDEN.write_text("\n".join(out) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]
                           / "src"))
    regen()
