"""Protocol fuzzing: seeded request lines through the compile server.

One burst of lines — valid requests, malformed and non-object JSON,
wrong field types, huge and odd ids, limit breaches, runaway evals
with short timeouts, and a ``shutdown`` pipelined into the middle —
goes to each backend (in-process and a 2-shard fleet) over each
transport (TCP and stdio).  While the burst runs, a racer kills
random shards, so timeouts race worker crashes.  The invariant:

    every line before the ``shutdown`` gets exactly one reply, a
    well-formed envelope whose error (if any) carries a stable
    ``code``; no exception escapes the server as an ``internal``
    error.
"""

from __future__ import annotations

import io
import json
import random
import socket
import threading
from typing import Any, Dict, List, Tuple

SOURCES = [
    "main = 1",
    "double x = x + x\nmain = double 21",
    "class Sized a where\n  size :: a -> Int\n"
    "instance Sized Bool where\n  size b = 1\nmain = size True",
    "f :: Int -> Int\nf x = x\nbad = f 'c'",
    "main = (((",
]
EXPRS = ["main", "1 + 2", "double 4", "size False", "head []",
         "length True", "undefinedName", "\\x -> x"]
MODULES = [
    [{"source": "module A (inc) where\ninc :: Int -> Int\ninc x = x + 1\n"},
     {"source": "module B (f) where\nimport A\nf = inc 3\n"}],
    [{"source": "module A (inc) where\ninc :: Int -> Int\ninc x = x + 1\n"},
     {"source": "module B (f) where\nimport A\nf = inc 'c'\n"}],
]
#: values of the wrong type for any field
WRONG = [5, -1, 3.5, None, True, [], {}, [1, "a"], {"x": 1}, "",
         "\u0000", 10 ** 30]
#: ids a client might send
ODD_IDS = [10 ** 40, -10 ** 40, 1.5e308, "x" * 2000, [1, 2],
           {"nested": {"id": 1}}, True, None, ""]
#: a runaway eval: times out, and its step limit ends the thread the
#: in-process backend cannot kill
RUNAWAY = {"op": "eval", "source": "main = 1",
           "expr": "length (enumFromTo 1 100000000)",
           "step_limit": 300_000, "timeout": 0.2}
#: lines that strain the decoder, each sent once per burst: nesting
#: past the decoder's recursion limit, a deep id that could be neither
#: pickled to a worker nor echoed back, an integer past Python's digit
#: limit
HOSTILE = [
    b"[" * 1_100_000 + b"]" * 1_100_000,
    b'{"op": "ping", "id": ' + b"[" * 400_000 + b"]" * 400_000 + b"}",
    b'{"op": "eval", "source": "main = 1", "expr": "main", "id": '
    + b"[" * 400_000 + b"]" * 400_000 + b"}",
    b'{"op": "ping", "id": ' + b"9" * 5000 + b"}",
]


class LineGen:
    """Seeded request lines (bytes, without the newline)."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def valid(self) -> Dict[str, Any]:
        rng = self.rng
        op = rng.choice(["compile", "eval", "eval", "eval", "typeof",
                         "info", "check", "build", "ping", "stats"])
        request: Dict[str, Any] = {"op": op}
        if op in ("compile", "eval", "typeof", "info"):
            request["source"] = rng.choice(SOURCES)
        if op in ("eval", "typeof"):
            request["expr"] = rng.choice(EXPRS)
        if op == "info":
            request["name"] = rng.choice(["main", "double", "size", "x"])
            request["kinds"] = rng.random() < 0.3
        if op in ("check", "build"):
            request["modules"] = rng.choice(MODULES)
        return request

    def line(self, seq: int) -> Tuple[bytes, Any]:
        """One line and the id it carries (None when it is not a JSON
        object)."""
        rng = self.rng
        kind = rng.random()
        request = self.valid()
        request["id"] = seq
        if kind < 0.45:
            pass
        elif kind < 0.6:  # a field of the wrong type
            field = rng.choice(sorted(request.keys() | {"expr", "program",
                                                        "timeout",
                                                        "step_limit"}))
            request[field] = rng.choice(WRONG)
        elif kind < 0.68:
            request["id"] = rng.choice(ODD_IDS)
        elif kind < 0.76:  # budgets beyond or below the ceilings
            request.update(rng.choice([
                {"timeout": 1e9}, {"step_limit": 10 ** 12},
                {"max_depth": 10 ** 12}, {"step_limit": -5},
                {"timeout": -1}, {"timeout": "soon"},
                {"max_depth": 0}]))
        elif kind < 0.84:
            request["op"] = rng.choice(["frobnicate", "", "PING",
                                        "compile_module", "type_of"])
        elif kind < 0.92:  # not JSON at all
            text = json.dumps(request)
            return rng.choice([
                text[:rng.randrange(1, len(text))].encode("utf-8"),
                b"{", b"}", b"{'op': 'ping'}", b"\xff\xfe\x00garbage",
                b"nul", "été".encode("latin-1")]), None
        else:  # JSON, but not an object
            return json.dumps(rng.choice(
                [1, -2.5, "ping", [request], None, True,
                 [[]]])).encode("utf-8"), None
        return json.dumps(request).encode("utf-8"), request["id"]

    def burst(self, count: int) -> Tuple[List[bytes], List[Any], int]:
        """*count* lines with a pipelined shutdown two thirds in and,
        before it, a few runaways and the hostile lines; returns
        ``(lines, their ids, shutdown index)``."""
        lines, ids = map(list, zip(*(self.line(seq)
                                     for seq in range(count))))
        cut = max(1, (2 * count) // 3)
        special = [json.dumps(dict(RUNAWAY, id=f"runaway{n}")).encode(
            "utf-8") for n in range(3)] + HOSTILE
        for at, line in zip(self.rng.sample(range(cut), min(cut,
                                                            len(special))),
                            special):
            lines[at], ids[at] = line, None
        lines.insert(cut, json.dumps({"id": "shutdown",
                                      "op": "shutdown"}).encode("utf-8"))
        return lines, ids[:cut], cut


def _send_tcp(server, lines: List[bytes]) -> List[Dict[str, Any]]:
    port = server.start()
    replies: List[Dict[str, Any]] = []
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock, \
            sock.makefile("rb") as reader:
        sock.sendall(b"".join(line + b"\n" for line in lines))
        for raw in reader:
            replies.append(json.loads(raw))
            if replies[-1].get("id") == "shutdown":
                break
    server.wait(60)
    return replies


def _send_stdio(server, lines: List[bytes]) -> List[Dict[str, Any]]:
    stdout = io.StringIO()
    server.serve_stdio(stdin=io.BytesIO(b"".join(line + b"\n"
                                                 for line in lines)),
                       stdout=stdout)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def _require(condition: bool, message: Any) -> None:
    if not condition:  # not ``assert``: the check must survive -O
        raise AssertionError(message)


def check_replies(ids: List[Any], cut: int,
                  replies: List[Dict[str, Any]]) -> None:
    """The invariant, given the ids sent before the shutdown; raises
    AssertionError naming the violation."""
    _require(replies and replies[-1].get("id") == "shutdown"
             and replies[-1].get("ok"),
             f"no shutdown reply last: {replies[-1:]}")
    answered = replies[:-1]
    _require(len(answered) == cut,
             f"{len(answered)} replies to the {cut} lines before shutdown")
    for reply in answered:
        _require(isinstance(reply.get("ok"), bool), reply)
        if reply["ok"]:
            _require("result" in reply, reply)
            continue
        code = reply.get("error", {}).get("code")
        _require(isinstance(code, str) and code, reply)
        _require(code != "internal", f"exception escaped: {reply}")
    unique = {i for i in ids if type(i) is int and ids.count(i) == 1}
    for request_id in unique:
        got = sum(1 for r in answered if r.get("id") == request_id)
        _require(got == 1, f"request id {request_id}: {got} replies")


def run_protocol(seed: int, count: int) -> Dict[str, int]:
    """One burst per backend and transport; returns reply-code
    counts.  Raises AssertionError on an invariant violation."""
    from repro.options import CompilerOptions
    from repro.service.server import CompileServer

    codes: Dict[str, int] = {}
    for shards in (0, 2):
        for transport in ("tcp", "stdio"):
            gen = LineGen(seed * 1000 + shards * 10 + len(transport))
            lines, ids, cut = gen.burst(count)
            server = CompileServer(options=CompilerOptions(
                server_shards=shards, request_timeout=30.0))
            racer = threading.Timer(
                gen.rng.uniform(0.05, 0.4),
                lambda: server.pool.kill_shard(
                    gen.rng.randrange(len(server.pool))))
            racer.start()
            try:
                send = _send_tcp if transport == "tcp" else _send_stdio
                replies = send(server, lines)
            finally:
                racer.cancel()
                server.stop()
            label = f"shards={shards}/{transport}"
            try:
                check_replies(ids, cut, replies)
            except AssertionError as exc:
                raise AssertionError(f"{label} (seed {seed}): {exc}") \
                    from None
            for reply in replies[:-1]:
                code = "ok" if reply["ok"] else reply["error"]["code"]
                codes[code] = codes.get(code, 0) + 1
    return codes
