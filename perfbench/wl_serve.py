"""``serve``: ``python -m repro serve`` with default options, in its own
process, driven open-loop (Poisson arrivals at fixed mean rates) from
this process over two connections.

The mix is mostly memo-hit ``eval``s by handle; the rest are new
expressions, ``typeof``s, ``compile``s of edited sources and ``check``s
of an edited module set.  Memo hits set the median and the misses set
the tail and the capacity.  Latency is timed from each request's
scheduled send time, so a stall also counts against the requests that
queue behind it.
"""

from __future__ import annotations

import json
import math
import os
import random
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (BenchError, HostClock, Outcome, child_env, median,
                    metric, percentile, tail)
from programs import module_set

NAME = "serve"
ROOT_LAYER = "service"

#: the request mix as a fixed cycle of 200 slots: (kind, every, offset);
#: a fixed cycle keeps the share of each kind identical in every run
SCHEDULE = (("compile", 100, 0), ("check", 200, 50), ("new", 25, 7),
            ("typeof", 100, 13))
NOMINAL_RPS = 200.0
#: p99 latency limit for the capacity search, ms
P99_LIMIT_MS = 200.0
#: offered rates of the capacity search, each held STEP_SECONDS; rungs
#: are at most 12% apart (finer than any bound) and the same every run
LADDER = (250.0, 280.0, 315.0, 350.0, 390.0, 435.0, 485.0, 540.0, 600.0,
          670.0, 750.0)
STEP_SECONDS = 2.0
CONNECTIONS = 2
MIN_SAMPLES = 1100  # at least ten beyond p99


def chain_source(adds: List[int], x0: int) -> str:
    lines = ["f0 :: Num a => a -> a", "f0 x = x + x"]
    for i in range(1, len(adds)):
        lines += [f"f{i} :: Num a => a -> a",
                  f"f{i} x = f{i - 1} (x + {adds[i]})"]
    lines += ["process :: Eq a => [a] -> Int", "process [] = 0",
              "process (x:xs) = (if member [x] [[x], []] then 1 else 0)"
              " + process xs",
              "main :: Int", f"main = f{len(adds) - 1} {x0}"]
    return "\n".join(lines) + "\n"


def chain_value(adds: List[int], i: int, x: int) -> int:
    return 2 * (x + sum(adds[1:i + 1]))


class Inputs:
    """The served program, its expressions with reference values, and
    the module set that ``check`` requests edit."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.rng = rng
        self.adds = [rng.randint(1, 9) for _ in range(16)]
        self.source = chain_source(self.adds, rng.randint(1, 9))
        self.hits: List[Tuple[str, str]] = []
        for i in rng.sample(range(16), 12):
            x = rng.randint(1, 99)
            self.hits.append((f"f{i} {x}", str(chain_value(self.adds, i, x))))
        for m in rng.sample(range(3, 12), 4):
            self.hits.append((f"process (enumFromTo 1 {m})", str(m)))
        self.types = [("f3", "Num a => a -> a"),
                      ("process", "Eq a => [a] -> Int"),
                      ("main", "Int")]
        self.modules = module_set(seed, n_data=1, n_mid=3)
        self.counter = 0

    def request(self, kind: str, handle: str
                ) -> Tuple[Dict[str, Any], Callable[[Dict[str, Any]], bool]]:
        """A request of *kind* and the check its response must pass."""
        rng = self.rng
        self.counter += 1
        if kind == "hit":
            expr, want = self.hits[rng.randrange(len(self.hits))]
            return ({"op": "eval", "program": handle, "expr": expr},
                    lambda r: r["result"]["value"] == want)
        if kind == "new":
            i, x = rng.randrange(16), 1000 + self.counter
            want = str(chain_value(self.adds, i, x))
            return ({"op": "eval", "program": handle, "expr": f"f{i} {x}"},
                    lambda r: r["result"]["value"] == want)
        if kind == "typeof":
            expr, want = self.types[rng.randrange(len(self.types))]
            return ({"op": "typeof", "program": handle, "expr": expr},
                    lambda r: r["result"]["type"] == want)
        if kind == "compile":
            source = chain_source(self.adds, 1000 + self.counter)
            return ({"op": "compile", "source": source},
                    lambda r: r["result"]["schemes"]["main"] == "Int"
                    and r["result"]["cached"] is False)
        mods = self.modules
        name = rng.choice(sorted(mods.mids))
        saved = mods.mids[name]["body"]
        mods.mids[name]["body"] = 1000 + self.counter
        specs = [{"name": n, "source": s} for n, s in mods.specs()]
        mods.mids[name]["body"] = saved
        return ({"op": "check", "modules": specs},
                lambda r: r["result"]["ok"] is True and r["result"]["check"][
                    "modules"][name]["status"] == "checked")


def prepare(seed: int) -> Inputs:
    return Inputs(seed)


# --------------------------------------------------------------------------
# The server process
# --------------------------------------------------------------------------


class Server:
    """``python -m repro serve`` in a child process.  Set-up time runs
    from the spawn until the first ``compile`` is answered."""

    def __init__(self, inputs: Inputs) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            line = self.proc.stderr.readline()
            if "listening on" not in line:
                raise BenchError(f"server did not start: {line!r}")
            host, port = line.split("listening on ")[1].split()[0] \
                .rsplit(":", 1)
            self.address = (host, int(port))
            self._drain = threading.Thread(target=self.proc.stderr.read,
                                           daemon=True)
            self._drain.start()
            reply = self.call({"op": "compile", "source": inputs.source})
            if not reply.get("ok"):
                raise BenchError(f"first compile failed: {reply}")
            self.handle = reply["result"]["program"]
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request on a fresh connection, waiting for its reply."""
        with socket.create_connection(self.address, timeout=60) as sock:
            sock.sendall((json.dumps(dict(request, id=0)) + "\n").encode())
            with sock.makefile("rb") as reader:
                return json.loads(reader.readline())

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.call({"op": "shutdown"})
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(15)  # the pipe closes when the server exits
        self.proc.stderr.close()


# --------------------------------------------------------------------------
# The open-loop generator
# --------------------------------------------------------------------------


class Phase:
    """One open-loop phase at a fixed rate: requests are sent at their
    scheduled times whatever the replies are doing."""

    def __init__(self, server: Server, inputs: Inputs, rate: float,
                 n: int, kinds: List[str], rng: random.Random) -> None:
        self.server = server
        # Independent clients: Poisson arrivals at the offered rate.
        self.offsets = []
        t = 0.0
        for _ in range(n):
            self.offsets.append(t)
            t += rng.expovariate(rate)
        self.requests = [inputs.request(kind, server.handle)
                         for kind in kinds[:n]]
        self.kinds = kinds[:n]
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done = [0.0] * n
        self.replies: List[Optional[Dict[str, Any]]] = [None] * n

    def run(self, timeout: float = 60.0) -> None:
        socks = [socket.create_connection(self.server.address, timeout=timeout)
                 for _ in range(CONNECTIONS)]
        for s in socks:
            # a request goes out as soon as it is due, not when the
            # previous one on the connection has been acknowledged
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        readers = [threading.Thread(target=self._read, args=(s, k),
                                    daemon=True)
                   for k, s in enumerate(socks)]
        for t in readers:
            t.start()
        payloads = [(json.dumps(dict(req, id=i)) + "\n").encode()
                    for i, (req, _check) in enumerate(self.requests)]
        start = time.perf_counter() + 0.05
        try:
            for i, payload in enumerate(payloads):
                due = start + self.offsets[i]
                self.due[i] = due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.sent[i] = time.perf_counter()
                socks[i % CONNECTIONS].sendall(payload)
            deadline = time.perf_counter() + timeout
            for t in readers:
                t.join(max(0.0, deadline - time.perf_counter()))
        finally:
            for s in socks:
                try:
                    s.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                s.close()
            for t in readers:
                t.join(5)

    def _read(self, sock: socket.socket, index: int) -> None:
        pending = len(range(index, len(self.requests), CONNECTIONS))
        with sock.makefile("rb") as reader:
            while pending:
                try:
                    raw = reader.readline()
                except OSError:
                    return
                if not raw:
                    return
                now = time.perf_counter()
                reply = json.loads(raw)
                i = reply.get("id")
                if not isinstance(i, int) or not 0 <= i < len(self.done):
                    continue  # not an answer to one of ours: judged missing
                self.done[i] = now
                self.replies[i] = reply
                pending -= 1

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [(self.done[i] - self.due[i]) * 1e3
                for i in range(len(self.requests))
                if self.replies[i] is not None
                and (kind is None or self.kinds[i] == kind)]

    def judge(self, outcome: Optional[Outcome]) -> bool:
        """Check every reply; False when any failed or is missing."""
        ok = True
        for i, (req, check) in enumerate(self.requests):
            reply = self.replies[i]
            try:
                good = reply is not None and reply.get("ok") is True \
                    and check(reply)
            except (KeyError, TypeError):
                good = False
            if outcome is not None:
                outcome.check(good, f"{req['op']} #{i}: {str(reply)[:200]}")
            ok = ok and good
        return ok

    def backlog_grows(self) -> bool:
        """Latency still rising at the end: the last fifth's median well
        above the second fifth's (the first fifth is skipped: the server
        settles into its steady state during it)."""
        lat = [(self.done[i] - self.due[i]) * 1e3
               if self.replies[i] is not None else float("inf")
               for i in range(len(self.requests))]
        k = max(len(lat) // 5, 1)
        return median(lat[-k:]) > 1.5 * median(lat[k:2 * k]) + 10.0


class Workload:
    NAME = NAME
    MIN_ROUNDS = MAX_ROUNDS = 1

    def __init__(self, server: Server, inputs: Inputs, seed: int,
                 outcome: Outcome) -> None:
        self.server = server
        self.inputs = inputs
        self.seed = seed
        self.outcome = outcome
        cycle = ["hit"] * 200
        for kind, every, offset in SCHEDULE:
            for slot in range(offset, 200, every):
                cycle[slot] = kind
        self.cycle = cycle
        self.rng = random.Random(seed)
        self.cursor = self.rng.randrange(200)
        self.nominal: Optional[Phase] = None
        self.cpu_s = 0.0
        self.capacity = 0.0
        self.clock = HostClock()
        self.search: List[Tuple[float, float, bool]] = []
        self.seconds = 20.0

    def phase(self, rate: float, seconds: float,
              min_samples: int = MIN_SAMPLES) -> Phase:
        n = max(int(rate * seconds), min_samples)
        kinds = [self.cycle[(self.cursor + i) % 200] for i in range(n)]
        self.cursor = (self.cursor + n) % 200
        p = Phase(self.server, self.inputs, rate, n, kinds, self.rng)
        p.run()
        return p

    def warmup(self) -> None:
        """Put every memo-hit expression and typeof in the memo, then a
        short phase at the nominal rate."""
        for expr, want in self.inputs.hits:
            reply = self.server.call({"op": "eval", "program":
                                      self.server.handle, "expr": expr})
            self.outcome.check(reply.get("ok") is True and
                               reply["result"]["value"] == want,
                               f"warm-up eval {expr}: {reply}")
        warm = self.phase(NOMINAL_RPS, 2.0, min_samples=0)
        warm.judge(self.outcome)

    def round(self, _r: int) -> List[float]:
        """The nominal phase; the server's CPU time over it gives the
        rate the mix can be served at when nothing queues.  The host
        clock is sampled just before and after, while the server idles
        (sampling during the phase would compete with the generator)."""
        self.sample_clock()
        cpu0 = self.server.cpu_seconds()
        self.nominal = self.phase(NOMINAL_RPS, self.seconds)
        self.cpu_s = self.server.cpu_seconds() - cpu0
        self.sample_clock()
        self.nominal.judge(self.outcome)
        return self.nominal.latencies()

    def sample_clock(self, n: int = 25) -> None:
        for _ in range(n):
            self.clock.sample()

    def step_p99(self, rate: float) -> float:
        """One search step: the p99 over the step's samples (a pass/fail
        test, not a reported tail), infinite when a request failed or
        the backlog grew."""
        p = self.phase(rate, STEP_SECONDS, min_samples=0)
        ok = p.judge(None) and len(p.latencies()) == len(p.requests) \
            and not p.backlog_grows()
        p99 = percentile(p.latencies(), 0.99) if ok else float("inf")
        self.search.append((rate, p99, p99 <= P99_LIMIT_MS))
        return p99

    def find_capacity(self) -> float:
        """The highest offered rate whose p99 stays within the limit
        with no growing backlog.  Rates climb the ladder until one
        misses the limit; the answer interpolates log p99 between that
        rung and the last one that met it, so it is not quantised to
        the ladder.  0 when the nominal rate itself misses the limit."""
        lat = self.nominal.latencies()
        lo, a = NOMINAL_RPS, tail(lat, 0.99)
        if a > P99_LIMIT_MS or self.nominal.backlog_grows():
            return 0.0
        for rate in LADDER:
            b = self.step_p99(rate)
            if b > P99_LIMIT_MS:
                if b == float("inf"):
                    return lo
                frac = math.log(P99_LIMIT_MS / a) / math.log(b / a)
                return lo * (rate / lo) ** frac
            lo, a = rate, b
        return lo

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        self.server.stop()

    # ------------------------------------------------------------ results

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        lat = self.nominal.latencies()
        k = self.clock.factor()
        return {
            "m1_ms": metric(k * median(lat), "ms"),
            "m2_ms": metric(k * tail(lat, 0.9), "ms"),
            "m3_ms": metric(k * median(self.nominal.latencies("new")), "ms"),
            "rate_per_s": metric(len(lat) / self.cpu_s / k, "1/s"),
        }

    def report(self) -> List[str]:
        if self.nominal is None:
            return []
        lat = self.nominal.latencies()
        lines = [f"serve_ms.p50         {median(lat):10.3f} ms raw  (m1_ms)",
                 f"serve_ms.p90         {tail(lat, 0.9):10.3f} ms raw (m2_ms)",
                 f"eval_miss_ms.p50     "
                 f"{median(self.nominal.latencies('new')):10.3f} ms raw"
                 f"  (m3_ms)",
                 f"served_per_cpu_s     "
                 f"{len(lat) / self.cpu_s:10.1f} req/s raw"
                 f"  (rate_per_s)",
                 f"host_factor          {self.clock.factor():10.4f}",
                 f"serve_ms.p99         {tail(lat, 0.99):10.3f} ms",
                 f"compile_miss_ms.p50  "
                 f"{median(self.nominal.latencies('compile')):10.3f} ms",
                 f"samples              {len(lat)} requests at "
                 f"{NOMINAL_RPS:.0f} req/s"]
        if self.search:
            lines.append(f"serve_capacity_rps   {self.capacity:10.1f} req/s")
        for rate, p99, good in self.search:
            lines.append(f"  offered {rate:7.1f} req/s  p99 {p99:9.2f} ms  "
                         f"{'ok' if good else 'over'}")
        return lines

    # ------------------------------------------------------------ tracing

    def trace_values(self, tracer_cls) -> Dict[str, float]:
        return {}

    def traced_round(self, tracer) -> Dict[str, float]:
        """The nominal phase with a span per client request, the
        server's own ``stats``, then the capacity search."""
        self.round(0)
        p = self.nominal
        self.capacity = self.find_capacity()
        for i in range(len(p.requests)):
            if p.replies[i] is not None:
                tracer.add_root("service.request", p.due[i], p.done[i])
        stats = self.server.call({"op": "stats"})["result"]["server"]
        counters = stats["counters"]

        def ratio(hit: str, miss: str) -> float:
            h, m = counters.get(hit, 0), counters.get(miss, 0)
            return h / (h + m) if h + m else 0.0

        hit_p50 = median(p.latencies("hit"))
        handler = stats["latency"]["eval"]["p50_ms"]
        lag = [(p.sent[i] - p.due[i]) * 1e3 for i in range(len(p.requests))]
        return {
            "service.hit_ms.p50": hit_p50,
            "service.miss_ms.p50": median(p.latencies("compile")),
            "service.handler_ms.p50": handler,
            "service.transport_ms.p50": hit_p50 - handler,
            "service.memo_hit_ratio": ratio("expr_cache_hits",
                                            "expr_cache_misses"),
            "service.cache_hit_ratio": ratio("cache_hits", "cache_misses"),
            "service.fastpath_hits": counters.get("fastpath_hits", 0),
            "service.shed": counters.get("shed_total", 0),
            "service.generator_lag_ms.p99": percentile(lag, 0.99),
            "service.p99_ms": tail(p.latencies(), 0.99),
            "service.capacity_rps": self.capacity,
        }
