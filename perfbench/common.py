"""Helpers shared by the workloads: the pinned compiler configuration,
the run record, percentiles, peak memory, the GC monitor, set-up probes
and the host clock."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The repository's source tree, relative to the checkout root (the
#: benchmark always runs from the root of a checkout).
SRC_DIR = "src"

#: Environment variables that change the compiler's configuration for a
#: whole process (the CI ``solver`` job sets both).  The benchmark
#: removes them so every run measures the default configuration.
PINNED_ENV = ("REPRO_SOLVER", "REPRO_LINT")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken input)."""


def bootstrap() -> None:
    """Make the checkout's ``src/`` importable and pin the environment.
    Raises :class:`BenchError` when the program's sources are absent."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise BenchError(
            f"no program sources under {SRC_DIR}/repro: run from the root "
            f"of a checkout of the repository")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    src = os.path.abspath(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)


def child_env() -> Dict[str, str]:
    """Environment for a child Python process running the program."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR)
    return env


def pinned_options():
    """The compiler configuration every workload measures: the defaults,
    built explicitly, with the two environment-driven fields fixed to
    their defaults and a memory-only cache."""
    from repro.options import CompilerOptions
    return CompilerOptions(solver="reduce", lint=False, cache_dir="")


def source_digest() -> str:
    """Digest of every file under ``src/`` (the commit when the checkout
    is not a git repository)."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(SRC_DIR):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: bool,
               options) -> Dict[str, Any]:
    """What every run records next to its numbers."""
    from repro.options import options_fingerprint
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "options": options_fingerprint(options),
            "commit": commit(), "src": source_digest()}


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-quantile (0 <= q <= 1)."""
    xs = sorted(values)
    if not xs:
        raise BenchError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: Sequence[float], q: float) -> float:
    """The *q*-quantile, refused unless at least ten samples lie beyond
    it (a tail read from fewer samples does not repeat)."""
    if len(values) * (1 - q) < 10:
        raise BenchError(f"p{round(q * 100)} needs {math.ceil(10 / (1 - q))}"
                         f" samples, have {len(values)}")
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def geomean(values: Iterable[float]) -> float:
    xs = list(values)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcMonitor:
    """Counts full (generation 2) collections and total GC pause time
    while installed.  GC stays enabled: the program's own allocation
    behaviour is part of what is measured.  Collections the benchmark
    makes between operations (:func:`collect`) are not counted."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.pause_s = 0.0
        self._t0 = 0.0
        self.quiet = False

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if self.quiet:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)


def collect(generation: int, monitor: Optional[GcMonitor] = None) -> None:
    """A collection the benchmark makes between timed operations, so
    that each operation starts without the garbage earlier ones left;
    kept out of *monitor*'s figures."""
    if monitor is None:
        gc.collect(generation)
        return
    monitor.quiet = True
    try:
        gc.collect(generation)
    finally:
        monitor.quiet = False


def setup_probe(workload: str, seed: int) -> float:
    """Seconds one fresh process spends setting up *workload* (one
    import per process, so the import is paid every time)."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "setup_probe.py")
    proc = subprocess.run([sys.executable, script, workload, str(seed)],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


class Outcome:
    """Operations attempted and failed; a wrong output is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


# --------------------------------------------------------------------------
# Host speed
# --------------------------------------------------------------------------

#: Median duration of :func:`reference_work` on the host the bounds in
#: BENCHMARK.json were set on (2-vCPU VM, Python 3.11); times are
#: reported in milliseconds of that host.
REFERENCE_MS = 3.6


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op: int, left: Any, right: Any, value: int) -> None:
        self.op = op
        self.left = left
        self.right = right
        self.value = value


def _tree(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node(0, None, None, k % 17)
    return _Node(depth % 3, _tree(depth - 1, 2 * k),
                 _tree(depth - 1, 2 * k + 1), k)


def _walk(node: _Node, env: Dict[str, int]) -> int:
    if node.op == 0:
        return env.get(f"v{node.value}", node.value)
    a, b = _walk(node.left, env), _walk(node.right, env)
    return a + b if node.op == 1 else (a * 3 + b) % 1000003


def reference_work() -> int:
    """Fixed pure-Python work shaped like the program's own (object
    allocation, attribute and dictionary access, recursion, sorting);
    independent of the program, so its speed is the host's."""
    env = {f"v{i}": i * i for i in range(12)}
    total = 0
    for _ in range(2):
        total += _walk(_tree(10, 1), env)
    words = sorted(str(i * 7919 % 10007) for i in range(3000))
    return total + len(words[0])


class HostClock:
    """Times :func:`reference_work` between the workload's operations.

    On a shared 2-vCPU VM the host's speed switches between states every
    few seconds and drifts by a fifth and more between runs, moving
    every timing of a run together.  Measured in 3-second windows, a
    warm compile varied by 21% while its ratio to this reference varied
    by 3%.  So each operation's time is scaled by ``REFERENCE_MS`` over
    the median of the reference samples taken around it; a change to
    the program moves its times and not the reference."""

    #: reference samples on each side of an operation that set its scale
    WINDOW = 4

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.samples.append((time.perf_counter() - t0) * 1e3)

    def mark(self) -> int:
        """Position of an operation among the samples: call it when the
        operation is timed, before the next :meth:`sample`."""
        return len(self.samples)

    def factor(self, mark: Optional[int] = None) -> float:
        """Scale for an operation at *mark*, or for the whole run."""
        if mark is None:
            return REFERENCE_MS / median(self.samples)
        lo = max(0, mark - self.WINDOW)
        return REFERENCE_MS / median(self.samples[lo:mark + self.WINDOW])

    def scaled(self, timed: Sequence["tuple[float, int]"]) -> List[float]:
        """``(ms, mark)`` pairs as host-independent milliseconds."""
        return [ms * self.factor(mark) for ms, mark in timed]
