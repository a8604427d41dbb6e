"""The repository's benchmark: one workload per run, end-to-end metrics
untraced or per-layer metrics traced.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The lines before it print the workload's figures under their own names
(``compile_ms.p50`` ...), raw and unscaled, and record the
configuration.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (BenchError, GcMonitor, HostClock, Outcome,  # noqa: E402
                    bootstrap, collect, median, metric, run_record,
                    setup_probe)

#: fresh-process set-up samples per run (their median is ``setup_s``)
SETUP_SAMPLES = {"compile": 5, "build": 5, "run": 3, "serve": 3}

OUT_DIR = os.path.join("perfbench", "out")


def measure_setup(name: str, wl, seed: int, inputs
                  ) -> "tuple[Any, float, float]":
    """Set up in fresh processes and once in this one (the state this
    run uses); the first probe only warms the bytecode caches.  Returns
    the state, the median set-up seconds scaled by the host clock
    sampled between the set-ups, and the raw median."""
    clock = HostClock()

    def settle() -> None:
        for _ in range(HostClock.WINDOW):
            clock.sample()

    timed = []
    if name == "serve":
        for i in range(SETUP_SAMPLES[name] + 1):
            settle()
            state = wl.Server(inputs)
            if i:
                timed.append((state.setup_s, clock.mark()))
            if i < SETUP_SAMPLES[name]:
                state.stop()
    else:
        setup_probe(name, seed)
        for _ in range(SETUP_SAMPLES[name] - 1):
            settle()
            timed.append((setup_probe(name, seed), clock.mark()))
        settle()
        t0 = time.perf_counter()
        state = wl.setup(inputs)
        timed.append((time.perf_counter() - t0, clock.mark()))
    settle()
    return (state, median(clock.scaled(timed)),
            median([s for s, _mark in timed]))


def untraced(work, seconds: float) -> None:
    """Rounds until *seconds* have passed.  Each round starts from a full
    collection (untimed): the garbage collector stays enabled and its
    pauses stay in the times, but they fall on the same operations in
    every round and every run instead of wherever earlier garbage
    happened to tip them."""
    work.op = lambda _name: nullcontext()
    deadline = time.perf_counter() + seconds
    r = 0
    limit = getattr(work, "MAX_ROUNDS", None)
    while r < work.MIN_ROUNDS or (time.perf_counter() < deadline
                                  and (limit is None or r < limit)):
        collect(2)
        work.round(r)
        r += 1


def traced(work, seconds: float, root_layer: str) -> Dict[str, Any]:
    """Alternate untraced and traced rounds (so host drift hits both
    alike); the difference of their mean operation times is the
    tracing overhead."""
    from layers import assemble
    from tracer import Tracer
    tracer = Tracer()
    values = work.trace_values(Tracer)
    if hasattr(work, "traced_round"):
        values.update(work.traced_round(tracer))
        return assemble(tracer, root_layer, values, [], [])
    plain_ms: List[float] = []
    traced_ms: List[float] = []
    deadline = time.perf_counter() + seconds
    r = 0
    with GcMonitor() as monitor:
        work.gc_monitor = monitor
        while r < 2 or time.perf_counter() < deadline:
            collect(2, monitor)
            if r % 2:
                work.op = tracer.op
                with tracer.installed():
                    traced_ms.extend(work.round(r))
            else:
                work.op = lambda _name: nullcontext()
                plain_ms.extend(work.round(r))
            r += 1
    n_ops = len(plain_ms) + len(traced_ms)
    values["gc.gen2_collections"] = monitor.gen2 / n_ops
    values["gc.pause_ms"] = monitor.pause_s * 1e3 / n_ops
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{work.NAME}-{work.seed}.jsonl"),
                 work.record)
    metrics = assemble(tracer, root_layer, values, traced_ms, plain_ms)
    if hasattr(work, "finish_trace"):
        work.finish_trace(metrics)
    return metrics


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile", "run", "build", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the serve workload's server
    # is stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        bootstrap()
        from workloads import load
        wl = load(args.workload)
        inputs = wl.prepare(args.seed)
        state, setup_s, setup_raw = measure_setup(args.workload, wl,
                                                  args.seed, inputs)
        outcome = Outcome()
        from common import pinned_options
        work = wl.Workload(state, inputs, args.seed, outcome)
        work.seconds = args.seconds
        work.record = run_record(args.workload, args.seed, args.seconds,
                                 bool(args.trace), pinned_options())
        try:
            work.warmup()
            gc.collect()
            if args.trace:
                metrics = traced(work, args.seconds, wl.ROOT_LAYER)
                report = []
            else:
                untraced(work, args.seconds)
                metrics = work.metrics()
                metrics["setup_s"] = metric(setup_s, "s")
                metrics["peak_rss_mb"] = metric(work.peak_rss_mb(), "MB")
                report = work.report()
        finally:
            work.close()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    if not args.trace:
        print(f"setup_s           {setup_raw:10.4f} s raw")
    print("record " + json.dumps(work.record, sort_keys=True))
    for error in outcome.errors:
        print(f"FAILED: {error}")
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
