"""``build``: ``ModuleBuilder`` over a seeded DAG of 25 modules.

Classes, instances and overloaded exports cross module edges, so the
link-time specializer clones.  Each cycle does a cold build on an
empty cache, body edits (the artifact cache's hit path: one module
recompiles), one surface edit (the miss path: the module and its
dependents recompile) and warm ``check``s after body edits.  Every edit
writes content no earlier build saw.
"""

from __future__ import annotations

import copy
import os
import random
import shutil
import tempfile
import time
from typing import Any, Dict, List, Tuple

from common import (HostClock, collect, Outcome, median, metric, peak_rss_mb,
                    pinned_options)
from programs import ModuleSet, module_set

NAME = "build"
ROOT_LAYER = "modules"
BODY_EDITS = 3
CHECKS = 3
RI_ROOT = os.path.join("perfbench", "out")


def prepare(seed: int) -> ModuleSet:
    return module_set(seed)


def setup(_inputs: Any) -> Dict[str, Any]:
    """Import plus the prelude snapshot."""
    from repro.service.snapshot import PreludeSnapshot
    options = pinned_options()
    return {"options": options, "snapshot": PreludeSnapshot.build(options)}


class Workload:
    NAME = NAME
    MIN_ROUNDS = 10

    def __init__(self, state: Dict[str, Any], modules: ModuleSet, seed: int,
                 outcome: Outcome) -> None:
        self.options = state["options"]
        self.snapshot = state["snapshot"]
        self.original = modules
        self.seed = seed
        self.outcome = outcome
        self.rng = random.Random(seed)
        self.edits = 0
        #: ModuleBuilder jobs: never more than the machine's processors
        self.jobs = min(os.cpu_count() or 1, 4)
        #: (ms, host clock mark) of each timed operation
        self.cold_ms: List[Tuple[float, int]] = []
        self.rebuild_ms: List[Tuple[float, int]] = []
        self.check_ms: List[Tuple[float, int]] = []
        self.surface_ms: List[Tuple[float, int]] = []
        self.clock = HostClock()
        #: set by a traced run, so GC figures leave out our collections
        self.gc_monitor = None
        os.makedirs(RI_ROOT, exist_ok=True)
        self.ri_dir = ""

    # ------------------------------------------------------------ steps

    def graph(self, modules: ModuleSet):
        from repro.modules import resolve
        return resolve.scan_inline_modules(modules.specs())

    def timed_build(self, builder, modules: ModuleSet, op: str):
        # the previous step's young garbage, collected untimed
        collect(1, self.gc_monitor)
        t0 = time.perf_counter()
        with self.op(op):
            result = builder.build(self.graph(modules), jobs=self.jobs,
                                   out_dir=self.ri_dir)
        return (time.perf_counter() - t0) * 1e3, result

    def check_build(self, result, modules: ModuleSet, expect: List[str],
                    what: str) -> bool:
        from repro import ReproError
        recompiled = sorted(name for name, info in result.modules.items()
                            if not info["cached"])
        try:
            value = result.program.run("main")
        except ReproError as exc:
            value = exc
        return self.outcome.check(
            recompiled == sorted(expect) and value == modules.value(),
            f"{what}: recompiled {recompiled}, main = {value!r}")

    def body_edit(self, modules: ModuleSet) -> str:
        name = self.rng.choice(sorted(modules.mids))
        self.edits += 1
        modules.mids[name]["body"] = 1000 + self.edits
        return name

    def cycle(self) -> "tuple[List[float], Dict[str, float]]":
        """One cold build, body-edit rebuilds, a surface edit and warm
        checks; returns the operation times and the cycle's counts."""
        from repro.modules.build import ModuleBuilder
        from repro.service.cache import CompileCache
        if self.ri_dir:
            shutil.rmtree(self.ri_dir, ignore_errors=True)
        self.ri_dir = tempfile.mkdtemp(prefix="ri-", dir=RI_ROOT)
        modules = copy.deepcopy(self.original)
        builder = ModuleBuilder(self.options, self.snapshot,
                                CompileCache(capacity=max(
                                    self.options.cache_size, 1)))
        counts = {"compiled": 0, "cached": 0, "recompiled": 0}
        times: List[float] = []

        def tally(result) -> int:
            n = result.n_compiled
            counts["compiled"] += n
            counts["cached"] += result.n_cached
            return n

        ms, result = self.timed_build(builder, modules, "modules.cold")
        tally(result)
        counts["clones"] = result.program.compile_stats.phases.counters(
            "specialize-xmodule").get("clones", 0)
        if self.check_build(result, modules, modules.order, "cold build"):
            self.cold_ms.append((ms, self.clock.mark()))
        times.append(ms)
        for _ in range(BODY_EDITS):
            name = self.body_edit(modules)
            self.clock.sample()
            ms, result = self.timed_build(builder, modules, "modules.rebuild")
            counts["recompiled"] += tally(result)
            if self.check_build(result, modules, [name], f"body edit {name}"):
                self.rebuild_ms.append((ms, self.clock.mark()))
            times.append(ms)
        self.clock.sample()
        name = self.rng.choice(sorted(modules.mids))
        self.edits += 1
        modules.extras.setdefault(name, []).append(self.edits)
        ms, result = self.timed_build(builder, modules, "modules.surface")
        counts["recompiled"] += tally(result)
        if self.check_build(result, modules, [name] + modules.dependents(name),
                            f"surface edit {name}"):
            self.surface_ms.append((ms, self.clock.mark()))
        times.append(ms)
        for _ in range(CHECKS):
            self.clock.sample()
            name = self.body_edit(modules)
            graph = self.graph(modules)
            collect(1, self.gc_monitor)
            t0 = time.perf_counter()
            with self.op("modules.checkop"):
                checked = builder.check(graph)
            ms = (time.perf_counter() - t0) * 1e3
            stats = checked.stats()
            counts["compiled"] += stats["n_checked"]
            counts["cached"] += stats["n_cached"]
            fresh = sorted(m for m, info in checked.modules.items()
                           if info["status"] == "checked")
            if self.outcome.check(checked.ok and fresh == [name],
                                  f"check after editing {name}: {fresh}"):
                self.check_ms.append((ms, self.clock.mark()))
            times.append(ms)
        return times, counts

    def round(self, _r: int) -> List[float]:
        times, _counts = self.cycle()
        return times

    def warmup(self) -> None:
        from contextlib import nullcontext
        self.op = lambda _name: nullcontext()
        self.round(0)
        for xs in (self.cold_ms, self.rebuild_ms, self.check_ms,
                   self.surface_ms, self.clock.samples):
            xs.clear()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        if self.ri_dir:
            shutil.rmtree(self.ri_dir, ignore_errors=True)

    # ------------------------------------------------------------ results

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        n = len(self.original.order)
        cold = self.clock.scaled(self.cold_ms)
        return {
            "m1_ms": metric(median(cold), "ms"),
            "m2_ms": metric(median(self.clock.scaled(self.rebuild_ms)), "ms"),
            "m3_ms": metric(median(self.clock.scaled(self.check_ms)), "ms"),
            "rate_per_s": metric(1e3 * n * len(cold) / sum(cold), "1/s"),
        }

    def report(self) -> List[str]:
        if not self.cold_ms:
            return []

        def raw(timed: List[Tuple[float, int]]) -> float:
            return median([ms for ms, _mark in timed])

        return [f"build_cold_ms.p50  {raw(self.cold_ms):10.3f} ms raw (m1_ms)",
                f"rebuild_ms.p50     {raw(self.rebuild_ms):10.3f} ms raw"
                f" (m2_ms)",
                f"check_ms.p50       {raw(self.check_ms):10.3f} ms raw"
                f" (m3_ms)",
                f"host_factor        {self.clock.factor():10.4f}",
                f"surface_ms.p50     {raw(self.surface_ms):10.3f} ms raw",
                f"samples            {len(self.cold_ms)} cycles of "
                f"{len(self.original.order)} modules, jobs={self.jobs}"]

    # ------------------------------------------------------------ tracing

    def trace_values(self, tracer_cls) -> Dict[str, float]:
        """Counts of one build cycle (the cycle's edits are seeded, so a
        fresh generator replays the same cycle)."""
        from contextlib import nullcontext
        self.op = lambda _name: nullcontext()
        saved = self.rng, self.edits
        self.rng = random.Random(self.seed)
        _times, counts = self.cycle()
        self.rng, self.edits = saved
        tracer = tracer_cls()
        with tracer.installed():
            with tracer.op("service.setup"):
                setup(None)
        return {
            "modules.compiled": counts["compiled"],
            "modules.recompiled": counts["recompiled"],
            "modules.cache_hit_ratio":
                counts["cached"] / (counts["cached"] + counts["compiled"]),
            "specialize.clones": counts["clones"],
            "service.snapshot_build_s": sum(
                end - start for _i, name, start, end, _p, _o in tracer.spans
                if name == "service.snapshot_build"),
        }
