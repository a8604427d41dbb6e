"""``compile``: warm compiles of a seeded population of class-heavy
single-file programs, one in ten of them ill-typed.

This is the compile-service and IDE path.  Small programs spend their
compile in the whole-program transforms over the prelude core, large
ones in parsing and inference, so the median and the tail load
different layers; the ill-typed share exercises the located-diagnostic
path beside the success path.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from common import (HostClock, collect, Outcome, median, metric, peak_rss_mb,
                    pinned_options, tail)
from programs import Program, compile_population

NAME = "compile"
#: a compile's own wall time outside the passes is the pipeline's
ROOT_LAYER = "pipeline"


def prepare(seed: int) -> List[Program]:
    # A fixed order: where each program falls relative to the garbage
    # collector's rhythm is then the same for every seed.
    return compile_population(seed)


def setup(_inputs: Any) -> Dict[str, Any]:
    """Import plus the prelude snapshot: what a compile service pays
    before its first compile."""
    from repro.service.snapshot import PreludeSnapshot
    options = pinned_options()
    return {"options": options, "snapshot": PreludeSnapshot.build(options)}


class Workload:
    NAME = NAME
    MIN_ROUNDS = 3

    def __init__(self, state: Dict[str, Any], programs: List[Program],
                 seed: int, outcome: Outcome) -> None:
        self.options = state["options"]
        self.snapshot = state["snapshot"]
        self.programs = programs
        self.seed = seed
        self.outcome = outcome
        #: (ms, host clock mark) of each timed compile
        self.ok_ms: List[Tuple[float, int]] = []
        self.diag_ms: List[Tuple[float, int]] = []
        self.clock = HostClock()
        #: set by a traced run, so GC figures leave out our collections
        self.gc_monitor = None

    def compile(self, prog: Program):
        from repro import compile_source
        return compile_source(prog.source, self.options,
                              snapshot=self.snapshot,
                              filename=f"<{prog.name}>")

    def step(self, prog: Program) -> float:
        """Compile one program (the timed part) and check its output.
        The young garbage the previous step left (its program, the
        check's evaluator) is collected first, untimed, so the compile
        pays only for the collections its own work triggers."""
        from repro import ReproError
        collect(1, self.gc_monitor)
        t0 = time.perf_counter()
        try:
            with self.op("pipeline.compile"):
                program = self.compile(prog)
        except ReproError as exc:
            ms = (time.perf_counter() - t0) * 1e3
            pos = exc.pos
            if prog.error_code is None:
                self.outcome.check(False, f"{prog.name}: {exc}")
            elif self.outcome.check(
                    exc.code == prog.error_code and pos is not None
                    and pos.line in prog.error_lines and bool(exc.positions),
                    f"{prog.name}: {exc.code} at {pos}"):
                self.diag_ms.append((ms, self.clock.mark()))
            return ms
        ms = (time.perf_counter() - t0) * 1e3
        if prog.error_code is not None:
            self.outcome.check(False, f"{prog.name}: ill-typed but compiled")
            return ms
        try:
            value = program.run("main")
        except ReproError as exc:
            value = exc
        if self.outcome.check(value == prog.value,
                              f"{prog.name}: main = {value!r}"):
            self.ok_ms.append((ms, self.clock.mark()))
        return ms

    def round(self, _r: int) -> List[float]:
        """Every program once, ill-typed ones twice (their diagnoses are
        short, so they need more samples for a steady median)."""
        out = []
        for prog in self.programs:
            for _ in range(1 if prog.error_code is None else 2):
                out.append(self.step(prog))
                self.clock.sample()
        return out

    def warmup(self) -> None:
        from contextlib import nullcontext
        self.op = lambda _name: nullcontext()
        self.round(0)
        self.ok_ms.clear()
        self.diag_ms.clear()
        self.clock.samples.clear()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass

    # ------------------------------------------------------------ results

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        ok = self.clock.scaled(self.ok_ms)
        return {
            "m1_ms": metric(median(ok), "ms"),
            "m2_ms": metric(tail(ok, 0.9), "ms"),
            "m3_ms": metric(median(self.clock.scaled(self.diag_ms)), "ms"),
            "rate_per_s": metric(1e3 * len(ok) / sum(ok), "1/s"),
        }

    def report(self) -> List[str]:
        if not self.ok_ms:
            return []
        ok = [ms for ms, _mark in self.ok_ms]
        diag = [ms for ms, _mark in self.diag_ms]
        return [f"compile_ms.p50    {median(ok):10.3f} ms raw  (m1_ms)",
                f"compile_ms.p90    {tail(ok, 0.9):10.3f} ms raw  (m2_ms)",
                f"diagnose_ms.p50   {median(diag):10.3f} ms raw  (m3_ms)",
                f"host_factor       {self.clock.factor():10.4f}",
                f"samples           {len(self.ok_ms)} well-typed, "
                f"{len(self.diag_ms)} ill-typed compiles of "
                f"{len(self.programs)} programs"]

    # ------------------------------------------------------------ tracing

    def trace_values(self, tracer_cls) -> Dict[str, float]:
        values = self.counts()
        values["core.provenance_ms"] = self.provenance_ms(rounds=2)
        self.check_traced_equal(tracer_cls())
        values["service.snapshot_build_s"] = self.snapshot_build_s(tracer_cls)
        return values

    def counts(self) -> Dict[str, float]:
        """Deterministic per-compile counts over one pass of the
        population: the user program's share only (the counts the
        snapshot carries in are subtracted)."""
        from repro import ReproError, compile_source
        from repro.lang.lexer import scan
        from tracer import count_nodes
        _static, base = self.snapshot.fork()
        carried = (base.unifier.unify_count,
                   base.unifier.context_reduction_count,
                   base.unifier.constraint_propagations)
        totals: Dict[str, int] = {}

        def add(key: str, n: int) -> None:
            totals[key] = totals.get(key, 0) + n

        n_ok = n_bad = 0
        for prog in self.programs:
            add("lang.tokens", len(scan(prog.source)))
            if prog.error_code is not None:
                try:
                    self.compile(prog)
                except ReproError as exc:
                    n_bad += 1
                    add("core.pool_size", exc.constraint_pool_size)
                    add("core.unsat_core_size", exc.unsat_core_size)
                continue
            translated = []
            program = compile_source(
                prog.source, self.options, snapshot=self.snapshot,
                observer=lambda name, ctx: translated.append(
                    count_nodes(ctx.core)) if name == "translate" else None)
            n_ok += 1
            stats = program.compile_stats
            add("core.unify_count", stats.unify_count - carried[0])
            add("core.context_reductions",
                stats.context_reductions - carried[1])
            add("core.constraint_propagations",
                stats.constraint_propagations - carried[2])
            add("coreir.nodes.translate", translated[0])
            add("coreir.nodes.final", count_nodes(program.core))
        per = {"lang.tokens": len(self.programs),
               "core.pool_size": n_bad, "core.unsat_core_size": n_bad}
        return {key: total / per.get(key, n_ok)
                for key, total in totals.items()}

    def provenance_ms(self, rounds: int) -> float:
        """Infer time per well-typed compile with constraint provenance
        on, minus the same with it off (on a snapshot built with it
        off); rounds alternate between the two."""
        from repro import compile_source
        from repro.service.snapshot import PreludeSnapshot
        off_options = self.options.with_(constraint_provenance=False)
        off_snapshot = PreludeSnapshot.build(off_options)
        progs = [p for p in self.programs if p.error_code is None]
        infer: Dict[bool, float] = {True: 0.0, False: 0.0}
        for r in range(2 * rounds):
            on = r % 2 == 0
            options, snapshot = (self.options, self.snapshot) if on else \
                (off_options, off_snapshot)
            for prog in progs:
                program = compile_source(prog.source, options,
                                         snapshot=snapshot)
                infer[on] += program.compile_stats.phases.seconds("infer")
        return (infer[True] - infer[False]) * 1e3 / (rounds * len(progs))

    def check_traced_equal(self, tracer) -> None:
        """The traced compile's core and value equal the untraced
        compile's."""
        progs = [p for p in self.programs if p.error_code is None]
        plain = [self.compile(p).dump_core() for p in progs]
        with tracer.installed():
            for prog, core in zip(progs, plain):
                with tracer.op("pipeline.compile"):
                    program = self.compile(prog)
                self.outcome.check(
                    program.dump_core() == core
                    and program.run("main") == prog.value,
                    f"{prog.name}: traced compile differs from untraced")

    def snapshot_build_s(self, tracer_cls) -> float:
        tracer = tracer_cls()
        with tracer.installed():
            with tracer.op("service.setup"):
                setup(None)
        return sum(end - start for _i, name, start, end, _p, _o
                   in tracer.spans if name == "service.snapshot_build")
