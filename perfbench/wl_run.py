"""``run``: repeated evaluation of fixed dictionary-heavy programs under
the interpreter and under the Python backend.

The programs are compiled and code-generated once, in set-up, so this
workload loads the core evaluator, ``pygen`` and ``pyrt`` and bypasses
the front end.  Each timed interpreted run is ``CompiledProgram.run``
(a fresh evaluator, its big-stack thread and the deep conversion of
the result); each timed Python-backend run is ``PyProgram.run`` on
fresh top-level thunks of the program generated in set-up.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from common import (HostClock, collect, Outcome, geomean, median, metric,
                    peak_rss_mb, pinned_options)
from programs import Program, run_population

NAME = "run"
ROOT_LAYER = "coreir"


def prepare(seed: int) -> List[Program]:
    # A fixed order: where each program falls relative to the garbage
    # collector's rhythm is then the same for every seed.
    return run_population(seed)


def setup(programs: List[Program]) -> Dict[str, Any]:
    """Import, the prelude snapshot, and for every program its compile
    and its Python code generation."""
    from repro import compile_source
    from repro.service.snapshot import PreludeSnapshot
    options = pinned_options()
    snapshot = PreludeSnapshot.build(options)
    compiled = {}
    for prog in programs:
        program = compile_source(prog.source, options, snapshot=snapshot,
                                 filename=f"<{prog.name}>")
        compiled[prog.name] = (program, program.to_python())
    return {"compiled": compiled}


def fresh_runtime(py):
    """A PyProgram sharing *py*'s generated code, with new top-level
    thunks and counters: the state ``to_python()`` returns, without
    generating and compiling the Python source again."""
    from repro.coreir import pygen, pyrt
    out = pygen.PyProgram.__new__(pygen.PyProgram)
    out.source = py.source
    out.counters = pyrt.Counters()
    out.globals = py.init(pyrt, out.counters,
                          dict(pyrt.primitives(out.counters)))
    return out


def _generated_init(py):
    """The generated module's ``_init``, reached through the globals of
    any top-level thunk's code (every generated function shares the
    module namespace)."""
    from repro.coreir import pyrt
    for value in py.globals.values():
        fn = getattr(value, "fn", None)
        if isinstance(value, pyrt.Thunk) and fn is not None:
            return fn.__globals__["_init"]
    raise RuntimeError("generated program has no unforced thunk")


class Workload:
    NAME = NAME
    MIN_ROUNDS = 10

    def __init__(self, state: Dict[str, Any], programs: List[Program],
                 seed: int, outcome: Outcome) -> None:
        self.programs = programs
        self.seed = seed
        self.outcome = outcome
        self.compiled = state["compiled"]
        for _program, py in self.compiled.values():
            py.init = _generated_init(py)
        #: per program, (ms, host clock mark) of each timed run
        self.interp_ms: Dict[str, List[Tuple[float, int]]] = {
            p.name: [] for p in programs}
        self.py_ms: Dict[str, List[Tuple[float, int]]] = {
            p.name: [] for p in programs}
        self.clock = HostClock()
        #: set by a traced run, so GC figures leave out our collections
        self.gc_monitor = None

    def step(self, prog: Program) -> List[float]:
        from repro import ReproError
        program, py = self.compiled[prog.name]
        # Each run leaves cyclic garbage (an evaluator's frames, a
        # runtime's closures); collect the young generations before the
        # next timed run, untimed, so that run pays only for the
        # collections its own work triggers.
        collect(1, self.gc_monitor)
        t0 = time.perf_counter()
        try:
            with self.op("coreir.run"):
                value = program.run("main")
        except ReproError as exc:
            value = exc
        ms = (time.perf_counter() - t0) * 1e3
        if self.outcome.check(value == prog.value,
                              f"{prog.name}: interpreted main = {value!r}"):
            self.interp_ms[prog.name].append((ms, self.clock.mark()))
        fresh = fresh_runtime(py)
        collect(1, self.gc_monitor)
        t0 = time.perf_counter()
        try:
            with self.op("pyrt.op"):
                py_value = fresh.run("main")
        except ReproError as exc:
            py_value = exc
        py_ms = (time.perf_counter() - t0) * 1e3
        if self.outcome.check(py_value == prog.value == value,
                              f"{prog.name}: py main = {py_value!r}"):
            self.py_ms[prog.name].append((py_ms, self.clock.mark()))
        return [ms, py_ms]

    def round(self, _r: int) -> List[float]:
        out: List[float] = []
        for prog in self.programs:
            out.extend(self.step(prog))
            self.clock.sample()
        return out

    def warmup(self) -> None:
        from contextlib import nullcontext
        self.op = lambda _name: nullcontext()
        self.round(0)
        for samples in (self.interp_ms, self.py_ms):
            for xs in samples.values():
                xs.clear()
        self.clock.samples.clear()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass

    # ------------------------------------------------------------ results

    def _medians(self, samples, scale: bool = True) -> Dict[str, float]:
        return {name: median(self.clock.scaled(xs) if scale
                             else [ms for ms, _mark in xs])
                for name, xs in samples.items()}

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        interp = self._medians(self.interp_ms)
        all_ms = [x for xs in self.interp_ms.values()
                  for x in self.clock.scaled(xs)]
        return {
            "m1_ms": metric(geomean(interp.values()), "ms"),
            "m2_ms": metric(geomean(self._medians(self.py_ms).values()), "ms"),
            "m3_ms": metric(max(interp.values()), "ms"),
            "rate_per_s": metric(1e3 * len(all_ms) / sum(all_ms), "1/s"),
        }

    def report(self) -> List[str]:
        if not any(self.interp_ms.values()):
            return []
        interp = self._medians(self.interp_ms, scale=False)
        py = self._medians(self.py_ms, scale=False)
        lines = [f"eval_ms.geomean     {geomean(interp.values()):10.3f} ms raw"
                 f"  (m1_ms)",
                 f"py_eval_ms.geomean  {geomean(py.values()):10.3f} ms raw"
                 f"  (m2_ms)",
                 f"eval_ms.max         {max(interp.values()):10.3f} ms raw"
                 f"  (m3_ms)",
                 f"host_factor         {self.clock.factor():10.4f}"]
        for name in sorted(interp):
            lines.append(f"  {name:26s} interp {interp[name]:9.3f} ms  "
                         f"py {py[name]:8.3f} ms  "
                         f"({len(self.interp_ms[name])} runs)")
        return lines

    # ------------------------------------------------------------ tracing

    def trace_values(self, tracer_cls) -> Dict[str, float]:
        values = self.counts()
        tracer = tracer_cls()
        # Set-up again, traced: code generation and loading per program.
        with tracer.installed():
            with tracer.op("service.setup"):
                setup(self.programs)
        by_name = tracer.by_name()
        n = len(self.programs)
        values["pygen.codegen_ms"] = \
            by_name["pygen.codegen"][1] * 1e3 / n
        values["pygen.exec_ms"] = by_name["pygen.init"][1] * 1e3 / n
        values["service.snapshot_build_s"] = sum(
            end - start for _i, name, start, end, _p, _o in tracer.spans
            if name == "service.snapshot_build")
        return values

    def counts(self) -> Dict[str, float]:
        """Counters of one interpreted and one Python-backend run of
        each program, per run."""
        totals: Dict[str, int] = {}
        for prog in self.programs:
            program, py = self.compiled[prog.name]
            program.run("main")
            for key, n in program.last_stats.snapshot().items():
                totals[f"coreir.{key}"] = totals.get(f"coreir.{key}", 0) + n
            fresh = fresh_runtime(py)
            fresh.run("main")
            c = fresh.counters
            totals["pyrt.fun_calls"] = totals.get("pyrt.fun_calls", 0) + \
                c.fun_calls
            totals["pyrt.dict_ops"] = totals.get("pyrt.dict_ops", 0) + \
                c.dict_constructions + c.dict_selections
        n = len(self.programs)
        keep = ("coreir.steps", "coreir.fun_calls",
                "coreir.dict_constructions",
                "coreir.dict_selections", "coreir.allocations",
                "pyrt.fun_calls", "pyrt.dict_ops")
        return {key: totals[key] / n for key in keep}

    def finish_trace(self, metrics: Dict[str, Dict[str, Any]]) -> None:
        """Per-step and per-call costs: evaluator self time over steps,
        generated-code self time over calls."""
        def value(name: str) -> float:
            return metrics[name]["value"]
        # span times are per operation; an interpreted and a py run
        # alternate, so per interpreted run they are twice as large
        eval_ns = (value("coreir.eval_ms") + value("coreir.deep_ms")) * 2e6
        metrics["coreir.ns_per_step"]["value"] = \
            eval_ns / value("coreir.steps")
        metrics["pyrt.ns_per_call"]["value"] = \
            value("pyrt.run_ms") * 2e6 / value("pyrt.fun_calls")
