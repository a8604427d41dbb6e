"""Spans around the calls the benchmark makes into each layer.

The tracer patches the public entry points of every layer for the
duration of a traced round and restores them afterwards; nothing under
``src/`` is edited.  A span holds a name, start, end, parent and the
operation it belongs to.  Spans stay in memory and are written out when
the run ends.  A layer's self time is its spans' durations minus the
part of each interval that child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The package's modules, used as the layer names.
LAYERS = ("lang", "core", "solver", "coreir", "transform", "specialize",
          "pipeline", "modules", "service")

#: Registered pipeline pass -> layer.
PASS_LAYER = {
    "parse": "lang", "desugar": "lang",
    "static": "core", "install-methods": "core", "infer": "core",
    "translate": "coreir", "selectors": "coreir",
    "hoist-dictionaries": "transform", "inner-entry-points": "transform",
    "constant-dict-reduction": "transform", "specialize": "transform",
    "specialize-xmodule": "specialize",
}

#: Span-name prefix -> layer for spans that are not pipeline passes.
PREFIX_LAYER = {
    "solver.": "solver", "service.": "service", "pipeline.": "pipeline",
    "coreir.": "coreir", "pygen.": "coreir", "pyrt.": "coreir",
    "modules.": "modules", "specialize.": "specialize",
}


def layer_of(name: str) -> str:
    if name.startswith("pass:"):
        return PASS_LAYER.get(name[5:], "pipeline")
    for prefix, layer in PREFIX_LAYER.items():
        if name.startswith(prefix):
            return layer
    raise KeyError(f"span {name!r} belongs to no layer")


class Tracer:
    """Collects spans; :meth:`installed` patches the layer entry points
    for the duration of a ``with`` block."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent, op)
        self.spans: List[Tuple[int, str, float, float, Optional[int],
                               int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: span stack of the thread running the operation in progress:
        #: a span opened on a thread with no open span of its own (a
        #: build's pool threads, the interpreter's big-stack thread)
        #: hangs under the innermost span open there
        self._op_stack: Optional[List[int]] = None
        self._op = 0

    # ------------------------------------------------------------ spans

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False) -> Iterator[None]:
        """A span under the open one.  Outside an operation (the
        benchmark's own output checks) nothing is recorded."""
        stack = self._stack()
        if root:
            parent = None
        elif stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            yield
            return
        sid = next(self._ids)
        stack.append(sid)
        if root:
            self._op += 1
            self._op_stack = stack
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._op_stack = None
            self.spans.append((sid, name, start, end, parent, self._op))

    def add_root(self, name: str, start: float, end: float) -> None:
        """A root span timed elsewhere (a request the server handled)."""
        self._op += 1
        self.spans.append((next(self._ids), name, start, end, None, self._op))

    def op(self, name: str):
        """The root span of one timed operation."""
        return self.span(name, root=True)

    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ---------------------------------------------------------- patching

    def _targets(self) -> List[Tuple[Any, str, Any]]:
        """(owner, attribute, replacement) for every traced entry point."""
        from repro import driver
        from repro.coreir import eval as core_eval
        from repro.coreir import pygen
        from repro.modules import build, resolve
        from repro.pipeline import passes
        from repro.service.snapshot import PreludeSnapshot
        from repro.solver import ReduceSolver
        from repro.specialize import xlink

        def traced_pass(p):
            run = p.run
            name = "pass:" + p.name
            tracer = self

            def go(*args: Any) -> None:
                with tracer.span(name):
                    run(*args)
            return replace(p, run=go)

        snapshot_build = PreludeSnapshot.__dict__["build"].__func__
        w = self.wrap
        return [
            (passes, "DEFAULT_PASSES",
             tuple(traced_pass(p) for p in passes.DEFAULT_PASSES)),
            (ReduceSolver, "solve", w(ReduceSolver.solve, "solver.solve")),
            (PreludeSnapshot, "fork", w(PreludeSnapshot.fork, "service.fork")),
            (PreludeSnapshot, "build", classmethod(
                w(snapshot_build, "service.snapshot_build"))),
            (core_eval.Evaluator, "run",
             w(core_eval.Evaluator.run, "coreir.eval")),
            (driver, "value_to_python",
             w(driver.value_to_python, "coreir.deep")),
            (driver, "with_big_stack",
             w(driver.with_big_stack, "coreir.big_stack")),
            (pygen, "compile_to_python",
             w(pygen.compile_to_python, "pygen.codegen")),
            (pygen.PyProgram, "__init__",
             w(pygen.PyProgram.__init__, "pygen.init")),
            (pygen.PyProgram, "run", w(pygen.PyProgram.run, "pyrt.run")),
            (resolve, "scan_inline_modules",
             w(resolve.scan_inline_modules, "modules.resolve")),
            (build, "compile_module",
             w(build.compile_module, "modules.compile")),
            (build, "save_interface",
             w(build.save_interface, "modules.interface")),
            (build, "load_interface",
             w(build.load_interface, "modules.interface")),
            (build, "link_modules", w(build.link_modules, "modules.link")),
            (build.ModuleBuilder, "check",
             w(build.ModuleBuilder.check, "modules.check")),
            (xlink, "xmodule_specialize",
             w(xlink.xmodule_specialize, "specialize.xmodule")),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for owner, attr, new in self._targets():
                saved.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    # ---------------------------------------------------------- analysis

    def self_times(self) -> Dict[int, float]:
        """Span id -> self seconds (duration minus the union of its
        children's intervals)."""
        children: Dict[Optional[int], List[Tuple[float, float]]] = {}
        for _sid, _name, start, end, parent, _op in self.spans:
            children.setdefault(parent, []).append((start, end))
        out: Dict[int, float] = {}
        for sid, _name, start, end, _parent, _op in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start) - covered
        return out

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (count, total self seconds)."""
        selfs = self.self_times()
        out: Dict[str, Tuple[int, float]] = {}
        for sid, name, *_rest in self.spans:
            n, s = out.get(name, (0, 0.0))
            out[name] = (n + 1, s + selfs[sid])
        return out

    def by_layer(self, root_layer: str) -> Dict[str, float]:
        """Layer -> total self seconds; root operation spans (no parent)
        are charged to *root_layer*."""
        selfs = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for sid, name, _s, _e, parent, _op in self.spans:
            layer = root_layer if parent is None else layer_of(name)
            out[layer] += selfs[sid]
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _sid, _n, start, end, parent, _op
                   in self.spans if parent is None)

    def n_ops(self) -> int:
        return sum(1 for span in self.spans if span[4] is None)

    def write(self, path: str, record: Dict[str, Any]) -> None:
        """Write the run record and every span (one JSON object a line;
        times in microseconds from the first span)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"record": record}) + "\n")
            for sid, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "layer": layer_of(name)
                    if parent is not None else None,
                    "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1),
                    "parent": parent, "op": op}) + "\n")


def count_nodes(program) -> int:
    """Number of core IR nodes in *program* (every binding's body)."""
    from repro.coreir import syntax as S
    total = 0
    work: List[Any] = [b.expr for b in program.bindings]
    while work:
        e = work.pop()
        total += 1
        if isinstance(e, S.CApp):
            work += (e.fn, e.arg)
        elif isinstance(e, S.CLam):
            work.append(e.body)
        elif isinstance(e, S.CLet):
            work += [rhs for _name, rhs in e.binds]
            work.append(e.body)
        elif isinstance(e, S.CCase):
            work.append(e.scrutinee)
            work += [alt.body for alt in e.alts]
            work += [alt.body for alt in e.lit_alts]
            if e.default is not None:
                work.append(e.default)
        elif isinstance(e, (S.CTuple, S.CDict)):
            work += e.items
        elif isinstance(e, S.CSel):
            work.append(e.expr)
    return total
