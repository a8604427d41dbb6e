"""A tree-walking evaluator: the reference that the staged evaluator in
:mod:`repro.coreir.eval` must agree with on every program.

It decodes each core node on every step and looks variables up through
a chain of dict frames, the plainest reading of the evaluation rules.
It shares the value classes and primitives with the compiler and keeps
its own closures, thunks and frames.  ``tests/test_eval_reference.py``
and the fuzz runner (``tests/fuzz/run_fuzz.py``) run programs under
both evaluators and compare the value, the error's code and message,
and every ``EvalStats`` counter.

:func:`outcome` is the comparison's unit: what one run of a binding
gives, under either evaluator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.coreir.eval import (
    EvalStats,
    Value,
    VChar,
    VCon,
    VDict,
    VFloat,
    VInt,
    VPartialCon,
    VPrim,
    VTuple,
    value_to_python,
    with_big_stack,
)
from repro.coreir.syntax import (
    CApp,
    CCase,
    CCon,
    CDict,
    CLam,
    CLet,
    CLit,
    CoreExpr,
    CoreProgram,
    CSel,
    CTuple,
    CVar,
)
from repro.errors import EvalError, ReproError, ResourceLimitError
from repro.limits import DEFAULT_EVAL_DEPTH, recursion_fence


class VClosure(Value):
    __slots__ = ("params", "body", "env", "applied")

    def __init__(self, params: List[str], body: CoreExpr, env: "Frame",
                 applied: Tuple[Any, ...] = ()) -> None:
        self.params = params
        self.body = body
        self.env = env
        self.applied = applied

    def __repr__(self) -> str:
        return f"VClosure({self.params})"


class Thunk:
    """A suspended computation, memoised under call-by-need."""

    __slots__ = ("expr", "env", "value", "forcing")

    def __init__(self, expr: CoreExpr, env: "Frame") -> None:
        self.expr = expr
        self.env = env
        self.value: Optional[Value] = None
        self.forcing = False


class Frame:
    """An environment frame: a dict of bindings plus a parent link."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Frame"] = None) -> None:
        self.vars: Dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> Any:
        frame: Optional[Frame] = self
        while frame is not None:
            hit = frame.vars.get(name)
            if hit is not None:
                return hit
            if name in frame.vars:
                return hit
            frame = frame.parent
        raise EvalError(f"unbound variable {name!r} at run time")


class _TailCall:
    """A saturated closure call turned into a loop iteration."""

    __slots__ = ("body", "env")

    def __init__(self, body: CoreExpr, env: Frame) -> None:
        self.body = body
        self.env = env


class Evaluator:
    def __init__(self, program: CoreProgram,
                 primitives: Optional[Dict[str, VPrim]] = None,
                 call_by_need: bool = True,
                 step_limit: int = 0,
                 max_depth: int = DEFAULT_EVAL_DEPTH) -> None:
        self.stats = EvalStats()
        self.call_by_need = call_by_need
        self.step_limit = step_limit
        self.max_depth = max_depth
        self.depth = 0
        self.globals = Frame()
        if primitives:
            for name, prim in primitives.items():
                self.globals.vars[name] = prim
        for binding in program.bindings:
            self.globals.vars[binding.name] = Thunk(binding.expr, self.globals)

    def run(self, name: str) -> Value:
        return self.force(self.globals.lookup(name))

    def run_expr(self, expr: CoreExpr) -> Value:
        return self.force(self.eval(expr, self.globals))

    def force(self, value: Any) -> Value:
        while isinstance(value, Thunk):
            if value.value is not None:
                value = value.value
                continue
            if value.forcing:
                raise EvalError("<<loop>>: value depends on itself")
            value.forcing = True
            try:
                result = self.eval(value.expr, value.env)
                result = self.force(result)
            finally:
                value.forcing = False
            if self.call_by_need:
                value.value = result
                value.expr = None  # type: ignore[assignment]
                value.env = None   # type: ignore[assignment]
            value = result
        return value

    def eval(self, expr: CoreExpr, env: Frame) -> Any:
        # One eval() frame per level of non-tail nesting; tail calls
        # loop inside this frame.
        self.depth += 1
        stats = self.stats
        if self.max_depth and self.depth > self.max_depth:
            self.depth -= 1
            raise ResourceLimitError(
                f"evaluation nests too deeply (more than "
                f"{self.max_depth} levels); raise eval_depth_limit for "
                f"deeply recursive programs",
                limit="eval_depth_limit",
            )
        try:
            while True:
                stats.steps += 1
                if self.step_limit and stats.steps > self.step_limit:
                    raise EvalError(
                        f"evaluation exceeded the step limit "
                        f"({self.step_limit})")
                t = type(expr)
                if t is CVar:
                    return env.lookup(expr.name)
                if t is CLit:
                    return self.literal(expr)
                if t is CCon:
                    if expr.arity == 0:
                        return VCon(expr.name, [])
                    return VPartialCon(expr.name, expr.arity)
                if t is CLam:
                    return VClosure(expr.params, expr.body, env)
                if t is CApp:
                    args: List[Any] = []
                    node = expr
                    while type(node) is CApp:
                        args.append(node.arg)
                        node = node.fn
                    args.reverse()
                    fn = self.force(self.eval(node, env))
                    arg_thunks = [self.mk_thunk(a, env) for a in args]
                    result = self.apply_many(fn, arg_thunks)
                    if isinstance(result, _TailCall):
                        expr, env = result.body, result.env
                        continue
                    return result
                if t is CLet:
                    frame = Frame(env)
                    if expr.recursive:
                        for name, rhs in expr.binds:
                            frame.vars[name] = Thunk(rhs, frame)
                            stats.allocations += 1
                    else:
                        for name, rhs in expr.binds:
                            frame.vars[name] = Thunk(rhs, env)
                            stats.allocations += 1
                    expr, env = expr.body, frame
                    continue
                if t is CCase:
                    scrut = self.force(self.eval(expr.scrutinee, env))
                    selected = self.select_alt(expr, scrut, env)
                    if selected is None:
                        raise EvalError(
                            f"no matching case alternative for {scrut!r}")
                    expr, env = selected
                    continue
                if t is CTuple:
                    stats.allocations += 1
                    return VTuple([self.mk_thunk(i, env) for i in expr.items])
                if t is CDict:
                    stats.allocations += 1
                    stats.dict_constructions += 1
                    return VDict([self.mk_thunk(i, env) for i in expr.items],
                                 expr.tag)
                if t is CSel:
                    value = self.force(self.eval(expr.expr, env))
                    if not isinstance(value, VTuple):
                        raise EvalError(
                            f"selection from non-tuple value {value!r}")
                    if expr.from_dict:
                        stats.dict_selections += 1
                    else:
                        stats.tuple_selections += 1
                    return value.items[expr.index]
                raise EvalError(f"cannot evaluate core node {expr!r}")
        finally:
            self.depth -= 1

    def mk_thunk(self, expr: CoreExpr, env: Frame) -> Any:
        t = type(expr)
        if t is CVar:
            return env.lookup(expr.name)
        if t is CLit and expr.kind != "string":
            return self.literal(expr)
        if t is CCon and expr.arity == 0:
            return VCon(expr.name, [])
        self.stats.allocations += 1
        return Thunk(expr, env)

    def literal(self, expr: CLit) -> Value:
        kind = expr.kind
        if kind == "int":
            return VInt(expr.value)
        if kind == "float":
            return VFloat(expr.value)
        if kind == "char":
            return VChar(expr.value)
        assert kind == "string"
        out: Value = VCon("[]", [])
        for ch in reversed(expr.value):
            out = VCon(":", [VChar(ch), out])
        return out

    def apply_many(self, fn: Value, args: List[Any]) -> Any:
        stats = self.stats
        while args:
            if isinstance(fn, VClosure):
                have = list(fn.applied)
                need = len(fn.params)
                take = min(need - len(have), len(args))
                have.extend(args[:take])
                args = args[take:]
                if len(have) < need:
                    return VClosure(fn.params, fn.body, fn.env, tuple(have))
                stats.fun_calls += 1
                frame = Frame(fn.env)
                for name, value in zip(fn.params, have):
                    frame.vars[name] = value
                if not args:
                    return _TailCall(fn.body, frame)
                fn = self.force(self.eval(fn.body, frame))
            elif isinstance(fn, VPrim):
                have = list(fn.applied)
                take = min(fn.arity - len(have), len(args))
                have.extend(args[:take])
                args = args[take:]
                if len(have) < fn.arity:
                    return VPrim(fn.name, fn.arity, fn.fn, tuple(have))
                stats.prim_calls += 1
                fn = fn.fn(self, *have)
                fn = self.force(fn)
            elif isinstance(fn, VPartialCon):
                have = list(fn.applied)
                take = min(fn.arity - len(have), len(args))
                have.extend(args[:take])
                args = args[take:]
                if len(have) < fn.arity:
                    return VPartialCon(fn.name, fn.arity, tuple(have))
                fn = VCon(fn.name, have)
                self.stats.allocations += 1
            else:
                raise EvalError(f"cannot apply non-function value {fn!r}")
        return fn

    def select_alt(self, case: CCase, scrut: Value,
                   env: Frame) -> Optional[Tuple[CoreExpr, Frame]]:
        if isinstance(scrut, VCon):
            for alt in case.alts:
                if alt.con_name == scrut.name:
                    frame = Frame(env)
                    for name, value in zip(alt.binders, scrut.args):
                        frame.vars[name] = value
                    return alt.body, frame
        elif isinstance(scrut, VTuple):
            for alt in case.alts:
                if alt.con_name.startswith("(") and \
                        len(alt.binders) == len(scrut.items):
                    frame = Frame(env)
                    for name, value in zip(alt.binders, scrut.items):
                        frame.vars[name] = value
                    return alt.body, frame
        elif isinstance(scrut, (VInt, VFloat, VChar)):
            raw = scrut.value
            for lalt in case.lit_alts:
                if lalt.value == raw:
                    return lalt.body, env
        if case.default is not None:
            return case.default, env
        return None


# --------------------------------------------------------------------------
# Differential runs
# --------------------------------------------------------------------------

def outcome(run: Callable[[], Any], stats: Callable[[], EvalStats]
            ) -> Tuple[Any, ...]:
    """``("value", value, counters)`` or ``("error", code, message,
    counters)`` for one run."""
    try:
        value = run()
    except ReproError as exc:
        return ("error", exc.code, str(exc), stats().snapshot())
    return ("value", value, stats().snapshot())


def reference_outcome(program, name: str = "main",
                      **overrides: Any) -> Tuple[Any, ...]:
    """Run binding *name* of a :class:`repro.driver.CompiledProgram` as
    ``program.run(name, **overrides)`` does, on the reference."""
    from repro.prelude import PRIMITIVES
    options = program.options
    evaluator = Evaluator(
        program.core, PRIMITIVES(),
        call_by_need=overrides.get("call_by_need", options.call_by_need),
        step_limit=overrides.get("step_limit", options.eval_step_limit),
        max_depth=overrides.get("max_depth", options.eval_depth_limit))

    def go() -> Any:
        with recursion_fence(f"evaluation of '{name}'"):
            return value_to_python(evaluator, evaluator.run(name))

    return outcome(lambda: with_big_stack(go), lambda: evaluator.stats)


def staged_outcome(program, name: str = "main",
                   **overrides: Any) -> Tuple[Any, ...]:
    """The same run on the compiler's evaluator."""
    return outcome(lambda: program.run(name, **overrides),
                   lambda: program.last_stats)


def assert_same_as_reference(program, name: str = "main",
                             **overrides: Any) -> Tuple[Any, ...]:
    """Run *name* under both evaluators; fail on any difference in the
    value, the error's code and message, or a counter."""
    ours = staged_outcome(program, name, **overrides)
    ref = reference_outcome(program, name, **overrides)
    if ours != ref:
        raise AssertionError(f"evaluator differs from the reference: "
                             f"{ours!r:.400} != {ref!r:.400}")
    return ours
