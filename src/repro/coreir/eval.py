"""A lazy (call-by-need) evaluator for the core IR, staged into closures.

Why an interpreter with counters: the paper's evaluation (section 9) is
about the *relative* run-time costs of dictionary passing — "the extra
level of indirection when dispatching a method function and the time
and space required to propagate dictionaries".  We cannot re-run the
Yale Haskell backend, so the evaluator charges a uniform cost model and
counts exactly the operations the paper talks about:

* ``dict_constructions`` — evaluations of :class:`CDict` nodes (one
  per dictionary tuple built at run time);
* ``dict_selections``   — evaluations of dictionary :class:`CSel`
  nodes (the "reference to a tuple element" in method dispatch);
* ``fun_calls``         — closure bodies entered;
* ``prim_calls``        — primitive applications;
* ``steps``             — total evaluation steps (a machine-independent
  time proxy): one per core node evaluated, as a tree walk would;
* ``allocations``       — thunks + structures allocated.

Laziness is the default; ``call_by_need=False`` gives call-by-name
(no thunk memoisation), the "implementation that is not fully lazy"
whose repeated dictionary construction section 8.8 warns about.

Staging.  Each core binding body is translated once, on first use, into
Python closures ``code(evaluator, frame)`` (:func:`stage`): a variable
becomes a slot of a list frame — one frame per lambda activation, holding
its parameters and every let and case binder of its body, with the
enclosing frame in slot 0 — and a global stays a by-name lookup in the
evaluator's table, so the last binding of a name wins.  An application
spine is flattened with direct paths for a saturated closure, primitive
or constructor; case alternatives are indexed by constructor name, tuple
arity and literal value.  A code returns a value (or a thunk), another
code to run in the same frame, or a ``(code, frame)`` pair; let bodies,
case alternatives and saturated calls go back to the one loop in
:meth:`Evaluator.eval` that way, which counts the steps, so a tail call
grows neither the Python stack nor the evaluator's depth.  Staged code
is shared by every evaluator of a program (:class:`CodeTable`) and, for
the prelude, by every program on one snapshot; it is never pickled.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from types import FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import EvalError, ResourceLimitError
from repro.limits import DEFAULT_EVAL_DEPTH
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


# --------------------------------------------------------------------------
# Values
# --------------------------------------------------------------------------

class Value:
    __slots__ = ()


class VInt(Value):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"VInt({self.value})"


class VFloat(Value):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"VFloat({self.value})"


class VChar(Value):
    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"VChar({self.value!r})"


class VCon(Value):
    """A saturated data constructor; ``args`` are thunks or values."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: List[Any]) -> None:
        self.name = name
        self.args = args

    def __repr__(self) -> str:
        return f"VCon({self.name}, {len(self.args)} args)"


class VTuple(Value):
    __slots__ = ("items",)

    def __init__(self, items: List[Any]) -> None:
        self.items = items

    def __repr__(self) -> str:
        return f"VTuple({len(self.items)})"


class VDict(VTuple):
    """A dictionary: operationally a tuple, distinguished for dumps."""

    __slots__ = ("tag",)

    def __init__(self, items: List[Any], tag: str) -> None:
        super().__init__(items)
        self.tag = tag

    def __repr__(self) -> str:
        return f"VDict({self.tag}, {len(self.items)})"


class Lambda:
    """A staged ``\\x1 .. xn -> body``: the body's code and the ``pad``
    of empty slots its frame holds after the parameters."""

    __slots__ = ("params", "arity", "body", "pad")

    def __init__(self, params: List[str], body: Callable,
                 pad: Tuple[None, ...]) -> None:
        self.params = params
        self.arity = len(params)
        self.body = body
        self.pad = pad


class VClosure(Value):
    __slots__ = ("lam", "env", "applied")

    def __init__(self, lam: Lambda, env: Optional[list],
                 applied: Tuple[Any, ...] = ()) -> None:
        self.lam = lam
        self.env = env
        self.applied = applied

    def __repr__(self) -> str:
        return f"VClosure({self.lam.params})"


class VPrim(Value):
    __slots__ = ("name", "arity", "fn", "applied")

    def __init__(self, name: str, arity: int, fn: Callable,
                 applied: Tuple[Any, ...] = ()) -> None:
        self.name = name
        self.arity = arity
        self.fn = fn
        self.applied = applied

    def __repr__(self) -> str:
        return f"VPrim({self.name})"


class VPartialCon(Value):
    """A data constructor applied to fewer arguments than its arity."""

    __slots__ = ("name", "arity", "applied")

    def __init__(self, name: str, arity: int,
                 applied: Tuple[Any, ...] = ()) -> None:
        self.name = name
        self.arity = arity
        self.applied = applied


class Thunk:
    """A suspended computation — staged code and the frame it runs in —
    memoised under call-by-need."""

    __slots__ = ("code", "env", "value", "forcing")

    def __init__(self, code: Callable, env: Optional[list]) -> None:
        self.code = code
        self.env = env
        self.value: Optional[Value] = None
        self.forcing = False


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

@dataclass
class EvalStats:
    steps: int = 0
    fun_calls: int = 0
    prim_calls: int = 0
    dict_constructions: int = 0
    dict_selections: int = 0
    tuple_selections: int = 0
    allocations: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "steps": self.steps,
            "fun_calls": self.fun_calls,
            "prim_calls": self.prim_calls,
            "dict_constructions": self.dict_constructions,
            "dict_selections": self.dict_selections,
            "tuple_selections": self.tuple_selections,
            "allocations": self.allocations,
        }


# --------------------------------------------------------------------------
# The evaluator
# --------------------------------------------------------------------------

#: stands in for "no limit" in the step and depth comparisons
_NO_LIMIT = 1 << 62


def _too_deep(ev: "Evaluator") -> ResourceLimitError:
    return ResourceLimitError(
        f"evaluation nests too deeply (more than {ev.max_depth} levels); "
        f"raise eval_depth_limit for deeply recursive programs",
        limit="eval_depth_limit",
    )


def _over_budget(ev: "Evaluator") -> EvalError:
    return EvalError(f"evaluation exceeded the step limit ({ev.step_limit})")


def _unbound(name: str) -> EvalError:
    return EvalError(f"unbound variable {name!r} at run time")


class Evaluator:
    """One evaluation state: the global table, the counters and the
    limits.  The counters live on the evaluator; :attr:`stats` reads
    them out."""

    __slots__ = ("globals", "table", "call_by_need", "_step_limit",
                 "_max_depth", "limit", "depth_cap", "depth", "steps",
                 "fun_calls",
                 "prim_calls", "dict_constructions", "dict_selections",
                 "tuple_selections", "allocations")

    def __init__(self, program: CoreProgram,
                 primitives: Optional[Dict[str, VPrim]] = None,
                 call_by_need: bool = True,
                 step_limit: int = 0,
                 max_depth: int = DEFAULT_EVAL_DEPTH,
                 code: Optional["CodeTable"] = None) -> None:
        self.call_by_need = call_by_need
        self.step_limit = step_limit
        # Interpreted recursion nests Python frames (eval -> force ->
        # eval ...).  The evaluator does NOT touch the process recursion
        # limit: raising it on a default-stack thread lets the C stack
        # overflow (SIGSEGV) before Python notices.  Deep evaluation must
        # run under with_big_stack(); the max_depth budget below turns
        # exhaustion into a clean ResourceLimitError either way.
        self.max_depth = max_depth
        self.depth = 0
        self.steps = self.fun_calls = self.prim_calls = 0
        self.dict_constructions = self.dict_selections = 0
        self.tuple_selections = self.allocations = 0
        self.table = code if code is not None else CodeTable()
        # A binding's thunk holds its body until the first force stages
        # it (see force), so an evaluator costs one thunk per binding.
        self.globals: Dict[str, Any] = dict(primitives or {})
        for binding in program.bindings:
            self.globals[binding.name] = Thunk(_unstaged, binding.expr)

    @property
    def step_limit(self) -> int:
        return self._step_limit

    @step_limit.setter
    def step_limit(self, limit: int) -> None:
        self._step_limit = limit
        self.limit = limit or _NO_LIMIT

    @property
    def max_depth(self) -> int:
        return self._max_depth

    @max_depth.setter
    def max_depth(self, depth: int) -> None:
        self._max_depth = depth
        self.depth_cap = depth or _NO_LIMIT

    @property
    def stats(self) -> EvalStats:
        """The counters so far."""
        return EvalStats(self.steps, self.fun_calls, self.prim_calls,
                         self.dict_constructions, self.dict_selections,
                         self.tuple_selections, self.allocations)

    # ------------------------------------------------------------ driving

    def define(self, name: str, expr: CoreExpr) -> None:
        """Bind *name* to *expr* unless it is bound already; its code is
        staged now and kept with this evaluator alone."""
        if name not in self.globals:
            self.globals[name] = Thunk(_entry(expr), None)

    def run(self, name: str) -> Value:
        """Force the top-level binding *name* to weak head normal form."""
        try:
            value = self.globals[name]
        except KeyError:
            raise _unbound(name) from None
        return self.force(value)

    def run_expr(self, expr: CoreExpr) -> Value:
        code, size = stage(expr)
        return self.force(self.eval(code, [None] * size if size > 1
                                    else None))

    # --------------------------------------------------------------- eval

    def force(self, value: Any) -> Value:
        while type(value) is Thunk:
            memo = value.value
            if memo is not None:
                return memo
            if value.forcing:
                raise EvalError("<<loop>>: value depends on itself")
            value.forcing = True
            # eval(value.code, value.env), inlined: one Python frame per
            # forced thunk instead of two
            depth = self.depth
            try:
                if depth >= self.depth_cap:
                    raise _too_deep(self)
                self.depth = depth + 1
                code, env = value.code, value.env
                if code is _unstaged:
                    code = value.code = self.table.entry(env)
                    env = value.env = None
                while True:
                    steps = self.steps + 1
                    self.steps = steps
                    if steps > self.limit:
                        raise _over_budget(self)
                    result = code(self, env)
                    kind = type(result)
                    if kind is tuple:
                        code, env = result
                    elif kind is FunctionType:
                        code = result
                    else:
                        break
                self.depth = depth
                if kind is Thunk:
                    result = self.force(result)
            finally:
                value.forcing = False
                self.depth = depth
            if self.call_by_need:
                value.value = result
                # Free the code and frame for the GC once memoised.
                value.code = None  # type: ignore[assignment]
                value.env = None
            value = result
        return value

    def eval(self, code: Callable, env: Optional[list]) -> Any:
        # One eval() frame per level of *non-tail* interpreted nesting
        # (tail calls loop inside this frame), so self.depth tracks the
        # real recursion depth.  The budget fires deterministically well
        # before a big-stack thread's 1M recursion limit is in danger.
        depth = self.depth
        if depth >= self.depth_cap:
            raise _too_deep(self)
        self.depth = depth + 1
        try:
            while True:
                steps = self.steps + 1
                self.steps = steps
                if steps > self.limit:
                    raise _over_budget(self)
                result = code(self, env)
                kind = type(result)
                if kind is tuple:
                    code, env = result
                elif kind is FunctionType:
                    code = result
                else:
                    return result
        finally:
            self.depth = depth


def _apply(ev: Evaluator, fn: Any, args: List[Any]) -> Any:
    """Apply *fn* to *args*: a value, or a ``(code, frame)`` tail call."""
    while args:
        kind = type(fn)
        if kind is VClosure:
            lam = fn.lam
            have = list(fn.applied)
            take = min(lam.arity - len(have), len(args))
            have.extend(args[:take])
            args = args[take:]
            if len(have) < lam.arity:
                return VClosure(lam, fn.env, tuple(have))
            ev.fun_calls += 1
            frame = [fn.env, *have, *lam.pad]
            if not args:
                return lam.body, frame
            fn = ev.eval(lam.body, frame)
            if type(fn) is Thunk:
                fn = ev.force(fn)
        elif kind is VPrim:
            have = list(fn.applied)
            take = min(fn.arity - len(have), len(args))
            have.extend(args[:take])
            args = args[take:]
            if len(have) < fn.arity:
                return VPrim(fn.name, fn.arity, fn.fn, tuple(have))
            ev.prim_calls += 1
            fn = fn.fn(ev, *have)
            if type(fn) is Thunk:
                fn = ev.force(fn)
        elif kind is VPartialCon:
            have = list(fn.applied)
            take = min(fn.arity - len(have), len(args))
            have.extend(args[:take])
            args = args[take:]
            if len(have) < fn.arity:
                return VPartialCon(fn.name, fn.arity, tuple(have))
            fn = VCon(fn.name, have)
            ev.allocations += 1
        else:
            raise EvalError(f"cannot apply non-function value {fn!r}")
    return fn


# --------------------------------------------------------------------------
# Staged code
# --------------------------------------------------------------------------

class CodeTable:
    """Staged code of core binding bodies, keyed by the body's identity.

    A program keeps one (its evaluators share it); a prelude snapshot
    keeps one for the prelude bodies its forks share, passed here as
    *shared* with those *bodies* registered in it.  A body is staged
    the first time an evaluator forces a binding with that body.
    """

    __slots__ = ("_slots", "_shared", "_lock")

    def __init__(self, shared: Optional["CodeTable"] = None,
                 bodies: Tuple[CoreExpr, ...] = ()) -> None:
        self._shared = shared
        #: id(body) -> [body, code or None]; holding the body keeps
        #: the id from being reused
        self._slots: Dict[int, list] = {id(e): [e, None] for e in bodies}
        # evaluators of one program, and programs on one snapshot, may
        # run on several threads
        self._lock = threading.Lock()

    def entry(self, expr: CoreExpr) -> Callable:
        """The code of a top-level thunk whose body is *expr*."""
        if self._shared is not None:
            code = self._shared._staged(expr, register=False)
            if code is not None:
                return code
        return self._staged(expr, register=True)

    def _staged(self, expr: CoreExpr, register: bool) -> Optional[Callable]:
        key = id(expr)
        with self._lock:
            slot = self._slots.get(key)
            if slot is None or slot[0] is not expr:
                if not register:
                    return None
                slot = self._slots[key] = [expr, None]
            if slot[1] is None:
                slot[1] = _entry(expr)
            return slot[1]


def _unstaged(ev: Evaluator, body: CoreExpr) -> Any:
    """The code of a top-level thunk whose *body* is not staged yet;
    :meth:`Evaluator.force` swaps in the staged code before running."""
    raise AssertionError("an unstaged binding ran without force")


def _entry(expr: CoreExpr) -> Callable:
    """The code of a top-level thunk whose body is *expr*."""
    code, size = stage(expr)
    if size == 1:
        return code

    # Let or case binders outside any lambda: each evaluation runs in a
    # fresh frame of *size* slots.
    def framed(ev: Evaluator, _env: Any) -> Any:
        frame = [None] * size
        result = code(ev, frame)
        if type(result) is FunctionType:
            return result, frame
        return result
    return framed


class _Shape:
    """The slots of one frame, counted while its code is staged."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        self.size = size

    def fresh(self) -> int:
        self.size += 1
        return self.size - 1


#: name -> (lambda nesting level, slot)
Scope = Dict[str, Tuple[int, int]]


def stage(expr: CoreExpr) -> Tuple[Callable, int]:
    """The code of a top-level *expr* and the size of the frame it runs
    in (1: it binds nothing outside a lambda and runs in no frame)."""
    shape = _Shape(1)
    code = _node(expr, {}, 0, shape)
    return code, shape.size


def _literal(expr: CLit) -> Callable:
    """The code of a literal.  Numbers and characters are values built
    once; a string is a [Char] cons chain built when it is evaluated,
    so the many error-message literals that never run cost no memory."""
    kind = expr.kind
    if kind == "int":
        return _const(VInt(expr.value))
    if kind == "float":
        return _const(VFloat(expr.value))
    if kind == "char":
        return _const(VChar(expr.value))
    assert kind == "string"
    text = expr.value

    def string(ev: Evaluator, env: Any) -> Any:
        out: Value = VCon("[]", [])
        for ch in reversed(text):
            out = VCon(":", [VChar(ch), out])
        return out
    return string


def _const(value: Any) -> Callable:
    return lambda ev, env: value


def _slot_reader(slot: int) -> Callable:
    return lambda ev, env: env[slot]


def _outer_slot_reader(slot: int) -> Callable:
    return lambda ev, env: env[0][slot]


#: the readers of the first slots of a frame and of its enclosing
#: frame: they depend on the slot alone, so all staged code shares them
_SLOT_READERS = tuple(_slot_reader(i) for i in range(64))
_OUTER_SLOT_READERS = tuple(_outer_slot_reader(i) for i in range(64))


def _var(name: str, scope: Scope, level: int) -> Callable:
    """Look a variable up (no step: an argument's or a node's read)."""
    hit = scope.get(name)
    if hit is None:
        def global_var(ev: Evaluator, env: Any) -> Any:
            try:
                return ev.globals[name]
            except KeyError:
                raise _unbound(name) from None
        return global_var
    up, slot = level - hit[0], hit[1]
    if up == 0:
        return (_SLOT_READERS[slot] if slot < len(_SLOT_READERS)
                else _slot_reader(slot))
    if up == 1:
        return (_OUTER_SLOT_READERS[slot] if slot < len(_OUTER_SLOT_READERS)
                else _outer_slot_reader(slot))

    def outer_var(ev: Evaluator, env: Any) -> Any:
        for _ in range(up):
            env = env[0]
        return env[slot]
    return outer_var


def _node(e: CoreExpr, scope: Scope, level: int,
          shape: _Shape) -> Callable:
    """The code of *e* in evaluation position: the loop has counted its
    step."""
    t = type(e)
    if t is CVar:
        return _var(e.name, scope, level)
    if t is CApp:
        return _app(e, scope, level, shape)
    if t is CCase:
        return _case(e, scope, level, shape)
    if t is CLet:
        return _let(e, scope, level, shape)
    if t is CLam:
        inner = dict(scope)
        for i, param in enumerate(e.params):
            inner[param] = (level + 1, 1 + i)
        frame = _Shape(1 + len(e.params))
        body = _node(e.body, inner, level + 1, frame)
        lam = Lambda(e.params, body,
                     (None,) * (frame.size - 1 - len(e.params)))
        return lambda ev, env: VClosure(lam, env)
    if t is CLit:
        return _literal(e)
    if t is CCon:
        return _const(VCon(e.name, []) if e.arity == 0
                      else VPartialCon(e.name, e.arity))
    if t is CSel:
        return _sel(e, scope, level, shape)
    if t is CTuple or t is CDict:
        return _tuple(e, scope, level, shape)

    def unknown(ev: Evaluator, env: Any) -> Any:
        raise EvalError(f"cannot evaluate core node {e!r}")
    return unknown


def _arg(e: CoreExpr, scope: Scope, level: int, shape: _Shape) -> Callable:
    """The code building an argument or component: a variable's value,
    a literal or nullary constructor, or else a thunk."""
    t = type(e)
    if t is CVar:
        return _var(e.name, scope, level)
    if t is CLit and e.kind != "string":
        return _literal(e)
    if t is CCon and e.arity == 0:
        return _const(VCon(e.name, []))
    code = _node(e, scope, level, shape)

    def delay(ev: Evaluator, env: Any) -> Any:
        ev.allocations += 1
        return Thunk(code, env)
    return delay


def _sub(e: CoreExpr, scope: Scope, level: int, shape: _Shape) -> Callable:
    """The code of a nested evaluation of *e* (one level deeper, its own
    step) forced to weak head normal form.  A variable is read inline."""
    if type(e) is not CVar:
        code = _node(e, scope, level, shape)

        def nested(ev: Evaluator, env: Any) -> Any:
            value = ev.eval(code, env)
            if type(value) is Thunk:
                value = value.value or ev.force(value)
            return value
        return nested
    hit = scope.get(e.name)
    if hit is not None and hit[0] == level:
        slot = hit[1]

        def local(ev: Evaluator, env: Any) -> Any:
            if ev.depth >= ev.depth_cap:
                raise _too_deep(ev)
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev.limit:
                raise _over_budget(ev)
            value = env[slot]
            if type(value) is Thunk:
                value = value.value or ev.force(value)
            return value
        return local
    read = _var(e.name, scope, level)

    def variable(ev: Evaluator, env: Any) -> Any:
        if ev.depth >= ev.depth_cap:
            raise _too_deep(ev)
        steps = ev.steps + 1
        ev.steps = steps
        if steps > ev.limit:
            raise _over_budget(ev)
        value = read(ev, env)
        if type(value) is Thunk:
            value = value.value or ev.force(value)
        return value
    return variable


def _local_slot(e: CoreExpr, scope: Scope, level: int) -> int:
    """The slot of *e* when it is a variable of the current frame, else
    0 (slot 0 holds the enclosing frame, never a variable)."""
    if type(e) is CVar:
        hit = scope.get(e.name)
        if hit is not None and hit[0] == level:
            return hit[1]
    return 0


def _global_name(e: CoreExpr, scope: Scope) -> Optional[str]:
    """The name of *e* when it is a global variable, else None."""
    if type(e) is CVar and e.name not in scope:
        return e.name
    return None


def _let(e: CLet, scope: Scope, level: int, shape: _Shape) -> Callable:
    inner = dict(scope)
    slots = []
    for name, _rhs in e.binds:
        slot = shape.fresh()
        slots.append(slot)
        inner[name] = (level, slot)
    rhs_scope = inner if e.recursive else scope
    binds = tuple((slot, _node(rhs, rhs_scope, level, shape))
                  for slot, (_name, rhs) in zip(slots, e.binds))
    body = _node(e.body, inner, level, shape)
    n = len(binds)
    if n == 1:
        (slot, rhs), = binds

        def let1(ev: Evaluator, env: list) -> Any:
            ev.allocations += 1
            env[slot] = Thunk(rhs, env)
            return body
        return let1

    def let(ev: Evaluator, env: list) -> Any:
        ev.allocations += n
        for slot, rhs in binds:
            env[slot] = Thunk(rhs, env)
        return body
    return let


#: an empty alternative index, never written
_NO_ALTERNATIVES: Dict[Any, Any] = {}


def _case(e: CCase, scope: Scope, level: int, shape: _Shape) -> Callable:
    local = _local_slot(e.scrutinee, scope, level)
    scrutinee = None if local else _sub(e.scrutinee, scope, level, shape)
    #: an alternative: its binders' slots first:stop, and its body
    by_con: Dict[str, Tuple[int, int, Callable]] = {}
    by_arity: Dict[int, Tuple[int, int, Callable]] = {}
    for alt in e.alts:
        inner = dict(scope)
        first = shape.size
        for name in alt.binders:
            inner[name] = (level, shape.fresh())
        entry = (first, shape.size, _node(alt.body, inner, level, shape))
        # The first alternative that matches wins, as in a linear scan.
        by_con.setdefault(alt.con_name, entry)
        if alt.con_name.startswith("("):
            by_arity.setdefault(len(alt.binders), entry)
    by_lit: Dict[Any, Callable] = {}
    for lalt in e.lit_alts:
        body = _node(lalt.body, scope, level, shape)
        by_lit.setdefault(lalt.value, body)
    # most cases have no tuple or literal alternatives: share one empty
    # index for them
    by_arity = by_arity or _NO_ALTERNATIVES
    by_lit = by_lit or _NO_ALTERNATIVES
    default = (_node(e.default, scope, level, shape)
               if e.default is not None else None)

    def case(ev: Evaluator, env: list) -> Any:
        if local:
            # scrutinee(ev, env) for a variable of this frame, inlined
            if ev.depth >= ev.depth_cap:
                raise _too_deep(ev)
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev.limit:
                raise _over_budget(ev)
            value = env[local]
            if type(value) is Thunk:
                value = value.value or ev.force(value)
        else:
            value = scrutinee(ev, env)
        kind = type(value)
        if kind is VCon:
            hit = by_con.get(value.name)
            if hit is not None:
                first, stop, body = hit
                if first != stop:
                    args = value.args
                    if len(args) == stop - first:
                        env[first:stop] = args
                    else:
                        _bind(env, first, stop, args)
                return body
        elif kind is VTuple or kind is VDict:
            hit = by_arity.get(len(value.items))
            if hit is not None:
                first, stop, body = hit
                if first != stop:
                    env[first:stop] = value.items
                return body
        elif kind is VInt or kind is VChar or kind is VFloat:
            body = by_lit.get(value.value)
            if body is not None:
                return body
        if default is not None:
            return default
        raise EvalError(f"no matching case alternative for {value!r}")
    return case


def _bind(env: list, first: int, stop: int, args: List[Any]) -> None:
    """Store a constructor's fields in its alternative's binder slots
    when the two counts differ: as many as both have."""
    for slot, arg in zip(range(first, stop), args):
        env[slot] = arg


def _sel(e: CSel, scope: Scope, level: int, shape: _Shape) -> Callable:
    operand = _sub(e.expr, scope, level, shape)
    index = e.index
    if e.from_dict:
        def select_method(ev: Evaluator, env: Any) -> Any:
            value = operand(ev, env)
            if not isinstance(value, VTuple):
                raise EvalError(f"selection from non-tuple value {value!r}")
            ev.dict_selections += 1
            return value.items[index]
        return select_method

    def select(ev: Evaluator, env: Any) -> Any:
        value = operand(ev, env)
        if not isinstance(value, VTuple):
            raise EvalError(f"selection from non-tuple value {value!r}")
        ev.tuple_selections += 1
        return value.items[index]
    return select


def _tuple(e: Any, scope: Scope, level: int, shape: _Shape) -> Callable:
    build = _components(tuple(_arg(i, scope, level, shape) for i in e.items))
    if type(e) is CDict:
        tag = e.tag

        def dictionary(ev: Evaluator, env: Any) -> Any:
            ev.allocations += 1
            ev.dict_constructions += 1
            return VDict(build(ev, env), tag)
        return dictionary

    def tuple_(ev: Evaluator, env: Any) -> Any:
        ev.allocations += 1
        return VTuple(build(ev, env))
    return tuple_


def _components(items: Tuple[Callable, ...]) -> Callable:
    """The code building the list of a tuple's or dictionary's items."""
    if len(items) == 2:
        first, second = items
        return lambda ev, env: [first(ev, env), second(ev, env)]
    if len(items) == 3:
        first, second, third = items
        return lambda ev, env: [first(ev, env), second(ev, env),
                                third(ev, env)]
    return lambda ev, env: [item(ev, env) for item in items]


def _app(e: CApp, scope: Scope, level: int, shape: _Shape) -> Callable:
    spine: List[CoreExpr] = []
    head: CoreExpr = e
    while type(head) is CApp:
        spine.append(head.arg)
        head = head.fn
    spine.reverse()
    if type(head) is CCon and head.arity == len(spine):
        return _con_app(head.name,
                        tuple(_arg(a, scope, level, shape) for a in spine))
    name = _global_name(head, scope)
    fn_code = None if name else _sub(head, scope, level, shape)
    args = tuple(_arg(a, scope, level, shape) for a in spine)
    if len(args) == 1:
        return _app1(name, fn_code, *args)
    if len(args) == 2:
        return _app2(name, fn_code, *args)
    if len(args) == 3:
        return _app3(name, fn_code, *args)
    fn_code = fn_code or _sub(head, scope, level, shape)

    def app(ev: Evaluator, env: Any) -> Any:
        fn = fn_code(ev, env)
        return _apply(ev, fn, [arg(ev, env) for arg in args])
    return app


def _con_app(name: str, args: Tuple[Callable, ...]) -> Callable:
    """A saturated constructor: its head's nested step, then the
    arguments, then the structure."""
    def con(ev: Evaluator, env: Any) -> Any:
        if ev.depth >= ev.depth_cap:
            raise _too_deep(ev)
        steps = ev.steps + 1
        ev.steps = steps
        if steps > ev.limit:
            raise _over_budget(ev)
        items = [arg(ev, env) for arg in args]
        ev.allocations += 1
        return VCon(name, items)

    if len(args) != 2:
        return con
    first, second = args

    def con2(ev: Evaluator, env: Any) -> Any:
        if ev.depth >= ev.depth_cap:
            raise _too_deep(ev)
        steps = ev.steps + 1
        ev.steps = steps
        if steps > ev.limit:
            raise _over_budget(ev)
        items = [first(ev, env), second(ev, env)]
        ev.allocations += 1
        return VCon(name, items)
    return con2


# The application codes below evaluate the head — a global variable
# *name* read inline, else *fn_code* — then build the arguments, then
# enter a closure or primitive that they saturate exactly; anything
# else goes through _apply.

def _app1(name: Optional[str], fn_code: Optional[Callable],
          arg0: Callable) -> Callable:
    def app1(ev: Evaluator, env: Any) -> Any:
        if name:
            if ev.depth >= ev.depth_cap:
                raise _too_deep(ev)
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev.limit:
                raise _over_budget(ev)
            try:
                fn = ev.globals[name]
            except KeyError:
                raise _unbound(name) from None
            if type(fn) is Thunk:
                fn = fn.value or ev.force(fn)
        else:
            fn = fn_code(ev, env)
        a = arg0(ev, env)
        kind = type(fn)
        if kind is VClosure:
            lam = fn.lam
            if lam.arity == 1 and not fn.applied:
                ev.fun_calls += 1
                return lam.body, [fn.env, a, *lam.pad]
        elif kind is VPrim and fn.arity == 1 and not fn.applied:
            ev.prim_calls += 1
            result = fn.fn(ev, a)
            if type(result) is Thunk:
                result = ev.force(result)
            return result
        return _apply(ev, fn, [a])
    return app1


def _app2(name: Optional[str], fn_code: Optional[Callable],
          arg0: Callable, arg1: Callable) -> Callable:
    def app2(ev: Evaluator, env: Any) -> Any:
        if name:
            if ev.depth >= ev.depth_cap:
                raise _too_deep(ev)
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev.limit:
                raise _over_budget(ev)
            try:
                fn = ev.globals[name]
            except KeyError:
                raise _unbound(name) from None
            if type(fn) is Thunk:
                fn = fn.value or ev.force(fn)
        else:
            fn = fn_code(ev, env)
        a = arg0(ev, env)
        b = arg1(ev, env)
        kind = type(fn)
        if kind is VClosure:
            lam = fn.lam
            if lam.arity == 2 and not fn.applied:
                ev.fun_calls += 1
                return lam.body, [fn.env, a, b, *lam.pad]
        elif kind is VPrim and fn.arity == 2 and not fn.applied:
            ev.prim_calls += 1
            result = fn.fn(ev, a, b)
            if type(result) is Thunk:
                result = ev.force(result)
            return result
        return _apply(ev, fn, [a, b])
    return app2


def _app3(name: Optional[str], fn_code: Optional[Callable],
          arg0: Callable, arg1: Callable, arg2: Callable) -> Callable:
    def app3(ev: Evaluator, env: Any) -> Any:
        if name:
            if ev.depth >= ev.depth_cap:
                raise _too_deep(ev)
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev.limit:
                raise _over_budget(ev)
            try:
                fn = ev.globals[name]
            except KeyError:
                raise _unbound(name) from None
            if type(fn) is Thunk:
                fn = fn.value or ev.force(fn)
        else:
            fn = fn_code(ev, env)
        a = arg0(ev, env)
        b = arg1(ev, env)
        c = arg2(ev, env)
        if type(fn) is VClosure:
            lam = fn.lam
            if lam.arity == 3 and not fn.applied:
                ev.fun_calls += 1
                return lam.body, [fn.env, a, b, c, *lam.pad]
        return _apply(ev, fn, [a, b, c])
    return app3


# --------------------------------------------------------------------------
# Result extraction
# --------------------------------------------------------------------------

def value_to_python(evaluator: Evaluator, value: Any) -> Any:
    """Convert a core value to a Python object: Int/Float/Char to their
    Python counterparts, Bool to bool, [Char] to str, other lists to
    list, tuples to tuple, other constructors to ``(name, args...)``."""
    value = evaluator.force(value)
    if isinstance(value, VInt):
        return value.value
    if isinstance(value, VFloat):
        return value.value
    if isinstance(value, VChar):
        return value.value
    if isinstance(value, VDict):
        return ("<dict>", value.tag)
    if isinstance(value, VTuple):
        return tuple(value_to_python(evaluator, i) for i in value.items)
    if isinstance(value, VCon):
        if value.name == "True":
            return True
        if value.name == "False":
            return False
        if value.name == "()":
            return ()
        if value.name in ("[]", ":"):
            items = []
            node: Value = value
            while True:
                node = evaluator.force(node)
                if isinstance(node, VCon) and node.name == "[]":
                    break
                assert isinstance(node, VCon) and node.name == ":"
                items.append(value_to_python(evaluator, node.args[0]))
                node = node.args[1]
            if items and all(isinstance(i, str) and len(i) == 1
                             for i in items):
                return "".join(items)
            return items
        return (value.name,
                *[value_to_python(evaluator, a) for a in value.args])
    if isinstance(value, Value):
        # what is left is a function: a closure, primitive or partial
        # constructor application
        return f"<function {getattr(value, 'name', '')}>"
    raise EvalError(f"cannot convert value {value!r}")


#: Stack size, in MB, of every thread that runs interpreted evaluation:
#: it nests Python frames deeply, and a default-sized stack overflows
#: fatally, below Python.  The memory is virtual: untouched pages cost
#: nothing.
BIG_STACK_MB = 512

#: Recursion limit while big-stack threads run; a 512 MB stack holds this
#: many interpreted frames comfortably.
BIG_STACK_RECURSION_LIMIT = 1_000_000

_big_stack_lock = threading.Lock()
_big_stack_active = 0
_big_stack_saved_limit = 0
#: ``marked`` is set on threads started with a big stack for good
_big_stack_thread = threading.local()


def mark_big_stack() -> None:
    """Declare the calling thread, started with a :data:`BIG_STACK_MB`
    stack, a big-stack thread for its lifetime: :func:`with_big_stack`
    runs inline on it.  It counts as a running big-stack thread from
    now on, so the raised recursion limit is never restored under it.
    """
    global _big_stack_active
    with _big_stack_lock:
        if sys.getrecursionlimit() < BIG_STACK_RECURSION_LIMIT:
            sys.setrecursionlimit(BIG_STACK_RECURSION_LIMIT)
        _big_stack_active += 1
    _big_stack_thread.marked = True


def with_big_stack(fn: Callable[[], Any]) -> Any:
    """Run *fn* on a thread with a large stack — deep recursion in
    interpreted programs nests Python frames.  On a thread marked by
    :func:`mark_big_stack` (the compile server's request threads) that
    is the calling thread; elsewhere *fn* runs on a new thread.

    The recursion limit and ``threading.stack_size`` are process-global,
    so concurrent callers coordinate through a lock and a nesting count:
    the limit is raised when the first big-stack thread starts and
    restored only when the last one finishes (restoring earlier would
    yank the floor out from under a thread that is still deep).
    """
    global _big_stack_active, _big_stack_saved_limit
    if getattr(_big_stack_thread, "marked", False):
        return fn()

    result: List[Any] = []
    error: List[BaseException] = []

    def runner() -> None:
        try:
            result.append(fn())
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            error.append(exc)

    with _big_stack_lock:
        if _big_stack_active == 0:
            _big_stack_saved_limit = sys.getrecursionlimit()
        # Raised whenever it is low, not only by the first thread: a
        # marked thread keeps the count up, and something else may have
        # lowered the limit since.
        if sys.getrecursionlimit() < BIG_STACK_RECURSION_LIMIT:
            sys.setrecursionlimit(BIG_STACK_RECURSION_LIMIT)
        _big_stack_active += 1
        # stack_size is global too: set it, start the thread (which
        # snapshots it), and reset before releasing the lock.
        threading.stack_size(BIG_STACK_MB * 1024 * 1024)
        try:
            thread = threading.Thread(target=runner)
            thread.start()
        except BaseException:
            _big_stack_active -= 1
            if (_big_stack_active == 0
                    and sys.getrecursionlimit() == BIG_STACK_RECURSION_LIMIT):
                sys.setrecursionlimit(_big_stack_saved_limit)
            raise
        finally:
            threading.stack_size(0)
    try:
        thread.join()
    finally:
        with _big_stack_lock:
            _big_stack_active -= 1
            if (_big_stack_active == 0
                    and sys.getrecursionlimit() == BIG_STACK_RECURSION_LIMIT):
                sys.setrecursionlimit(_big_stack_saved_limit)
    if error:
        raise error[0]
    return result[0]
