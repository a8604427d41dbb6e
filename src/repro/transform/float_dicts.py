"""Dictionary hoisting — section 8.8.

    "many implementations of this definition will repeat the
    construction of the dictionary eqDList d at each step of the
    recursion.  One simple way to avoid this is to rewrite the
    definition in the form  eqList d = let eql = ... in ..."

This pass performs exactly that rewrite, mechanically: any application
of a *dictionary constructor* is floated outward to sit just inside the
binder of its deepest free variable.  If one or more lambdas stand
between that binder and the original site, the construction previously
re-ran on every call of those lambdas and now runs once per entry to
the binder — under call-by-need, once per dictionary, which is the
paper's improved translation.  Dictionaries are the only floated
expressions, making the pass a restricted (cheap, predictable) form of
the full-laziness transformation the paper cites.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Set, Tuple

from repro.coreir.fv import free_vars
from repro.coreir.syntax import (
    CAlt,
    CApp,
    CCase,
    CLam,
    CLet,
    CLitAlt,
    CoreBinding,
    CoreExpr,
    CoreProgram,
    CVar,
    app_spine,
    map_subexprs,
)
from repro.util.names import NameSupply


class _Frame:
    """One binder on the walk stack."""

    __slots__ = ("binders", "is_lambda", "floats")

    def __init__(self, binders: Set[str], is_lambda: bool) -> None:
        self.binders = binders
        self.is_lambda = is_lambda
        self.floats: List[Tuple[str, CoreExpr]] = []


class _Hoister:
    def __init__(self, dict_constructors: Set[str],
                 selectors: Set[str], names: NameSupply) -> None:
        self.dict_constructors = dict_constructors
        self.selectors = selectors
        self.names = names
        self.frames: List[_Frame] = []
        self.top_floats: List[Tuple[str, CoreExpr]] = []

    def binding(self, b: CoreBinding) -> CoreBinding:
        if b.kind in ("selector",):
            return b
        self.top_floats = []
        body = self.expr(b.expr)
        if self.top_floats:
            body = CLet(self.top_floats, body, recursive=True)
        if body is b.expr:
            return b
        # replace() keeps the scheme and dict-class annotations: the
        # binding's type and dictionary parameters are unchanged, only
        # the body moved.
        return replace(b, expr=body)

    # ------------------------------------------------------------- helpers

    def _dest_of(self, names: List[str]) -> int:
        """The frame index of the deepest frame binding any of *names*;
        -1 when every variable is global."""
        for i in range(len(self.frames) - 1, -1, -1):
            if any(n in self.frames[i].binders for n in names):
                return i
        return -1

    def _lambda_between(self, dest: int) -> bool:
        """Is there a lambda frame strictly inside *dest* (i.e. whose
        entry would re-run the expression at its original site)?"""
        return any(f.is_lambda for f in self.frames[dest + 1:])

    def _is_dict_construction(self, expr: CoreExpr) -> bool:
        """Dictionary constructions *and* method selections are
        floated — the paper's improved eqList binds both:
        ``let eql = eq (eqDList d); eqa = eq d in ...`` (section 8.8)."""
        head, args = app_spine(expr)
        if not isinstance(head, CVar):
            return False
        if args and head.name in self.dict_constructors:
            return True
        return len(args) == 1 and head.name in self.selectors

    def _float(self, expr: CoreExpr) -> Optional[CoreExpr]:
        """Try to hoist *expr* (a dictionary construction); returns the
        replacement variable, or None when hoisting gains nothing."""
        dest = self._dest_of(free_vars(expr))
        if not self._lambda_between(dest):
            return None
        name = self.names.fresh("hd")
        if dest < 0:
            self.top_floats.append((name, expr))
        else:
            frame = self.frames[dest]
            frame.floats.append((name, expr))
            # The float is itself a binder of that frame, so later
            # floats referencing it cannot escape past it.
            frame.binders.add(name)
        return CVar(name)

    # ---------------------------------------------------------------- walk

    def expr(self, expr: CoreExpr) -> CoreExpr:
        # Untouched subtrees come back as the same objects (see
        # map_subexprs), so a binding with nothing to hoist survives the
        # pass identically.
        if self._is_dict_construction(expr):
            head, args = app_spine(expr)
            new_args = [self.expr(a) for a in args]
            if all(n is o for n, o in zip(new_args, args)):
                rebuilt: CoreExpr = expr
            else:
                rebuilt = head
                for a in new_args:
                    rebuilt = CApp(rebuilt, a)
            replacement = self._float(rebuilt)
            return replacement if replacement is not None else rebuilt
        if isinstance(expr, CLam):
            frame = _Frame(set(expr.params), True)
            self.frames.append(frame)
            body = self.expr(expr.body)
            self.frames.pop()
            if frame.floats:
                # recursive=True: floated dictionaries may reference
                # each other (nested constructions), in either order.
                body = CLet(frame.floats, body, recursive=True)
            elif body is expr.body:
                return expr
            return CLam(list(expr.params), body, expr.anns)
        if isinstance(expr, CLet):
            frame = _Frame({n for n, _ in expr.binds}, False)
            self.frames.append(frame)
            binds = [(n, self.expr(rhs)) for n, rhs in expr.binds]
            body = self.expr(expr.body)
            self.frames.pop()
            recursive = expr.recursive
            if frame.floats:
                # Merge floats into the binding group so they are in
                # scope for the right-hand sides as well as the body.
                binds = binds + frame.floats
                recursive = True
            elif body is expr.body and all(
                    new is old
                    for (_, new), (_, old) in zip(binds, expr.binds)):
                return expr
            return CLet(binds, body, recursive)
        if isinstance(expr, CCase):
            scrut = self.expr(expr.scrutinee)
            changed = scrut is not expr.scrutinee
            alts = []
            for alt in expr.alts:
                frame = _Frame(set(alt.binders), False)
                self.frames.append(frame)
                body = self.expr(alt.body)
                self.frames.pop()
                if frame.floats:
                    body = CLet(frame.floats, body, recursive=True)
                if body is not alt.body:
                    changed = True
                alts.append(CAlt(alt.con_name, list(alt.binders), body,
                                 alt.anns))
            lit_alts = [CLitAlt(a.value, a.kind, self.expr(a.body))
                        for a in expr.lit_alts]
            changed = changed or any(
                n.body is not o.body for n, o in zip(lit_alts, expr.lit_alts))
            default = (self.expr(expr.default)
                       if expr.default is not None else None)
            if not changed and default is expr.default:
                return expr
            return CCase(scrut, alts, lit_alts, default)
        return map_subexprs(expr, self.expr)


def hoist_dictionaries(program: CoreProgram,
                       done: Sequence[CoreBinding] = (),
                       names: Optional[NameSupply] = None) -> CoreProgram:
    """Apply dictionary hoisting to every binding of *program*.

    *done* is the hoisted form of the program's first ``len(done)``
    bindings: it is spliced in as it is and only the bindings after it
    are walked, with floats named by *names* (default: a fresh supply),
    which must then count on from where hoisting *done* left it.  That
    is sound because hoisting one binding reads only the sets of
    dictionary-constructor and selector names, and bindings after
    *done* can add only names *done* never mentions (generated names
    are unique: a class, an instance or a method is declared once).
    """
    dict_constructors = {b.name for b in program.bindings
                         if b.kind == "dict"}
    selectors = {b.name for b in program.bindings if b.kind == "selector"}
    if not dict_constructors and not selectors:
        return program
    hoister = _Hoister(dict_constructors, selectors,
                       names if names is not None else NameSupply())
    return CoreProgram(list(done) + [hoister.binding(b) for b in
                                     program.bindings[len(done):]])
