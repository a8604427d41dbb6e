"""The core intermediate representation.

A deliberately small untyped language::

    e ::= x | lit | K | e e | \\x1 .. xn -> e
        | let[rec] { x = e; ... } in e
        | case e of { K x1..xk -> e ; ... ; lit -> e ; ... ; _ -> e }
        | (e1, ..., en)            -- tuple
        | dict(e1, ..., en)        -- dictionary tuple (instrumented)
        | sel_i/n e                -- tuple/dictionary selection

Dictionaries are ordinary tuples operationally; the distinct node kinds
(:class:`CDict`, :class:`CSel` with ``from_dict``) exist so the
evaluator can count dictionary constructions and method selections —
the two run-time costs the paper attributes to type classes
(section 9).

The language stays *operationally* untyped, but binders may carry
optional annotations (:class:`Ann` on :class:`CLam` parameters and
:class:`CAlt` binders; a type scheme and dictionary-parameter classes
on :class:`CoreBinding`).  Translation emits them from the inference
results instead of discarding them; the transforms preserve or update
them; ``repro.coreir.lint`` checks them after every pass (see
docs/CORE.md).  Annotations never change evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


@dataclass(slots=True)
class Ann:
    """An optional binder annotation.

    ``type`` is a rendered type (stable positional variable names, the
    same rendering ``scheme_str`` uses), carried for dumps and docs;
    ``dict_class`` names the class whose dictionary the binder receives
    when the binder is a dictionary parameter.  Both default to None —
    an :class:`Ann` records whatever inference knew, no more.
    """

    type: Optional[str] = None
    dict_class: Optional[str] = None


class CoreExpr:
    """Base class for core expressions."""

    __slots__ = ()


@dataclass
class CVar(CoreExpr):
    __slots__ = ("name",)
    name: str


@dataclass
class CLit(CoreExpr):
    """Literal.  ``kind`` in {int, float, char, string}; string literals
    expand to character lists lazily at evaluation time."""

    __slots__ = ("value", "kind")
    value: Any
    kind: str


@dataclass
class CCon(CoreExpr):
    """A data constructor used as a (curried) value."""

    __slots__ = ("name", "arity")
    name: str
    arity: int


@dataclass
class CApp(CoreExpr):
    __slots__ = ("fn", "arg")
    fn: CoreExpr
    arg: CoreExpr


@dataclass(slots=True)
class CLam(CoreExpr):
    """``\\x1 .. xn -> body``.

    ``anns``, when present, is parallel to ``params`` (one entry per
    parameter, entries may be None).  Transforms that split, merge or
    drop parameters must keep the two lists in step — the lint checks
    the lengths agree.
    """

    params: List[str]
    body: CoreExpr
    anns: Optional[List[Optional[Ann]]] = None


@dataclass
class CLet(CoreExpr):
    __slots__ = ("binds", "body", "recursive")
    binds: List[Tuple[str, CoreExpr]]
    body: CoreExpr
    recursive: bool


@dataclass(slots=True)
class CAlt:
    """``K x1 .. xk -> body``.

    ``anns``, when present, is parallel to ``binders`` — the translator
    fills in the constructor's field types."""

    con_name: str
    binders: List[str]
    body: CoreExpr
    anns: Optional[List[Optional[Ann]]] = None


@dataclass
class CLitAlt:
    """``lit -> body`` (chars and unboxed ints from derived code)."""

    __slots__ = ("value", "kind", "body")
    value: Any
    kind: str
    body: CoreExpr


@dataclass
class CCase(CoreExpr):
    __slots__ = ("scrutinee", "alts", "lit_alts", "default")
    scrutinee: CoreExpr
    alts: List[CAlt]
    lit_alts: List[CLitAlt]
    default: Optional[CoreExpr]


@dataclass
class CTuple(CoreExpr):
    __slots__ = ("items",)
    items: List[CoreExpr]


@dataclass
class CDict(CoreExpr):
    """A dictionary tuple; evaluation counts as one dictionary
    construction."""

    __slots__ = ("items", "tag")
    items: List[CoreExpr]
    tag: str  # e.g. "Eq@[]" — which instance built it (for dumps)


@dataclass
class CSel(CoreExpr):
    """Select component *index* of an *arity*-tuple.

    ``from_dict`` marks dictionary selections — "a reference to a tuple
    element followed by a function call" is the paper's cost model for
    method dispatch, and this is the tuple-element reference."""

    __slots__ = ("index", "arity", "expr", "from_dict")
    index: int
    arity: int
    expr: CoreExpr
    from_dict: bool


@dataclass
class CoreBinding:
    """One top-level core definition."""

    name: str
    expr: CoreExpr
    kind: str = "user"  # user | default | impl | dict | selector | prim
    #: how many leading lambda parameters are dictionary parameters —
    #: the transforms (inner entry points, specialisation) key off this
    dict_arity: int = 0
    #: the binding's type scheme (a ``repro.core.types.Scheme``), when
    #: inference produced one; None for generated helpers.  The lint
    #: checks that the scheme's predicate list agrees with
    #: ``dict_arity``/``dict_classes``, so transforms that drop
    #: dictionary parameters must clear (or rewrite) this too.
    type_ann: Optional[Any] = None
    #: class constrained by each dictionary parameter, in parameter
    #: order; None when unannotated.  When present its length must
    #: equal ``dict_arity``.
    dict_classes: Optional[Tuple[str, ...]] = None
    #: where a generated binding came from — the specializer records
    #: "clone of f at <dict vector> ..." here; the pretty-printer shows
    #: it as a comment (``--dump-after=specialize``).  None for
    #: ordinary bindings.
    provenance: Optional[str] = None


@dataclass
class CoreProgram:
    """A complete translated program: an ordered list of top-level
    bindings (all mutually visible, i.e. one big letrec)."""

    bindings: List[CoreBinding] = field(default_factory=list)

    def names(self) -> List[str]:
        return [b.name for b in self.bindings]

    def binding(self, name: str) -> CoreBinding:
        for b in self.bindings:
            if b.name == name:
                return b
        raise KeyError(name)

    def extend(self, more: List[CoreBinding]) -> "CoreProgram":
        return CoreProgram(self.bindings + more)


# --------------------------------------------------------------------------
# Construction and traversal helpers
# --------------------------------------------------------------------------

def capp(fn: CoreExpr, *args: CoreExpr) -> CoreExpr:
    out = fn
    for a in args:
        out = CApp(out, a)
    return out


def app_spine(expr: CoreExpr) -> Tuple[CoreExpr, List[CoreExpr]]:
    args: List[CoreExpr] = []
    while isinstance(expr, CApp):
        args.append(expr.arg)
        expr = expr.fn
    args.reverse()
    return expr, args


# Free-variable analysis lives in repro.coreir.fv (shared with the
# transforms and the lint); re-exported here for the many existing
# importers.  The import sits below the class definitions because fv
# imports them from this module.
from repro.coreir.fv import free_vars  # noqa: E402


def map_subexprs(expr: CoreExpr, fn) -> CoreExpr:
    """Rebuild *expr* with *fn* applied to each immediate child.

    Binder annotations are preserved verbatim — the children change,
    the binders do not.  When every child maps to itself the original
    node is returned unchanged: transforms built on this walker
    preserve object identity for untouched subtrees, which the
    pass-manager lint cache relies on to skip re-checking them."""
    if isinstance(expr, CApp):
        f, a = fn(expr.fn), fn(expr.arg)
        if f is expr.fn and a is expr.arg:
            return expr
        return CApp(f, a)
    if isinstance(expr, CLam):
        body = fn(expr.body)
        if body is expr.body:
            return expr
        return CLam(list(expr.params), body, expr.anns)
    if isinstance(expr, CLet):
        binds = [(n, fn(e)) for n, e in expr.binds]
        body = fn(expr.body)
        if body is expr.body and all(
                new is old for (_, new), (_, old) in zip(binds, expr.binds)):
            return expr
        return CLet(binds, body, expr.recursive)
    if isinstance(expr, CCase):
        return _rebuild_case(
            expr, fn(expr.scrutinee), [fn(a.body) for a in expr.alts],
            [fn(a.body) for a in expr.lit_alts],
            fn(expr.default) if expr.default is not None else None)
    if isinstance(expr, CTuple):
        items = [fn(i) for i in expr.items]
        if all(n is o for n, o in zip(items, expr.items)):
            return expr
        return CTuple(items)
    if isinstance(expr, CDict):
        items = [fn(i) for i in expr.items]
        if all(n is o for n, o in zip(items, expr.items)):
            return expr
        return CDict(items, expr.tag)
    if isinstance(expr, CSel):
        sub = fn(expr.expr)
        if sub is expr.expr:
            return expr
        return CSel(expr.index, expr.arity, sub, expr.from_dict)
    return expr


def map_subexprs_scoped(expr: CoreExpr, fn, scope, extend) -> CoreExpr:
    """:func:`map_subexprs` for walks that track what is in scope.

    Each child is rewritten as ``fn(child, s)``.  For a child under
    binders of *expr* — a lambda's parameters, a let group's names (over
    its right-hand sides only when the let is recursive), a case
    alternative's binders — ``s`` is ``extend(scope, binders)``; for any
    other child it is *scope* itself.  Untouched nodes keep their
    identity, as with :func:`map_subexprs`."""
    if isinstance(expr, CApp):
        f, a = fn(expr.fn, scope), fn(expr.arg, scope)
        if f is expr.fn and a is expr.arg:
            return expr
        return CApp(f, a)
    if isinstance(expr, CLam):
        body = fn(expr.body, extend(scope, expr.params))
        if body is expr.body:
            return expr
        return CLam(list(expr.params), body, expr.anns)
    if isinstance(expr, CLet):
        inner = extend(scope, [n for n, _ in expr.binds])
        rhs_scope = inner if expr.recursive else scope
        binds = [(n, fn(e, rhs_scope)) for n, e in expr.binds]
        body = fn(expr.body, inner)
        if body is expr.body and all(
                new is old for (_, new), (_, old) in zip(binds, expr.binds)):
            return expr
        return CLet(binds, body, expr.recursive)
    if isinstance(expr, CCase):
        return _rebuild_case(
            expr, fn(expr.scrutinee, scope),
            [fn(a.body, extend(scope, a.binders)) for a in expr.alts],
            [fn(a.body, scope) for a in expr.lit_alts],
            fn(expr.default, scope) if expr.default is not None else None)
    return map_subexprs(expr, lambda sub: fn(sub, scope))


def _rebuild_case(expr: CCase, scrut: CoreExpr, alt_bodies: List[CoreExpr],
                  lit_bodies: List[CoreExpr],
                  default: Optional[CoreExpr]) -> CoreExpr:
    """*expr* with new children; *expr* itself when none changed."""
    if (scrut is expr.scrutinee and default is expr.default
            and all(b is a.body for b, a in zip(alt_bodies, expr.alts))
            and all(b is a.body for b, a in zip(lit_bodies, expr.lit_alts))):
        return expr
    return CCase(
        scrut,
        [CAlt(a.con_name, list(a.binders), b, a.anns)
         for a, b in zip(expr.alts, alt_bodies)],
        [CLitAlt(a.value, a.kind, b)
         for a, b in zip(expr.lit_alts, lit_bodies)],
        default)


def count_nodes(expr: CoreExpr) -> int:
    n = 1
    if isinstance(expr, CApp):
        return 1 + count_nodes(expr.fn) + count_nodes(expr.arg)
    if isinstance(expr, CLam):
        return 1 + count_nodes(expr.body)
    if isinstance(expr, CLet):
        return (1 + sum(count_nodes(e) for _, e in expr.binds)
                + count_nodes(expr.body))
    if isinstance(expr, CCase):
        n += count_nodes(expr.scrutinee)
        for alt in expr.alts:
            n += count_nodes(alt.body)
        for lalt in expr.lit_alts:
            n += count_nodes(lalt.body)
        if expr.default is not None:
            n += count_nodes(expr.default)
        return n
    if isinstance(expr, (CTuple, CDict)):
        return 1 + sum(count_nodes(i) for i in expr.items)
    if isinstance(expr, CSel):
        return 1 + count_nodes(expr.expr)
    return n
