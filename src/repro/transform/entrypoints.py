"""Inner entry points for recursive overloaded functions (§6.3, §7).

    "since any dictionaries passed to a recursive call remain unchanged
    from the original entry to the function, the need to pass
    dictionaries to inner recursive calls can be eliminated by using an
    inner entry point where the dictionaries have already been bound."

For a top-level binding

    f = \\d1 .. dk x .. -> ... (f d1 .. dk) e ...

every self-application to exactly the original dictionary parameters is
replaced by a local recursive binding::

    f = \\d1 .. dk -> letrec f' = \\x .. -> ... f' e ... in f'

Bindings whose self-references are not all of that shape (for instance
``f`` passed higher-order, or applied to different dictionaries by
polymorphic recursion through a signature) are left untouched.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.coreir.fv import free_vars
from repro.coreir.syntax import (
    CApp,
    CLam,
    CLet,
    CoreBinding,
    CoreExpr,
    CoreProgram,
    CVar,
    app_spine,
    map_subexprs,
)


def add_inner_entry_points(program: CoreProgram,
                           done: Sequence[CoreBinding] = ()) -> CoreProgram:
    """Give every eligible binding of *program* an inner entry point.
    Each binding is rewritten on its own, so *done*, the transformed
    form of the first ``len(done)`` bindings, is spliced in as it is."""
    return CoreProgram(list(done) + [_transform_binding(b) or b for b in
                                     program.bindings[len(done):]])


def _transform_binding(b: CoreBinding) -> Optional[CoreBinding]:
    if b.dict_arity <= 0:
        return None
    if not isinstance(b.expr, CLam) or len(b.expr.params) < b.dict_arity:
        return None
    params = b.expr.params
    dict_params = params[:b.dict_arity]
    rest_params = params[b.dict_arity:]
    body = b.expr.body
    if b.name not in free_vars(body):
        return None  # not recursive
    inner_name = f"{b.name}$enter"

    ok = True

    def rewrite(expr: CoreExpr) -> CoreExpr:
        nonlocal ok
        if not ok:
            return expr
        head, args = app_spine(expr)
        if isinstance(head, CVar) and head.name == b.name:
            if (len(args) >= b.dict_arity
                    and all(isinstance(a, CVar) and a.name == p
                            for a, p in zip(args, dict_params))):
                out: CoreExpr = CVar(inner_name)
                for a in args[b.dict_arity:]:
                    out = CApp(out, rewrite(a))
                return out
            ok = False
            return expr
        if isinstance(expr, CVar) and expr.name == b.name:
            # Bare reference (higher-order use): cannot transform.
            ok = False
            return expr
        if isinstance(expr, CLam) and b.name in expr.params:
            return expr  # shadowed below here
        if isinstance(expr, CLet) and any(n == b.name for n, _ in expr.binds):
            return expr  # shadowed
        return map_subexprs(expr, rewrite)

    new_body = rewrite(body)
    if not ok:
        return None
    # The original lambda's annotations split at the dictionary/value
    # boundary: the entry lambda keeps the dictionary-parameter
    # annotations, the inner entry point the rest.
    anns = b.expr.anns
    dict_anns = anns[:b.dict_arity] if anns is not None else None
    rest_anns = anns[b.dict_arity:] if anns is not None else None
    inner: CoreExpr
    if rest_params:
        inner = CLam(list(rest_params), new_body, rest_anns)
    else:
        inner = new_body
        if b.name in free_vars(new_body):
            # A zero-argument recursive value would loop; leave it.
            return None
    entry = CLam(list(dict_params),
                 CLet([(inner_name, inner)], CVar(inner_name),
                      recursive=True),
                 dict_anns)
    return replace(b, expr=entry)
