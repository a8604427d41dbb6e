"""Specialisation: type-specific clones of overloaded functions (§9).

    "It is possible to completely eliminate dynamic method dispatch
    within an overloaded function at specific overloadings by creating
    type specific clones of overloaded functions."

The pass finds applications of an overloaded top-level function to
*constant* dictionary arguments (dictionary constructors applied to
constant dictionaries, all the way down), creates one clone per
distinct dictionary vector, and rewrites the call sites.  Inside a
clone, the now-known dictionaries are simplified away:

* a selector application becomes a tuple selection;
* a selection from a known dictionary constructor becomes the selected
  slot — a direct call to the instance's method implementation;
* recursive calls to the original function at the same dictionaries
  become calls to the clone itself.

Method implementations are themselves overloaded functions (over the
instance context), so specialisation cascades through them; a clone
budget (``options.specialize_budget``) guarantees termination even
under polymorphic recursion.

The :class:`Specializer` runs in two configurations:

* **whole-program** (the classic ``specialize`` pass): every constant-
  dictionary call site is a candidate;
* **cross-module** (the link-time ``specialize-xmodule`` pass): only
  call sites whose caller and callee live in *different* modules are
  roots, and the body of a callee from another user module comes from
  the **unfolding** its interface shipped (see
  :mod:`repro.specialize.unfold`) — exactly what a build against
  ``.ri`` files alone could see.  Cascades inside generated clones are
  unrestricted; the filter applies to original bindings only, and
  prelude bindings, which hold no cross-module call, are not walked.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.coreir.fv import live_let_binders
from repro.coreir.syntax import (
    CApp,
    CDict,
    CLam,
    CLet,
    CoreBinding,
    CoreExpr,
    CoreProgram,
    CSel,
    CVar,
    app_spine,
    capp,
    map_subexprs,
    map_subexprs_scoped,
)
from repro.transform.subst import substitute
from repro.util.names import specialized_name

#: Default clone budget — the :class:`~repro.options.CompilerOptions`
#: field ``specialize_budget`` starts here; kept as a module constant
#: for callers that drive the specializer directly.
CLONE_BUDGET = 400

#: Fuel for the local simplifier (nodes rewritten per clone body).
SIMPLIFY_FUEL = 10_000

#: Origin-map value for bindings that predate every module (the
#: prelude core and link-generated selectors).
PRELUDE_ORIGIN = "<prelude>"

#: Composite dictionary keys wider than this are interned to a short
#: alias while still being built — under polymorphic recursion the
#: textual key doubles per clone level, so an unbounded key is
#: exponential in the clone depth.
_MAX_KEY_WIDTH = 64

#: Deepest dictionary nesting still treated as a specialisation
#: candidate.  Polymorphic recursion manufactures a *new, deeper*
#: constant dictionary per clone level ad infinitum; past this depth
#: the call keeps its dictionary arguments (always correct — just
#: unspecialised), cutting the cascade off long before the clone
#: budget burns down and before the shared dictionary DAGs grow
#: exponential path counts in the body walks.
_MAX_DICT_DEPTH = 8

@dataclass
class SpecializeReport:
    """What one specializer run did — feeds ``compile_stats.phases``
    counters and the budget-exhaustion warning."""

    clones_created: int = 0
    budget_exhausted: bool = False
    #: names of the clones created, in creation order
    clone_names: List[str] = field(default_factory=list)
    #: clones whose body came from an imported unfolding
    from_unfoldings: int = 0


class Specializer:
    """One specialisation run over *program*.

    *origin* maps top-level binding names to the module that defined
    them (:data:`PRELUDE_ORIGIN` for prelude bindings).  When
    *xmodule_only* is set, a call site in an original binding is a
    specialisation root only if its callee's origin differs from the
    caller's — the cross-module calls that separate compilation left
    dispatching through dictionaries.  *unfoldings* maps names to
    :class:`~repro.specialize.unfold.Unfolding` objects; in
    cross-module mode the body of a callee defined in another user
    module is taken from there (no unfolding ⇒ no clone), so the
    interface file really is the only channel for cross-module bodies.
    """

    def __init__(self, program: CoreProgram,
                 budget: int = CLONE_BUDGET,
                 origin: Optional[Mapping[str, str]] = None,
                 unfoldings: Optional[Mapping[str, object]] = None,
                 xmodule_only: bool = False) -> None:
        self.by_name: Dict[str, CoreBinding] = {
            b.name: b for b in program.bindings}
        self.order = [b.name for b in program.bindings]
        self.clones: Dict[Tuple[str, str], str] = {}
        self.new_bindings: List[CoreBinding] = []
        self.budget = budget
        self.origin: Mapping[str, str] = origin or {}
        self.unfoldings: Mapping[str, object] = unfoldings or {}
        self.xmodule_only = xmodule_only
        self.report = SpecializeReport()
        #: origin of the binding currently being rewritten; None inside
        #: clone bodies (cascades are never origin-filtered)
        self._caller_origin: Optional[str] = None
        self._in_clone = False
        #: per-run memo for const_dict_key, keyed by expression
        #: identity.  Substitution shares dictionary subexpressions, so
        #: under polymorphic recursion the dict argument at clone depth
        #: k is a DAG with 2^k *paths* — without the memo the key walk
        #: re-renders every path and the budget never gets a say.  The
        #: value stores the keyed expression itself: id() alone is only
        #: unique among live objects, so the entry must pin its key
        #: object (and lookups re-check identity) or a freed
        #: expression's recycled id would serve a stale answer.
        self._key_memo: Dict[
            int, Tuple[CoreExpr, Optional[Tuple[str, int]]]] = {}

    # --------------------------------------------------- dictionary forms

    def const_dict_key(self, expr: CoreExpr) -> Optional[str]:
        """A canonical key when *expr* is a compile-time-constant
        dictionary expression of bounded nesting depth, else None.

        Memoised by expression identity (substitution shares
        dictionary subexpressions, so the naive walk revisits every
        *path* through the DAG), keys wider than
        :data:`_MAX_KEY_WIDTH` are interned to a short alias, and
        nesting deeper than :data:`_MAX_DICT_DEPTH` disqualifies the
        site — the three bounds that keep polymorphic recursion from
        driving the specializer exponential.
        """
        info = self._key_info(expr)
        return None if info is None else info[0]

    def _key_info(self, expr: CoreExpr) -> Optional[Tuple[str, int]]:
        """(key, nesting depth) for a constant dictionary, memoised."""
        cached = self._key_memo.get(id(expr))
        if cached is not None and cached[0] is expr:
            return cached[1]
        info = self._key_info_uncached(expr)
        self._key_memo[id(expr)] = (expr, info)
        return info

    def _key_info_uncached(self, expr: CoreExpr
                           ) -> Optional[Tuple[str, int]]:
        head, args = app_spine(expr)
        if not isinstance(head, CVar):
            return None
        binding = self.by_name.get(head.name)
        if binding is None or binding.kind != "dict":
            return None
        if len(args) != binding.dict_arity:
            return None
        keys = []
        depth = 1
        for a in args:
            child = self._key_info(a)
            if child is None:
                return None
            keys.append(child[0])
            depth = max(depth, child[1] + 1)
        if depth > _MAX_DICT_DEPTH:
            return None
        if not keys:
            return head.name, depth
        key = f"{head.name}({','.join(keys)})"
        if len(key) > _MAX_KEY_WIDTH:
            key = _short_key(key)
        return key, depth

    # ------------------------------------------------------------ rewrite

    def run(self) -> CoreProgram:
        out: List[CoreBinding] = []
        for name in self.order:
            b = self.by_name[name]
            origin = self.origin.get(name, PRELUDE_ORIGIN)
            # In cross-module mode a prelude binding holds no root: its
            # free names are prelude bindings (no module may redefine
            # one) and the rest are its own local binders (never roots),
            # so none of its calls leaves its module.
            if b.kind in ("selector", "dict") or (
                    self.xmodule_only and origin == PRELUDE_ORIGIN):
                out.append(b)
                continue
            self._caller_origin = origin
            self._in_clone = False
            expr = self.rewrite(b.expr)
            # Identity-preserving when no call site was specialised —
            # the lint cache skips bindings that pass through unchanged.
            out.append(b if expr is b.expr else replace(b, expr=expr))
        # Clone generation may enqueue further clones.
        self._in_clone = True
        self._caller_origin = None
        while self.new_bindings:
            clone = self.new_bindings.pop(0)
            clone = replace(clone, expr=self.rewrite(clone.expr))
            out.append(clone)
            self.by_name[clone.name] = clone
        return CoreProgram(out)

    def _is_root(self, callee: str) -> bool:
        """In cross-module mode, only calls that leave the caller's
        module start a specialisation (cascades inside clones always
        qualify — they inherit the cross-module root's justification)."""
        if not self.xmodule_only:
            return True
        if self._in_clone:
            return True
        callee_origin = self.origin.get(callee, PRELUDE_ORIGIN)
        return callee_origin != self._caller_origin

    def rewrite(self, expr: CoreExpr,
                shadowed: frozenset = frozenset()) -> CoreExpr:
        """Clone the constant-dictionary calls in *expr*.  *shadowed*
        holds the top-level names a local binder in scope hides: a call
        through one of them calls the local function, so it is never a
        root."""
        head, args = app_spine(expr)
        if isinstance(head, CVar) and args and head.name not in shadowed:
            target = self.by_name.get(head.name)
            if (target is not None and target.dict_arity > 0
                    and target.kind in ("user", "impl", "default")
                    and len(args) >= target.dict_arity
                    and self._is_root(head.name)):
                dict_args = args[:target.dict_arity]
                keys = [self.const_dict_key(a) for a in dict_args]
                if all(k is not None for k in keys):
                    clone_name = self.clone_of(head.name, dict_args,
                                               ",".join(keys))  # type: ignore[arg-type]
                    if clone_name is not None:
                        rest = [self.rewrite(a, shadowed)
                                for a in args[target.dict_arity:]]
                        return capp(CVar(clone_name), *rest)
        return map_subexprs_scoped(expr, self.rewrite, shadowed, self._hide)

    def _hide(self, shadowed: frozenset, binders) -> frozenset:
        """*shadowed* plus the top-level names among *binders*."""
        hidden = [name for name in binders if name in self.by_name]
        return shadowed.union(hidden) if hidden else shadowed

    def _clone_source(self, fname: str) -> Optional[Tuple[CoreExpr, int]]:
        """The lambda to clone from and its dictionary arity.

        Cross-module mode takes the body of a callee defined in a user
        module from its interface's unfolding — the merged core is off
        limits (a real separate linker would not have it); without an
        unfolding the call keeps its dictionaries.  Prelude bodies are
        always at hand (every build embeds the prelude core)."""
        original = self.by_name[fname]
        if self.xmodule_only and \
                self.origin.get(fname, PRELUDE_ORIGIN) != PRELUDE_ORIGIN:
            unfolding = self.unfoldings.get(fname)
            if unfolding is None:
                return None
            self.report.from_unfoldings += 1
            return unfolding.expr, unfolding.dict_arity
        return original.expr, original.dict_arity

    def clone_of(self, fname: str, dict_args: List[CoreExpr],
                 key: str) -> Optional[str]:
        cache_key = (fname, key)
        existing = self.clones.get(cache_key)
        if existing is not None:
            return existing
        if self.budget <= 0:
            self.report.budget_exhausted = True
            return None
        original = self.by_name[fname]
        source = self._clone_source(fname)
        if source is None:
            return None
        expr, dict_arity = source
        if not isinstance(expr, CLam) or len(expr.params) < dict_arity:
            return None
        self.budget -= 1
        short = _short_key(key)
        clone_name = specialized_name(fname, short)
        self.clones[cache_key] = clone_name
        params = expr.params
        anns = expr.anns
        body: CoreExpr
        if len(params) > dict_arity:
            # The clone sheds the dictionary parameters, so its lambda
            # keeps only the value-parameter annotations.
            body = CLam(params[dict_arity:], expr.body,
                        anns[dict_arity:] if anns is not None else None)
        else:
            body = expr.body
        subst = {p: d for p, d in zip(params[:dict_arity], dict_args)}
        body = substitute(body, subst)
        body = simplify(body, self.by_name, SIMPLIFY_FUEL)
        # Self-calls at the same dictionaries become self-calls of the
        # clone (handled by the rewrite pass when the clone is emitted).
        # A clone is monomorphic in its dictionaries: dict_arity 0 and
        # no scheme/dict-class annotations (the original's would lie).
        self.report.clones_created += 1
        self.report.clone_names.append(clone_name)
        self.new_bindings.append(
            CoreBinding(clone_name, body, original.kind, 0,
                        provenance=self._provenance(fname, short)))
        return clone_name

    def _provenance(self, fname: str, short: str) -> str:
        origin = self.origin.get(fname, PRELUDE_ORIGIN) if self.origin \
            else None
        where = ""
        if origin == PRELUDE_ORIGIN:
            where = ", body from the prelude"
        elif origin is not None:
            where = f", unfolding from module '{origin}'"
        return f"clone of {fname} at <{short}>{where}"


#: The ``d$`` that begins each dictionary name in a key
#: (``d$Ord$List(d$Ord$Int)``), not one that ends a class name (``Ord$``).
_DICT_PREFIX = re.compile(r"(?:^|(?<=[(,]))d\$")


def _short_key(key: str) -> str:
    """Human-readable but bounded clone suffix.

    Wide composite keys collapse to ``k<hash>`` where the hash is a
    content digest of the key — the alias is a pure function of the
    dictionary vector, so clone names and provenance are identical
    across processes and build orders (reproducible emitted Python and
    dumps), and the long-lived compile server carries no alias table.
    """
    if len(key) <= 48:
        return _DICT_PREFIX.sub("", key)
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:10]
    return f"k{digest}"


# --------------------------------------------------------------------------
# The local simplifier
# --------------------------------------------------------------------------

def simplify(expr: CoreExpr, by_name: Dict[str, CoreBinding],
             fuel: int) -> CoreExpr:
    """Reduce dictionary plumbing inside a specialised body.

    Tracks let-bound dictionary tuples (including the ``dict$this``
    knot produced for defaulted method slots) so selections through
    them reduce to direct slot expressions; dead dictionary bindings
    are then dropped.
    """
    state = {"fuel": fuel}

    def go(e: CoreExpr, env: Dict[str, CoreExpr]) -> CoreExpr:
        if state["fuel"] <= 0:
            return e
        if isinstance(e, CLet):
            inner = dict(env)
            # Bindings visible to RHSs (recursive) and body alike; only
            # dictionary-shaped RHSs are tracked.
            for name, rhs in e.binds:
                if isinstance(rhs, CDict):
                    inner[name] = rhs
                else:
                    inner.pop(name, None)
            rhs_env = inner if e.recursive else env
            binds = [(n, go(rhs, rhs_env)) for n, rhs in e.binds]
            for name, rhs in binds:
                if isinstance(rhs, CDict):
                    inner[name] = rhs
            body = go(e.body, inner)
            e = _drop_dead_dict_binds(CLet(binds, body, e.recursive))
            return e
        if isinstance(e, CLam):
            inner = dict(env)
            for p in e.params:
                inner.pop(p, None)
            return CLam(list(e.params), go(e.body, inner), e.anns)
        e = map_subexprs(e, lambda sub: go(sub, env))
        changed = True
        while changed and state["fuel"] > 0:
            changed = False
            # selector application -> selection
            if isinstance(e, CApp):
                head, args = app_spine(e)
                if isinstance(head, CVar) and args:
                    binding = by_name.get(head.name)
                    if binding is not None and binding.kind == "selector" \
                            and isinstance(binding.expr, CLam) \
                            and len(args) >= len(binding.expr.params):
                        n = len(binding.expr.params)
                        inlined = substitute(
                            binding.expr.body,
                            dict(zip(binding.expr.params, args[:n])))
                        e = capp(go(inlined, env), *args[n:])
                        state["fuel"] -= 1
                        changed = True
                        continue
            # selection pushed through let
            if isinstance(e, CSel) and isinstance(e.expr, CLet):
                inner_let = e.expr
                e = CLet(inner_let.binds,
                         CSel(e.index, e.arity, inner_let.body, e.from_dict),
                         inner_let.recursive)
                e = go(e, env)
                state["fuel"] -= 1
                changed = True
                continue
            # selection from a known dictionary
            if isinstance(e, CSel):
                target = e.expr
                if isinstance(target, CDict):
                    e = go(target.items[e.index], env)
                    state["fuel"] -= 1
                    changed = True
                    continue
                if isinstance(target, CVar) and target.name in env:
                    e = go(env[target.name].items[e.index], env)
                    state["fuel"] -= 1
                    changed = True
                    continue
                inlined = _inline_dict(target, by_name)
                if inlined is not None:
                    e = CSel(e.index, e.arity, go(inlined, env), e.from_dict)
                    state["fuel"] -= 1
                    changed = True
                    continue
        return e

    return go(expr, {})


def _drop_dead_dict_binds(let: CLet) -> CoreExpr:
    """Remove let-bound dictionaries that are no longer referenced.

    Liveness (including the recursive fixpoint that lets a
    self-referential ``dict$this`` knot die once its selections are
    reduced away) is :func:`repro.coreir.fv.live_let_binders` — the
    same analysis the lint and the other transforms use.
    """
    used = live_let_binders(let.binds, let.body, let.recursive)
    binds = [(n, rhs) for n, rhs in let.binds
             if n in used or not isinstance(rhs, CDict)]
    if not binds:
        return let.body
    return CLet(binds, let.body, let.recursive)


def _inline_dict(expr: CoreExpr,
                 by_name: Dict[str, CoreBinding]) -> Optional[CoreExpr]:
    """Inline a constant dictionary reference/application one step."""
    head, args = app_spine(expr)
    if not isinstance(head, CVar):
        return None
    binding = by_name.get(head.name)
    if binding is None or binding.kind != "dict":
        return None
    body = binding.expr
    if isinstance(body, CLam):
        if len(args) != len(body.params):
            return None
        return substitute(body.body, dict(zip(body.params, args)))
    if args:
        return None
    return body


def specialize_program(program: CoreProgram,
                       budget: int = CLONE_BUDGET) -> CoreProgram:
    """Create clones for every overloaded call at constant dictionaries
    and rewrite call sites (section 9)."""
    return Specializer(program, budget=budget).run()
