"""Semantic types: the representation the paper's algorithm works on.

Following section 5 of the paper, type variables are *mutable* cells:

    "Each type variable has a value field which is either null
    (uninstantiated) or contains an instantiated type.  The context
    field is a list of classes attached to uninstantiated type
    variables."

We add two fields the paper introduces later:

* ``read_only`` (section 8.6) — set for variables created from a user
  signature; such a variable "cannot be instantiated or have its
  context augmented", which is how signatures are enforced;
* ``level`` — the let-nesting depth at which the variable was created.
  Generalization quantifies exactly the variables whose level is deeper
  than the binding's, and placeholder resolution case 3 ("the type
  variable may still be bound in an outer type environment") is the
  test ``level <= outer_level``.

Type *schemes* use ``TyGen`` indices for quantified variables, paired
with an ordered predicate list; the order of that list is the order of
dictionary parameters (section 6.2: "dictionaries can be passed in any
order so long as the same ordering is used consistently").
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.kinds import STAR, Kind, KFun, kfun
from repro.util.orderedset import OrderedSet

# --------------------------------------------------------------------------
# Mutation trail
#
# Type variables are mutable cells, so a failed inference leaves real
# substitutions behind.  The unifier's provenance machinery (see
# repro.core.unify) installs a *trail* — a per-thread undo log — for the
# duration of an inference episode; every destructive update below
# records its old value so the episode can be rolled back and its
# constraint set replayed during minimization.  The trail is
# thread-local because a process may run several inferencers on
# different threads (the compile server's executor).  When no trail is
# installed (the common case for any code outside an episode) the hooks
# cost one attribute check on the slow paths only.
# --------------------------------------------------------------------------

_TLS = threading.local()


def set_trail(trail: Optional[list]) -> Optional[list]:
    """Install *trail* as this thread's mutation trail; returns the
    previously installed one (so callers can nest and restore)."""
    prev = getattr(_TLS, "trail", None)
    _TLS.trail = trail
    return prev


def undo_trail(trail: list, mark: int = 0) -> None:
    """Pop trail entries down to *mark*, restoring each mutation in
    reverse order.  Entries are ``(kind, target, old)`` with kind one of
    ``"value"`` (TyVar.value), ``"level"`` (TyVar.level) or
    ``"context"`` (an OrderedSet's former items, as a tuple — restored
    *in place* because contexts may be aliased)."""
    while len(trail) > mark:
        kind, target, old = trail.pop()
        if kind == "value":
            target.value = old
        elif kind == "level":
            target.level = old
        else:  # "context"
            target.replace_with(old)


class Type:
    """Base class for semantic types."""

    def __repr__(self) -> str:
        return type_str(self)


class TyVar(Type):
    """A mutable type variable (see module docstring)."""

    __slots__ = ("id", "hint", "kind", "value", "context", "level", "read_only")
    _counter = 0

    def __init__(self, kind: Kind = STAR, level: int = 0,
                 hint: str = "t", read_only: bool = False) -> None:
        TyVar._counter += 1
        self.id = TyVar._counter
        self.hint = hint
        self.kind = kind
        self.value: Optional[Type] = None
        self.context: OrderedSet[str] = OrderedSet()
        self.level = level
        self.read_only = read_only

    @property
    def name(self) -> str:
        return f"{self.hint}{self.id}"


class TyCon(Type):
    """A type constructor: ``Int``, ``[]``, ``(->)``, ``(,)`` ..."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: Kind = STAR) -> None:
        self.name = name
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TyCon) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("TyCon", self.name))


class TyApp(Type):
    """Type application ``fn arg``."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn: Type, arg: Type) -> None:
        self.fn = fn
        self.arg = arg


class TyGen(Type):
    """A quantified variable inside a :class:`Scheme` (de Bruijn index)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


# --------------------------------------------------------------------------
# Built-in constructors
# --------------------------------------------------------------------------

ARROW = TyCon("->", kfun(STAR, STAR, STAR))
LIST_CON = TyCon("[]", KFun(STAR, STAR))
UNIT_CON = TyCon("()", STAR)

T_INT = TyCon("Int", STAR)
T_FLOAT = TyCon("Float", STAR)
T_CHAR = TyCon("Char", STAR)
T_BOOL = TyCon("Bool", STAR)


def tuple_con(arity: int) -> TyCon:
    """The *arity*-tuple constructor ``(,)``, ``(,,)``, ..."""
    name = "(" + "," * (arity - 1) + ")"
    return TyCon(name, kfun(*([STAR] * (arity + 1))))


def fn_type(arg: Type, res: Type) -> Type:
    return TyApp(TyApp(ARROW, arg), res)


def fn_types(args: Sequence[Type], res: Type) -> Type:
    out = res
    for a in reversed(args):
        out = fn_type(a, out)
    return out


def list_type(elem: Type) -> Type:
    return TyApp(LIST_CON, elem)


def tuple_type(items: Sequence[Type]) -> Type:
    out: Type = tuple_con(len(items))
    for item in items:
        out = TyApp(out, item)
    return out


T_STRING = list_type(T_CHAR)


# --------------------------------------------------------------------------
# Traversal helpers
# --------------------------------------------------------------------------

def prune(ty: Type) -> Type:
    """Chase instantiated variables to the representative type.

    Performs path compression along chains of instantiated variables so
    that repeated unification stays near-linear.  Iterative on purpose:
    instantiation chains can grow with the size of the input program,
    and a crashed host is worse than a slow one.
    """
    if not (isinstance(ty, TyVar) and ty.value is not None):
        return ty
    chain: List[TyVar] = []
    while isinstance(ty, TyVar) and ty.value is not None:
        chain.append(ty)
        ty = ty.value
    if len(chain) > 1:
        # Path compression is a real mutation: a variable bound before
        # the current episode may be re-pointed at a type bound during
        # it, so the trail must remember the old link (a single-link
        # chain — the common case — changes nothing and records
        # nothing).
        trail = getattr(_TLS, "trail", None)
        for var in chain[:-1]:
            if trail is not None:
                trail.append(("value", var, var.value))
            var.value = ty
    return ty


def spine(ty: Type) -> Tuple[Type, List[Type]]:
    """Decompose nested applications: ``T a b`` -> ``(T, [a, b])``."""
    args: List[Type] = []
    ty = prune(ty)
    while isinstance(ty, TyApp):
        args.append(ty.arg)
        ty = prune(ty.fn)
    args.reverse()
    return ty, args


def fn_parts(ty: Type) -> Optional[Tuple[Type, Type]]:
    """If *ty* is ``a -> b``, return ``(a, b)``."""
    head, args = spine(ty)
    if isinstance(head, TyCon) and head.name == "->" and len(args) == 2:
        return args[0], args[1]
    return None


def type_variables(ty: Type) -> List[TyVar]:
    """The uninstantiated variables of *ty* in first-occurrence order.

    Explicit-stack traversal: type terms can be as deep as the program
    that produced them, so no structural walk may use Python recursion.
    """
    out: List[TyVar] = []
    seen = set()
    stack: List[Type] = [ty]
    while stack:
        t = prune(stack.pop())
        if isinstance(t, TyVar):
            if t.id not in seen:
                seen.add(t.id)
                out.append(t)
        elif isinstance(t, TyApp):
            # Push arg first so fn is visited first (first-occurrence
            # order matches the old left-to-right recursive walk).
            stack.append(t.arg)
            stack.append(t.fn)
    return out


def occurs_in(var: TyVar, ty: Type) -> bool:
    stack: List[Type] = [ty]
    while stack:
        t = prune(stack.pop())
        if t is var:
            return True
        if isinstance(t, TyApp):
            stack.append(t.fn)
            stack.append(t.arg)
    return False


def adjust_levels(var_level: int, ty: Type) -> None:
    """Lower the level of every variable in *ty* to at most *var_level*.

    Called when a variable at *var_level* is instantiated to *ty*: any
    deeper variable inside *ty* now escapes to the shallower level, so
    that generalization never quantifies a variable that is reachable
    from an outer binding.
    """
    stack: List[Type] = [ty]
    while stack:
        t = prune(stack.pop())
        if isinstance(t, TyVar):
            if t.level > var_level:
                trail = getattr(_TLS, "trail", None)
                if trail is not None:
                    trail.append(("level", t, t.level))
                t.level = var_level
        elif isinstance(t, TyApp):
            stack.append(t.fn)
            stack.append(t.arg)


def kind_of(ty: Type) -> Kind:
    """The kind of a (well-kinded) semantic type."""
    ty = prune(ty)
    if isinstance(ty, TyVar):
        return ty.kind
    if isinstance(ty, TyCon):
        return ty.kind
    if isinstance(ty, TyGen):
        # A bare TyGen carries no kind; its kind lives in the owning
        # scheme's ``kinds`` list.  Callers that care instantiate first.
        return STAR
    assert isinstance(ty, TyApp)
    fn_kind = kind_of(ty.fn)
    if isinstance(fn_kind, KFun):
        return fn_kind.res
    return STAR


# --------------------------------------------------------------------------
# Predicates and schemes
# --------------------------------------------------------------------------

class Pred:
    """A class constraint ``C t`` (in schemes, ``t`` is a ``TyGen``).

    A multi-parameter constraint ``C t1 ... tn`` carries all its types
    in ``types`` (and ``type`` aliases ``types[0]`` so single-parameter
    consumers keep working); ``types`` is ``None`` for the ordinary
    single-parameter case.
    """

    __slots__ = ("class_name", "type", "types")

    def __init__(self, class_name: str, ty: Optional[Type] = None,
                 types: Optional[List[Type]] = None) -> None:
        self.class_name = class_name
        if types is not None and len(types) > 1:
            self.types: Optional[List[Type]] = list(types)
            self.type = self.types[0]
        else:
            self.type = types[0] if types else ty
            assert self.type is not None
            self.types = None

    def __repr__(self) -> str:
        if self.types is not None:
            args = " ".join(type_str(t, 2) for t in self.types)
            return f"{self.class_name} {args}"
        return f"{self.class_name} {type_str(self.type, 2)}"


class Scheme:
    """A type scheme ``forall a1..an. (preds) => type``.

    * ``kinds[i]`` is the kind of the i-th quantified variable;
    * ``preds`` is the *ordered* list of constraints — its order is the
      dictionary parameter order of the translated definition;
    * ``type`` contains ``TyGen`` nodes for the quantified variables.
    """

    __slots__ = ("kinds", "preds", "type")

    def __init__(self, kinds: List[Kind], preds: List[Pred], ty: Type) -> None:
        self.kinds = kinds
        self.preds = preds
        self.type = ty

    @property
    def is_overloaded(self) -> bool:
        return bool(self.preds)

    def instantiate(self, level: int,
                    fresh: Optional[Callable[[Kind, int], TyVar]] = None
                    ) -> Tuple[Type, List[Tuple[str, TyVar]], List[TyVar]]:
        """Create a fresh instance.

        Returns ``(type, pred_instances, fresh_vars)`` where
        ``pred_instances`` pairs each scheme predicate, in order, with
        the fresh variable it now constrains — exactly the list of
        placeholders an overloaded variable reference must receive
        (section 6.1).  Contexts are attached to the fresh variables.
        """
        if fresh is None:
            fresh = lambda kind, lvl: TyVar(kind, lvl)  # noqa: E731
        new_vars = [fresh(k, level) for k in self.kinds]
        preds_out: List[Tuple[str, TyVar]] = []
        for pred in self.preds:
            mp = pred.types
            if mp is not None:
                # Multi-parameter constraint: the types ride on the
                # placeholder (never on a variable's context — the §5
                # context machinery is single-parameter by design) and
                # resolve structurally against the instance patterns.
                targets = tuple(prune(_subst_gens(t, new_vars)) for t in mp)
                preds_out.append((pred.class_name, targets))
                continue
            target = prune(_subst_gens(pred.type, new_vars))
            assert isinstance(target, TyVar), \
                "scheme predicates must constrain quantified variables"
            target.context.add(pred.class_name)
            preds_out.append((pred.class_name, target))
        return _subst_gens(self.type, new_vars), preds_out, new_vars

    def __repr__(self) -> str:
        return scheme_str(self)


def _subst_gens(ty: Type, new_vars: List[TyVar]) -> Type:
    ty = prune(ty)
    if isinstance(ty, TyGen):
        return new_vars[ty.index]
    if isinstance(ty, TyApp):
        return TyApp(_subst_gens(ty.fn, new_vars), _subst_gens(ty.arg, new_vars))
    return ty


def generalize_over(gen_vars: List[TyVar], preds: List[Tuple[str, TyVar]],
                    ty: Type) -> Scheme:
    """Build a scheme quantifying *gen_vars* (which must be unbound).

    *preds* pairs class names with the variables they constrain; any
    pred on a variable outside *gen_vars* is an internal error.
    """
    index: Dict[int, int] = {v.id: i for i, v in enumerate(gen_vars)}

    def go(t: Type) -> Type:
        t = prune(t)
        if isinstance(t, TyVar):
            if t.id in index:
                return TyGen(index[t.id])
            return t
        if isinstance(t, TyApp):
            return TyApp(go(t.fn), go(t.arg))
        return t

    scheme_preds = []
    for cls, var in preds:
        assert var.id in index, f"predicate on unquantified variable {var}"
        scheme_preds.append(Pred(cls, TyGen(index[var.id])))
    return Scheme([v.kind for v in gen_vars], scheme_preds, go(ty))


# --------------------------------------------------------------------------
# Pretty printing
# --------------------------------------------------------------------------

_VAR_NAMES = "abcdefghijklmnopqrstuvwxyz"


def type_str(ty: Type, prec: int = 0,
             names: Optional[Dict[int, str]] = None) -> str:
    """Render a type.  Variables get stable single-letter names within
    one call; contexts are shown by :func:`qual_type_str`."""
    if names is None:
        names = {}
        for i, var in enumerate(type_variables(ty)):
            names[var.id] = _var_name(i)
    return _type_str(ty, prec, names)


def _var_name(i: int) -> str:
    if i < len(_VAR_NAMES):
        return _VAR_NAMES[i]
    return f"t{i}"


def _type_str(ty: Type, prec: int, names: Dict[int, str]) -> str:
    ty = prune(ty)
    if isinstance(ty, TyVar):
        return names.setdefault(ty.id, f"t{ty.id}")
    if isinstance(ty, TyGen):
        return f"g{ty.index}"
    if isinstance(ty, TyCon):
        return ty.name
    head, args = spine(ty)
    if isinstance(head, TyCon):
        if head.name == "->" and len(args) == 2:
            inner = (f"{_type_str(args[0], 1, names)} -> "
                     f"{_type_str(args[1], 0, names)}")
            return f"({inner})" if prec > 0 else inner
        if head.name == "[]" and len(args) == 1:
            return f"[{_type_str(args[0], 0, names)}]"
        if head.name.startswith("(,") and len(args) == head.name.count(",") + 1:
            return "(" + ", ".join(_type_str(a, 0, names) for a in args) + ")"
    parts = [_type_str(head, 2, names)] + [_type_str(a, 2, names) for a in args]
    inner = " ".join(parts)
    return f"({inner})" if prec > 1 else inner


def qual_type_str(ty: Type) -> str:
    """Render a type together with the contexts on its variables, e.g.
    ``(Eq a, Num b) => a -> b -> Bool``."""
    names: Dict[int, str] = {}
    tvs = type_variables(ty)
    for i, var in enumerate(tvs):
        names[var.id] = _var_name(i)
    preds = []
    for var in tvs:
        for cls in var.context:
            preds.append(f"{cls} {names[var.id]}")
    body = _type_str(ty, 0, names)
    if not preds:
        return body
    if len(preds) == 1:
        return f"{preds[0]} => {body}"
    return "(" + ", ".join(preds) + f") => {body}"


def scheme_str(scheme: Scheme) -> str:
    names: Dict[int, str] = {}
    gen_names = [_var_name(i) for i in range(len(scheme.kinds))]

    def go(t: Type, prec: int) -> str:
        t = prune(t)
        if isinstance(t, TyGen):
            return gen_names[t.index]
        return _type_str(t, prec, names)

    preds = []
    for pred in scheme.preds:
        mp = pred.types
        if mp is not None:
            args = " ".join(go(t, 2) for t in mp)
            preds.append(f"{pred.class_name} {args}")
        else:
            preds.append(f"{pred.class_name} {go(pred.type, 2)}")
    body = _scheme_body_str(scheme.type, 0, names, gen_names)
    if not preds:
        return body
    if len(preds) == 1:
        return f"{preds[0]} => {body}"
    return "(" + ", ".join(preds) + f") => {body}"


def scheme_arg_types(scheme: Scheme) -> List[str]:
    """The rendered argument types of a scheme's top-level arrow spine.

    ``Eq a => a -> [a] -> Bool`` yields ``["a", "[a]"]``.  Variables are
    named exactly as :func:`scheme_str` names them, so the strings are
    stable across processes — the translator uses them to annotate core
    binders (lambda parameters, case-alternative fields)."""
    names: Dict[int, str] = {}
    gen_names = [_var_name(i) for i in range(len(scheme.kinds))]
    out: List[str] = []
    ty = prune(scheme.type)
    while True:
        head, args = spine(ty)
        if not (isinstance(head, TyCon) and head.name == "->"
                and len(args) == 2):
            break
        out.append(_scheme_body_str(args[0], 1, names, gen_names))
        ty = prune(args[1])
    return out


def _scheme_body_str(ty: Type, prec: int, names: Dict[int, str],
                     gen_names: List[str]) -> str:
    ty = prune(ty)
    if isinstance(ty, TyGen):
        return gen_names[ty.index]
    if isinstance(ty, TyVar):
        return names.setdefault(ty.id, f"t{ty.id}")
    if isinstance(ty, TyCon):
        return ty.name
    head, args = spine(ty)
    if isinstance(head, TyCon):
        if head.name == "->" and len(args) == 2:
            inner = (f"{_scheme_body_str(args[0], 1, names, gen_names)} -> "
                     f"{_scheme_body_str(args[1], 0, names, gen_names)}")
            return f"({inner})" if prec > 0 else inner
        if head.name == "[]" and len(args) == 1:
            return f"[{_scheme_body_str(args[0], 0, names, gen_names)}]"
        if head.name.startswith("(,") and len(args) == head.name.count(",") + 1:
            return "(" + ", ".join(
                _scheme_body_str(a, 0, names, gen_names) for a in args) + ")"
    parts = [_scheme_body_str(head, 2, names, gen_names)]
    parts += [_scheme_body_str(a, 2, names, gen_names) for a in args]
    inner = " ".join(parts)
    return f"({inner})" if prec > 1 else inner
