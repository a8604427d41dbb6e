"""Static analysis (section 4 of the paper).

    "Before type checking, the compiler must assemble the components of
    the static type environment.  The data type, class, and instance
    declarations ... must be collected and processed."

This module builds:

* the kind environment (kind inference over data declarations);
* the data constructor environment (constructor schemes);
* the class environment (:mod:`repro.core.classes`): method schemes,
  superclasses, defaults, and one instance record per instance
  declaration, of any class arity (at arity 1, the paper's 4-tuple).

It also expands ``deriving`` clauses into ordinary instance
declarations (via :mod:`repro.core.deriving`) — the paper notes that
derived instances are a convenience "not itself part of the underlying
type system", and indeed after this pass they are indistinguishable
from user-written instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import KindError, SourcePos, StaticError
from repro.core.classes import (ClassEnv, ClassInfo, InstanceInfo, MethodInfo,
                                MethodSet)
from repro.core.kinds import (
    STAR,
    KFun,
    Kind,
    KindEnv,
    KVar,
    default_kind,
    drop_kind_args,
    kind_arity,
    kind_eq,
    kind_str,
    kfun,
    kvar_scope,
    unify_kinds,
)
from repro.core.types import (
    LIST_CON,
    Pred,
    Scheme,
    TyApp,
    TyCon,
    TyGen,
    Type,
    fn_types,
)
from repro.lang import ast


@dataclass
class DataConInfo:
    """A data constructor: its scheme, arity and owning type."""

    name: str
    scheme: Scheme
    arity: int
    tycon_name: str
    tag: int  # position within the data declaration (drives derived Ord)


@dataclass
class DataTypeInfo:
    name: str
    kind: Kind
    n_params: int
    constructors: List[DataConInfo] = field(default_factory=list)
    pos: Optional[SourcePos] = None


class StaticEnv:
    """The assembled static type environment."""

    def __init__(self, class_env: Optional[ClassEnv] = None) -> None:
        self.kind_env = KindEnv()
        self.class_env = class_env if class_env is not None else ClassEnv()
        self.data_types: Dict[str, DataTypeInfo] = {}
        self.data_cons: Dict[str, DataConInfo] = {}
        self._tycons: Dict[str, TyCon] = {}
        #: instance bodies awaiting compilation: (InstanceInfo, decl AST)
        self.instance_bodies: List[Tuple[InstanceInfo, ast.InstanceDecl]] = []
        #: class declaration ASTs (for default method compilation)
        self.class_bodies: Dict[str, ast.ClassDecl] = {}
        #: type synonyms: name -> (parameters, right-hand side syntax)
        self.synonyms: Dict[str, Tuple[List[str], ast.SType]] = {}
        self._install_builtins()

    # ------------------------------------------------------------ builtins

    def _install_builtins(self) -> None:
        for name, kind in (
            ("Int", STAR),
            ("Float", STAR),
            ("Char", STAR),
            ("()", STAR),
            ("[]", KFun(STAR, STAR)),
            ("->", kfun(STAR, STAR, STAR)),
        ):
            self.kind_env.bind(name, kind)
            self._tycons[name] = TyCon(name, kind)
        for name in ("Int", "Float", "Char", "()"):
            self.data_types[name] = DataTypeInfo(name, STAR, 0)
        # The list type and its constructors are built in because their
        # syntax ([] and :) cannot be written in a data declaration.
        list_info = DataTypeInfo("[]", KFun(STAR, STAR), 1)
        elem = TyGen(0)
        list_ty = TyApp(LIST_CON, elem)
        nil = DataConInfo("[]", Scheme([STAR], [], list_ty), 0, "[]", 0)
        cons = DataConInfo(
            ":", Scheme([STAR], [], fn_types([elem, list_ty], list_ty)),
            2, "[]", 1)
        list_info.constructors = [nil, cons]
        self.data_types["[]"] = list_info
        self.data_cons["[]"] = nil
        self.data_cons[":"] = cons
        # Unit.
        unit = DataConInfo("()", Scheme([], [], self.tycon("()")), 0, "()", 0)
        self.data_types["()"].constructors = [unit]
        self.data_cons["()"] = unit

    # ------------------------------------------------------------- lookups

    def tycon(self, name: str) -> TyCon:
        """The canonical TyCon for *name* (creates tuple constructors on
        demand)."""
        existing = self._tycons.get(name)
        if existing is not None:
            return existing
        if name.startswith("(,"):
            arity = name.count(",") + 1
            con = TyCon(name, kfun(*([STAR] * (arity + 1))))
            self._tycons[name] = con
            self.kind_env.bind(name, con.kind)
            if name not in self.data_types:
                self._install_tuple(name, arity)
            return con
        raise StaticError(f"unknown type constructor {name}")

    def _install_tuple(self, name: str, arity: int) -> None:
        info = DataTypeInfo(name, kfun(*([STAR] * (arity + 1))), arity)
        gens: List[Type] = [TyGen(i) for i in range(arity)]
        result: Type = self._tycons[name]
        for g in gens:
            result = TyApp(result, g)
        con = DataConInfo(name, Scheme([STAR] * arity, [], fn_types(gens, result)),
                          arity, name, 0)
        info.constructors = [con]
        self.data_types[name] = info
        self.data_cons[name] = con

    def data_con(self, name: str) -> DataConInfo:
        if name.startswith("(,") and name not in self.data_cons:
            self.tycon(name)
        info = self.data_cons.get(name)
        if info is None:
            raise StaticError(f"unknown data constructor {name}")
        return info

    def data_type(self, name: str) -> DataTypeInfo:
        info = self.data_types.get(name)
        if info is None:
            raise StaticError(f"unknown data type {name}")
        return info


# --------------------------------------------------------------------------
# Syntax -> semantic type conversion (with kind checking)
# --------------------------------------------------------------------------

def expand_synonyms(env: StaticEnv, sty: ast.SType, depth: int = 0) -> ast.SType:
    """Expand type synonym applications everywhere in *sty*.

    Synonyms must be fully applied; cyclic synonyms are caught with a
    depth bound."""
    if depth > 100:
        raise StaticError("type synonym expansion does not terminate "
                          "(cyclic synonym?)", sty.pos)
    # Flatten the application spine.
    args: List[ast.SType] = []
    head = sty
    while isinstance(head, ast.STyApp):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    if isinstance(head, ast.STyCon) and head.name in env.synonyms:
        params, rhs = env.synonyms[head.name]
        if len(args) < len(params):
            raise StaticError(
                f"type synonym {head.name} must be applied to "
                f"{len(params)} argument(s)", sty.pos)
        subst = {p: expand_synonyms(env, a, depth + 1)
                 for p, a in zip(params, args[:len(params)])}
        expanded = _subst_syntax(rhs, subst)
        for extra in args[len(params):]:
            expanded = ast.STyApp(expanded,
                                  expand_synonyms(env, extra, depth + 1),
                                  pos=sty.pos)
        return expand_synonyms(env, expanded, depth + 1)
    out = head
    for a in args:
        # Keep the original node's position: kind errors discovered
        # after expansion must still point into the source.
        out = ast.STyApp(out, expand_synonyms(env, a, depth), pos=sty.pos)
    return out


def _subst_syntax(sty: ast.SType, subst: Dict[str, ast.SType]) -> ast.SType:
    if isinstance(sty, ast.STyVar):
        return subst.get(sty.name, sty)
    if isinstance(sty, ast.STyApp):
        return ast.STyApp(_subst_syntax(sty.fn, subst),
                          _subst_syntax(sty.arg, subst))
    return sty


def convert_type(env: StaticEnv, sty: ast.SType, var_map: Dict[str, Type],
                 var_kinds: Dict[str, Kind],
                 implicit_vars: bool = False,
                 expanded: bool = False) -> Tuple[Type, Kind]:
    """Convert type syntax to a semantic type, checking kinds.

    ``var_map`` maps type-variable names to their semantic
    representation (usually ``TyGen`` nodes); when *implicit_vars* is
    set, unknown variables are added automatically (signature
    quantification), otherwise they are an error (data declarations,
    where the variables come from the declaration head).
    """
    if not expanded:
        sty = expand_synonyms(env, sty)
    if isinstance(sty, ast.STyVar):
        if sty.name not in var_map:
            if not implicit_vars:
                raise StaticError(
                    f"type variable {sty.name} is not in scope", sty.pos)
            var_map[sty.name] = TyGen(len(var_map))
            var_kinds[sty.name] = KVar()
        return var_map[sty.name], var_kinds[sty.name]
    if isinstance(sty, ast.STyCon):
        kind = env.kind_env.lookup(sty.name)
        if kind is None:
            if sty.name.startswith("(,"):
                con = env.tycon(sty.name)
                return con, con.kind
            raise StaticError(f"unknown type constructor {sty.name}", sty.pos)
        return env.tycon(sty.name), kind
    assert isinstance(sty, ast.STyApp)
    fn_ty, fn_kind = convert_type(env, sty.fn, var_map, var_kinds,
                                  implicit_vars, expanded=True)
    arg_ty, arg_kind = convert_type(env, sty.arg, var_map, var_kinds,
                                    implicit_vars, expanded=True)
    result_kind: Kind = KVar()
    unify_kinds(fn_kind, KFun(arg_kind, result_kind), sty.pos)
    return TyApp(fn_ty, arg_ty), result_kind


def convert_signature(env: StaticEnv, sig: ast.SQualType) -> Scheme:
    """Convert a user signature to a :class:`Scheme`.

    All free type variables are implicitly quantified; the predicate
    order is the declared context order — this is what fixes the
    dictionary parameter ordering for explicitly-typed definitions
    (section 8.6).
    """
    var_map: Dict[str, Type] = {}
    var_kinds: Dict[str, Kind] = {}
    with kvar_scope():
        body, body_kind = convert_type(env, sig.type, var_map, var_kinds,
                                       implicit_vars=True)
        unify_kinds(body_kind, STAR, sig.pos)
        preds: List[Pred] = []
        for pred in sig.context:
            ptypes = pred.all_types
            for pt in ptypes:
                if not isinstance(pt, ast.STyVar):
                    raise StaticError(
                        f"context {pred.class_name} must constrain a type "
                        f"variable in this system", pred.pos)
            if not env.class_env.is_class(pred.class_name):
                raise StaticError(f"unknown class {pred.class_name}", pred.pos)
            cinfo = env.class_env.classes.get(pred.class_name)
            if cinfo is not None and cinfo.arity != len(ptypes):
                raise StaticError(
                    f"class {pred.class_name} has {cinfo.arity} parameter(s), "
                    f"but the constraint supplies {len(ptypes)} type(s)",
                    pred.pos)
            # A constrained variable's kind is dictated by the class:
            # ``Eq a`` forces ``a :: *``, ``Functor f`` forces
            # ``f :: * -> *`` (or whatever kind was inferred for the
            # class variable).
            pkinds = cinfo.param_kinds if cinfo is not None \
                else [STAR] * len(ptypes)
            targets: List[Type] = []
            for pt, pkind in zip(ptypes, pkinds):
                name = pt.name
                if name not in var_map:
                    # A context variable not mentioned in the body:
                    # ambiguous, but permitted in Haskell; quantify it
                    # anyway and let use sites trip the ambiguity rule.
                    var_map[name] = TyGen(len(var_map))
                    var_kinds[name] = KVar()
                target = var_map[name]
                assert isinstance(target, TyGen)
                unify_kinds(var_kinds[name], pkind, pred.pos)
                targets.append(target)
            if len(targets) > 1:
                preds.append(Pred(pred.class_name, types=targets))
            else:
                preds.append(Pred(pred.class_name, targets[0]))
        kinds = [default_kind(var_kinds[name])
                 for name in sorted(var_map, key=lambda n: var_map[n].index)]  # type: ignore[union-attr]
    return Scheme(kinds, preds, body)


# --------------------------------------------------------------------------
# Declaration processing
# --------------------------------------------------------------------------

def analyze_program(program: ast.Program,
                    env: Optional[StaticEnv] = None,
                    class_env: Optional[ClassEnv] = None) -> StaticEnv:
    """Process the static declarations of *program* into *env*.

    Expands ``deriving`` clauses in place (the generated instance
    declarations are appended to ``program.decls``).
    """
    if env is None:
        env = StaticEnv(class_env)
    for decl in program.decls:
        if isinstance(decl, ast.TypeSynDecl):
            if decl.name in env.synonyms or decl.name in env.data_types:
                raise StaticError(f"type {decl.name} declared twice", decl.pos)
            env.synonyms[decl.name] = (list(decl.tyvars), decl.rhs)
    _process_data_decls(env, program.data_decls())
    # Deriving expansion needs constructor information, so it happens
    # after data declarations but before instance processing.
    from repro.core.deriving import derive_instances  # cycle avoidance
    derived: List[ast.InstanceDecl] = []
    for decl in program.data_decls():
        derived.extend(derive_instances(env, decl))
    program.decls.extend(derived)
    for decl in program.class_decls():
        _process_class_decl(env, decl)
    for decl in program.instance_decls():
        _process_instance_decl(env, decl)
    for decl in program.decls:
        if isinstance(decl, ast.DefaultDecl):
            _process_default_decl(env, decl)
    return env


def _process_data_decls(env: StaticEnv, decls: List[ast.DataDecl]) -> None:
    """Kind inference and constructor schemes for a set of (possibly
    mutually recursive) data declarations."""
    with kvar_scope():
        _process_data_decls_scoped(env, decls)


def _process_data_decls_scoped(env: StaticEnv,
                               decls: List[ast.DataDecl]) -> None:
    # Pass 1: provisional kinds with fresh variables.
    pending: List[Tuple[ast.DataDecl, List[Kind], Kind]] = []
    seen_names: set = set()
    for decl in decls:
        if decl.name in env.data_types or decl.name in env.synonyms \
                or decl.name in seen_names:
            raise StaticError(f"data type {decl.name} declared twice", decl.pos)
        seen_names.add(decl.name)
        if len(set(decl.tyvars)) != len(decl.tyvars):
            raise StaticError(
                f"repeated type variable in data declaration {decl.name}",
                decl.pos)
        param_kinds: List[Kind] = [KVar() for _ in decl.tyvars]
        decl_kind: Kind = STAR
        for k in reversed(param_kinds):
            decl_kind = KFun(k, decl_kind)
        env.kind_env.bind(decl.name, decl_kind)
        env._tycons[decl.name] = TyCon(decl.name, decl_kind)
        pending.append((decl, param_kinds, decl_kind))
    # Pass 2: walk constructor argument types, unifying kinds.
    for decl, param_kinds, _decl_kind in pending:
        var_map: Dict[str, Type] = {
            name: TyGen(i) for i, name in enumerate(decl.tyvars)}
        var_kinds: Dict[str, Kind] = dict(zip(decl.tyvars, param_kinds))
        result: Type = env.tycon(decl.name)
        for name in decl.tyvars:
            result = TyApp(result, var_map[name])
        info = DataTypeInfo(decl.name, env.kind_env.lookup(decl.name) or STAR,
                            len(decl.tyvars), pos=decl.pos)
        for tag, condef in enumerate(decl.constructors):
            if condef.name in env.data_cons:
                raise StaticError(
                    f"data constructor {condef.name} declared twice",
                    condef.pos)
            arg_types: List[Type] = []
            for sty in condef.arg_types:
                ty, kind = convert_type(env, sty, var_map, var_kinds)
                unify_kinds(kind, STAR, condef.pos)
                arg_types.append(ty)
            scheme = Scheme([STAR] * len(decl.tyvars), [],
                            fn_types(arg_types, result))
            con = DataConInfo(condef.name, scheme, len(arg_types),
                              decl.name, tag)
            info.constructors.append(con)
            env.data_cons[condef.name] = con
        env.data_types[decl.name] = info
    # Pass 3: default unconstrained kind variables to * and fix kinds.
    for decl, param_kinds, decl_kind in pending:
        final = default_kind(decl_kind)
        env.kind_env.bind(decl.name, final)
        env._tycons[decl.name].kind = final
        env.data_types[decl.name].kind = final
        # Constructor schemes keep kind * slots for quantified vars; a
        # higher-kinded parameter would make them wrong, so re-derive.
        fixed_kinds: List[Kind] = [default_kind(k) for k in param_kinds]
        for con in env.data_types[decl.name].constructors:
            con.scheme.kinds[:] = fixed_kinds


def _process_class_decl(env: StaticEnv, decl: ast.ClassDecl) -> None:
    """Process one class declaration, *inferring* the kind of the class
    variable from the method signatures (docs/CLASSES.md).

    A single shared kind variable stands for the class variable across
    every signature; each use site (``f a`` in a method type, a
    superclass constraint, an extra-context constraint) unifies against
    it.  Whatever is still unconstrained after the last signature
    defaults to ``*`` — so ``class Eq a`` keeps its paper-era kind and
    ``class Functor f where fmap :: (a -> b) -> f a -> f b`` comes out
    at ``* -> *`` with no annotation syntax.  Multi-parameter classes
    keep every parameter at ``*`` (docs/SOLVER.md)."""
    tyvars = decl.all_tyvars
    methods: List[MethodInfo] = []
    default_names = {d.name for d in decl.defaults}
    index = 0
    with kvar_scope():
        if len(tyvars) == 1:
            param_kinds: List[Kind] = [KVar()]
        else:
            param_kinds = [STAR for _ in tyvars]
        # A superclass constraint ``Sup a`` in the head forces the class
        # variable to the superclass's (already inferred) kind.
        for sup in decl.superclasses:
            sinfo = env.class_env.classes.get(sup)
            if sinfo is not None and sinfo.arity == 1 and len(tyvars) == 1:
                unify_kinds(param_kinds[0], sinfo.tyvar_kind, decl.pos)
        schemes: List[Scheme] = []
        for sig in decl.signatures:
            scheme_template = _method_scheme(env, decl, sig, param_kinds)
            schemes.append(scheme_template)
            for name in sig.names:
                methods.append(MethodInfo(
                    name=name,
                    scheme=scheme_template,
                    index=index,
                    has_default=name in default_names,
                ))
                index += 1
        # Defaulting must wait until *every* signature has constrained
        # the shared kind variables: a later method may refine the kind
        # an earlier method left open.  Zonk each scheme in place.
        for scheme in schemes:
            scheme.kinds[:] = [default_kind(k) for k in scheme.kinds]
        tyvar_kind = default_kind(param_kinds[0]) if len(tyvars) == 1 \
            else STAR
    for d in decl.defaults:
        if d.name not in {m.name for m in methods}:
            raise StaticError(
                f"default binding for {d.name} which is not a method of "
                f"class {decl.name}", d.pos)
    info = ClassInfo(decl.name, list(decl.superclasses),
                     tyvar_kind=tyvar_kind, methods=methods, pos=decl.pos,
                     arity=len(tyvars))
    env.class_env.add_class(info)
    env.class_bodies[decl.name] = decl


def _method_scheme(env: StaticEnv, decl: ast.ClassDecl,
                   sig: ast.TypeSig, param_kinds: List[Kind]) -> Scheme:
    """The full scheme of a method: quantified variables 0..arity-1 are
    the class variables, predicate 0 is the class constraint, and any
    extra context declared on the method (section 8.5) follows.

    *param_kinds* carries the (still inferring) kinds of the class
    variables, shared across the class's signatures; the returned
    scheme's kinds are **not yet zonked** — the caller defaults them
    once every signature has been seen."""
    tyvars = decl.all_tyvars
    var_map: Dict[str, Type] = {name: TyGen(i)
                                for i, name in enumerate(tyvars)}
    var_kinds: Dict[str, Kind] = dict(zip(tyvars, param_kinds))
    body, body_kind = convert_type(env, sig.signature.type, var_map,
                                   var_kinds, implicit_vars=True)
    unify_kinds(body_kind, STAR, sig.pos)
    if len(tyvars) > 1:
        preds: List[Pred] = [Pred(decl.name,
                                  types=[TyGen(i)
                                         for i in range(len(tyvars))])]
    else:
        preds = [Pred(decl.name, TyGen(0))]
    for pred in sig.signature.context:
        ptypes = pred.all_types
        for pt in ptypes:
            if not isinstance(pt, ast.STyVar):
                raise StaticError(
                    "method contexts must constrain type variables", pred.pos)
        if len(ptypes) == 1 and ptypes[0].name in tyvars:
            raise StaticError(
                f"method signature must not re-constrain the class "
                f"variable {ptypes[0].name}", pred.pos)
        pinfo = env.class_env.classes.get(pred.class_name)
        pkinds = pinfo.param_kinds if pinfo is not None \
            else [STAR] * len(ptypes)
        targets: List[Type] = []
        for pt, pkind in zip(ptypes, pkinds):
            if pt.name not in var_map:
                var_map[pt.name] = TyGen(len(var_map))
                var_kinds[pt.name] = KVar()
            target = var_map[pt.name]
            assert isinstance(target, TyGen)
            unify_kinds(var_kinds[pt.name], pkind, pred.pos)
            targets.append(target)
        if len(targets) > 1:
            preds.append(Pred(pred.class_name, types=targets))
        else:
            preds.append(Pred(pred.class_name, targets[0]))
    mentioned = _stype_vars(sig.signature.type)
    for tv in tyvars:
        if tv not in mentioned:
            raise StaticError(
                f"method type must mention the class variable {tv}",
                sig.pos)
    # Raw (possibly KVar-containing) kinds: the class-level fixup pass
    # zonks them after the whole declaration has been inferred.
    kinds = [var_kinds[name]
             for name in sorted(var_map, key=lambda n: var_map[n].index)]  # type: ignore[union-attr]
    return Scheme(kinds, preds, body)


def _stype_vars(sty: ast.SType) -> List[str]:
    out: List[str] = []

    def go(t: ast.SType) -> None:
        if isinstance(t, ast.STyVar):
            if t.name not in out:
                out.append(t.name)
        elif isinstance(t, ast.STyApp):
            go(t.fn)
            go(t.arg)

    go(sty)
    return out


def _process_instance_decl(env: StaticEnv, decl: ast.InstanceDecl) -> None:
    """Check ``instance ctx => C p1 ... pn`` and register its
    :class:`InstanceInfo` (the overlap and termination checks run at
    registration, :meth:`ClassEnv.add_instance`).

    Each head pattern is a type constructor applied to type variables —
    the Haskell 1.2 form — or, for a multi-parameter class only, a bare
    type variable.  The variables are distinct across the whole head, so
    matching an instance is pure binding, never unification.  The
    context constrains head variables; a single-parameter instance's
    context holds single-parameter constraints only (§5: they become
    type-variable contexts)."""
    heads = decl.all_heads
    cinfo = env.class_env.classes.get(decl.class_name)
    if cinfo is not None and cinfo.arity != len(heads):
        raise StaticError(
            f"class {decl.class_name} has {cinfo.arity} parameter(s), "
            f"but the instance head supplies {len(heads)} type(s)", decl.pos)
    var_names: List[str] = []
    shapes: List[Tuple[Optional[str], List[str], Optional[Kind]]] = []
    for head in heads:
        pos = head.pos or decl.pos
        if isinstance(head, ast.STyVar) and len(heads) > 1:
            args: List[ast.SType] = [head]
            tycon_name: Optional[str] = None
        else:
            args = []
            sty = head
            while isinstance(sty, ast.STyApp):
                args.append(sty.arg)
                sty = sty.fn
            args.reverse()
            if not isinstance(sty, ast.STyCon):
                raise StaticError(
                    "instance head must be a type constructor applied to "
                    "type variables", pos)
            tycon_name = sty.name
        names: List[str] = []
        for arg in args:
            if not isinstance(arg, ast.STyVar):
                raise StaticError(
                    "instance head arguments must be plain type variables "
                    "(e.g. 'instance Eq a => Eq [a]')", pos)
            if arg.name in var_names:
                raise StaticError(
                    "instance head arguments must be distinct type "
                    "variables", pos)
            var_names.append(arg.name)
            names.append(arg.name)
        kind: Optional[Kind] = None
        if tycon_name is not None:
            kind = env.kind_env.lookup(tycon_name)
            if kind is None and tycon_name.startswith("(,"):
                kind = env.tycon(tycon_name).kind  # tuples on demand
            if kind is None:
                raise StaticError(f"unknown type constructor {tycon_name}",
                                  decl.pos)
        shapes.append((tycon_name, names, kind))
    if cinfo is None:
        raise StaticError(
            f"instance declaration for unknown class {decl.class_name}",
            decl.pos)
    var_kinds: List[Kind] = []
    patterns: List[Tuple[Optional[str], Tuple[int, ...]]] = []
    for (tycon_name, names, kind), want in zip(shapes, cinfo.param_kinds):
        first = len(var_kinds)
        patterns.append((tycon_name, tuple(range(first,
                                                 first + len(names)))))
        if kind is None:
            var_kinds.append(want)
            continue
        # Kind check (docs/CLASSES.md): the head may be a *partial*
        # application — ``instance Functor (Either a)`` applies the
        # ``* -> * -> *`` constructor to one argument, leaving
        # ``* -> *``, which must be exactly the class variable's
        # inferred kind.
        if kind_eq(want, STAR):
            # A kind-* parameter: the head must be a full application
            # (the paper's rule, with its original diagnostic).
            if kind_arity(kind) != len(names):
                raise KindError(
                    f"instance head {tycon_name} expects "
                    f"{kind_arity(kind)} type argument(s), got "
                    f"{len(names)}", decl.pos)
        else:
            remaining = drop_kind_args(kind, len(names))
            if remaining is None:
                raise KindError(
                    f"instance head {tycon_name} expects at most "
                    f"{kind_arity(kind)} type argument(s), got "
                    f"{len(names)}", decl.pos)
            if not kind_eq(remaining, want):
                head_txt = " ".join([tycon_name] + names)
                raise KindError(
                    f"instance head {head_txt} has kind "
                    f"{kind_str(remaining)}, but class {decl.class_name} "
                    f"expects instances at kind {kind_str(want)}", decl.pos)
        # Kind of each (applied) head variable: the leading argument
        # kinds of the constructor.
        for _ in names:
            assert isinstance(kind, KFun)
            var_kinds.append(kind.arg)
            kind = kind.res
    preds: List[Tuple[str, Tuple[int, ...]]] = []
    for pred in decl.context:
        ptypes = pred.all_types
        for pt in ptypes:
            if not isinstance(pt, ast.STyVar) or pt.name not in var_names:
                raise StaticError(
                    "instance context must constrain the head's type "
                    "variables", pred.pos)
        pinfo = env.class_env.classes.get(pred.class_name)
        if pinfo is None:
            raise StaticError(f"unknown class {pred.class_name}", pred.pos)
        if pinfo.arity != len(ptypes):
            raise StaticError(
                f"class {pred.class_name} has {pinfo.arity} parameter(s), "
                f"but the constraint supplies {len(ptypes)} type(s)",
                pred.pos)
        rendered = " ".join([pred.class_name] + [pt.name for pt in ptypes])
        if pinfo.arity > 1 and len(heads) == 1:
            raise StaticError(
                f"instance context {rendered}: the context of a "
                f"single-parameter instance may hold only single-parameter "
                f"constraints, but class {pred.class_name} has "
                f"{pinfo.arity} parameters", pred.pos)
        idxs = tuple(var_names.index(pt.name) for pt in ptypes)
        for idx, want in zip(idxs, pinfo.param_kinds):
            if not kind_eq(var_kinds[idx], want):
                raise KindError(
                    f"instance context {rendered} constrains a variable of "
                    f"kind {kind_str(var_kinds[idx])}, but class "
                    f"{pred.class_name} expects kind {kind_str(want)}",
                    pred.pos or decl.pos)
        if (pred.class_name, idxs) in preds:
            raise StaticError(
                f"duplicate constraint {rendered} in instance context",
                pred.pos)
        preds.append((pred.class_name, idxs))
    method_names = {m.name for m in cinfo.methods}
    for binding in decl.bindings:
        if binding.name not in method_names:
            raise StaticError(
                f"'{binding.name}' is not a method of class "
                f"{decl.class_name}", binding.pos)
    seen_bindings = set()
    for binding in decl.bindings:
        if binding.name in seen_bindings:
            raise StaticError(
                f"method {binding.name} bound twice in instance", binding.pos)
        seen_bindings.add(binding.name)
    info = InstanceInfo(
        class_name=decl.class_name,
        heads=patterns,
        var_kinds=var_kinds,
        preds=preds,
        pos=decl.pos,
        defined_methods=MethodSet(b.name for b in decl.bindings),
    )
    env.class_env.add_instance(info)
    env.instance_bodies.append((info, decl))


def _process_default_decl(env: StaticEnv, decl: ast.DefaultDecl) -> None:
    names: List[str] = []
    for sty in decl.types:
        if not isinstance(sty, ast.STyCon):
            raise StaticError(
                "default declaration must list type constructors", decl.pos)
        names.append(sty.name)
    env.class_env.default_types = names

