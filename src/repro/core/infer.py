"""Type inference and dictionary conversion — sections 5 and 6.

The checker performs ML-style inference over the kernel AST with the
paper's two extensions:

1. type variables carry *contexts*, and unification propagates them
   (delegated to :mod:`repro.core.unify`);
2. the program is *rewritten during checking*: references to overloaded
   variables, methods and recursive binders become placeholders
   (section 6.1); at generalization, dictionary parameters are inserted
   and a parameter environment built (6.2); then every placeholder in
   the group's list is resolved by the four-case analysis of 6.3.

The result is the same kernel language, but with every overloaded
definition wrapped in dictionary lambdas and every overloaded reference
applied to dictionary expressions — ready for translation to the core
IR.

Also implemented here:

* binding-group analysis: minimal letrec groups share a common context
  (8.3), with the monomorphism warning for binders whose own type does
  not mention the whole group context;
* explicit signatures via read-only type variables, which also fix the
  dictionary parameter order (8.6);
* the monomorphism restriction (8.7);
* defaulting for ambiguous numeric contexts (6.3 case 4);
* compilation of class default methods as ordinary overloaded functions
  over the class dictionary (8.2);
* compilation of instance methods as explicitly-typed functions over
  the instance context (4), and generation of the dictionary
  constructor for every instance — including the superclass dictionary
  slots (8.1) and defaulted method slots.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    AmbiguityError,
    MonomorphismWarning,
    NoInstanceError,
    SourcePos,
    StaticError,
    TypeCheckError,
)
from repro.core.classes import ClassEnv, InstanceInfo, MethodInfo
from repro.core.kinds import STAR, Kind, kind_arity
from repro.core.placeholders import (
    ClassPlaceholder,
    MethodPlaceholder,
    PendingPlaceholder,
    Placeholder,
    PlaceholderScope,
    RecursivePlaceholder,
    make_placeholder_expr,
)
from repro.core.static import StaticEnv, convert_signature
from repro.core.types import (
    Pred,
    Scheme,
    T_BOOL,
    T_CHAR,
    T_FLOAT,
    T_INT,
    T_STRING,
    TyApp,
    TyCon,
    TyGen,
    TyVar,
    Type,
    fn_parts,
    fn_type,
    fn_types,
    generalize_over,
    prune,
    spine,
    tuple_type,
    type_str,
    type_variables,
)
from repro.core.unify import Unifier
from repro.lang import ast
from repro.util.graph import Digraph, strongly_connected_components
from repro.util.names import (
    NameSupply,
    default_method_name,
    method_impl_name,
    selector_name,
    superclass_selector_name,
)


# --------------------------------------------------------------------------
# Type environment
# --------------------------------------------------------------------------

@dataclass
class SchemeEntry:
    """A generalized binding: uses instantiate freshly (possibly with
    dictionary placeholders)."""

    scheme: Scheme


@dataclass
class MonoEntry:
    """A lambda- or pattern-bound variable: monomorphic."""

    type: Type


@dataclass
class RecEntry:
    """A letrec binder before generalization: references become
    recursive placeholders sharing the binder's monotype."""

    type: Type
    group: "GroupState"


@dataclass
class MethodEntry:
    """A class method: references become method placeholders."""

    class_name: str
    method: MethodInfo


Entry = object


class TypeEnv:
    """Chained scopes mapping names to entries."""

    def __init__(self, parent: Optional["TypeEnv"] = None) -> None:
        self.parent = parent
        self.entries: Dict[str, Entry] = {}

    def lookup(self, name: str) -> Optional[Entry]:
        env: Optional[TypeEnv] = self
        while env is not None:
            entry = env.entries.get(name)
            if entry is not None:
                return entry
            env = env.parent
        return None

    def bind(self, name: str, entry: Entry) -> None:
        self.entries[name] = entry

    def child(self) -> "TypeEnv":
        return TypeEnv(self)


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------

@dataclass
class CompiledBinding:
    """One translated top-level (or generated) definition."""

    name: str
    expr: ast.Expr                      # kernel RHS, placeholders resolved
    scheme: Optional[Scheme] = None     # None for generated helpers
    dict_params: List[str] = field(default_factory=list)
    kind: str = "user"                  # user | default | impl | dict | selector
    #: class constrained by each dictionary parameter, parallel to
    #: ``dict_params`` — the translator turns these into core binder
    #: annotations instead of discarding them
    dict_classes: List[str] = field(default_factory=list)


@dataclass
class GroupState:
    """Shared state of one implicitly-typed binding group being checked."""

    names: List[str]
    dict_params: List[str] = field(default_factory=list)
    resolved: bool = False


@dataclass
class InferResult:
    bindings: List[CompiledBinding]
    schemes: Dict[str, Scheme]
    warnings: List[MonomorphismWarning]
    env: TypeEnv
    unifier: Unifier


# --------------------------------------------------------------------------
# The inferencer
# --------------------------------------------------------------------------

class Inferencer:
    def __init__(self, static_env: StaticEnv, options=None,
                 global_env: Optional[TypeEnv] = None) -> None:
        from repro.options import CompilerOptions  # local import, no cycle
        self.static = static_env
        self.class_env: ClassEnv = static_env.class_env
        self.options = options if options is not None else CompilerOptions()
        solver = self.options.solver
        if solver != "reduce":
            raise ValueError(
                f"unknown solver {solver!r} (the only solver is 'reduce')")
        self.unifier = Unifier(
            self.class_env,
            max_depth=self.options.max_type_depth,
            provenance=self.options.constraint_provenance)
        self.names = NameSupply()
        self.level = 0
        self.env = global_env if global_env is not None else TypeEnv()
        self.scope = PlaceholderScope()  # top-level scope
        self.warnings: List[MonomorphismWarning] = []
        self.output: List[CompiledBinding] = []
        self.schemes: Dict[str, Scheme] = {}
        self._compiled_instances: set = set()
        self._compiled_defaults: set = set()
        self.install_methods()

    def install_methods(self) -> None:
        """Bind every class method name in scope to its class.

        Idempotent; run after each unit's static analysis (the
        pipeline's ``install-methods`` pass) so methods declared by
        newly analysed classes are visible to inference.
        """
        for class_name, info in self.class_env.classes.items():
            for method in info.methods:
                if self.env.lookup(method.name) is None:
                    self.env.bind(method.name, MethodEntry(class_name, method))

    #: historical name, kept for external callers
    _install_methods = install_methods

    # ------------------------------------------------------------ helpers

    @contextmanager
    def scoped_level(self) -> Iterator[int]:
        """Enter one quantification level for the duration of a block.

        Yields the new level and restores the previous one on exit —
        including on error, so a failed inference never leaves the
        shared inferencer at a skewed level (the bug the old manual
        ``level += 1 ... level -= 1`` bookkeeping allowed).
        """
        self.level += 1
        try:
            yield self.level
        finally:
            self.level -= 1

    def fresh(self, kind: Kind = STAR, hint: str = "t") -> TyVar:
        return TyVar(kind, self.level, hint)

    def fresh_read_only(self, kind: Kind, level: int) -> TyVar:
        return TyVar(kind, level, "s", read_only=True)

    def unify(self, a: Type, b: Type, pos: Optional[SourcePos] = None,
              reason: str = "unification") -> None:
        self.unifier.unify(a, b, pos, reason)

    # =================================================================
    # Program entry points
    # =================================================================

    def infer_program(self, program: ast.Program) -> InferResult:
        """Check a whole (desugared, statically analysed) module."""
        decls = [d for d in program.decls
                 if isinstance(d, (ast.FunBind, ast.TypeSig))]
        # The schemes inferred before this unit are the prelude's
        # bindings.  Its own code calls them by name, so a redefinition
        # would replace them under it.  Class methods have no entry
        # here and stay shadowable.
        for decl in decls:
            if isinstance(decl, ast.FunBind) and decl.name in self.schemes:
                raise StaticError(
                    f"value {decl.name} declared twice: the prelude "
                    f"defines {decl.name}", decl.pos)
        self.env = self.env.child()
        self.process_decl_block(decls, top_level=True)
        self.compile_class_defaults()
        self.compile_instances()
        self.finish_top_level()
        return InferResult(self.output, self.schemes, self.warnings,
                           self.env, self.unifier)

    def infer_expression(self, expr: ast.Expr) -> Tuple[Type, ast.Expr]:
        """Check one expression against the current environment (the
        public ``eval``-style API); dictionaries resolve against
        concrete types or defaults.  Runs as one provenance episode: a
        failure is explained (minimal unsatisfiable core), then rolled
        back, so a shared long-lived inferencer is left exactly as it
        was before the request."""
        with self.unifier.episode():
            scope = self.scope = PlaceholderScope(self.scope)
            try:
                with self.scoped_level():
                    ty, expr2 = self.infer_expr(expr, self.env)
                self.resolve_scope(scope, param_env={}, group=None)
            finally:
                self.scope = scope.parent
            self.finish_top_level()
        return ty, expr2

    def finish_top_level(self) -> None:
        """Resolve anything deferred to the very top: defaulting or
        ambiguity errors (placeholder case 4 at level 0)."""
        with self.unifier.episode():
            self.resolve_scope(self.scope, param_env={}, group=None)

    # =================================================================
    # Declaration blocks and binding groups
    # =================================================================

    def process_decl_block(self, decls: Sequence[ast.Decl],
                           top_level: bool = False) -> None:
        """Check a list of bindings and signatures in the current env.

        Performs dependency analysis (section 8.3): minimal recursive
        groups, processed dependencies-first; explicitly-typed bindings
        do not force grouping because their schemes are known up front.
        """
        sigs: Dict[str, Scheme] = {}
        sig_positions: Dict[str, Optional[SourcePos]] = {}
        binds: List[ast.FunBind] = []
        for decl in decls:
            if isinstance(decl, ast.TypeSig):
                scheme = convert_signature(self.static, decl.signature)
                for name in decl.names:
                    if name in sigs:
                        raise StaticError(
                            f"duplicate type signature for {name}", decl.pos)
                    sigs[name] = scheme
                    sig_positions[name] = decl.pos
            elif isinstance(decl, ast.FunBind):
                binds.append(decl)
            else:
                raise StaticError(
                    f"unexpected declaration in binding block", decl.pos)
        bound_names = {b.name for b in binds}
        for name in sigs:
            if name not in bound_names:
                raise StaticError(
                    f"type signature for {name} lacks a binding",
                    sig_positions[name])
        for b in binds:
            if not b.is_simple:
                raise StaticError(
                    f"binding for {b.name} is not in kernel form "
                    f"(desugar the program first)", b.pos)
        # Declared schemes are visible everywhere in the block.
        for name, scheme in sigs.items():
            self.env.bind(name, SchemeEntry(scheme))
        # Dependency graph: an edge f -> g for each reference from f's
        # body to an *implicitly typed* binding g of this block.
        graph = Digraph()
        implicit = {b.name for b in binds if b.name not in sigs}
        for b in binds:
            graph.add_node(b.name)
        for b in binds:
            for name in ast.expr_free_vars(b.simple_rhs):
                if name in implicit and name != b.name or (
                        name == b.name and name in implicit):
                    graph.add_edge(b.name, name)
        by_name = {b.name: b for b in binds}
        for component in strongly_connected_components(graph):
            group = [by_name[n] for n in component]
            if len(group) == 1 and group[0].name in sigs:
                self.check_explicit(group[0], sigs[group[0].name],
                                    emit=top_level)
            else:
                # A component is implicit by construction (explicit
                # nodes have no inbound edges into cycles).
                self.check_implicit_group(group, top_level=top_level)

    # ------------------------------------------------- implicit groups

    def check_implicit_group(self, binds: List[ast.FunBind],
                             top_level: bool = False) -> None:
        outer_level = self.level
        with self.unifier.episode():
            scope = self.scope = PlaceholderScope(self.scope)
            try:
                group, monos, gen_vars_per, group_preds, dict_params = \
                    self._check_implicit_group_body(binds, scope, outer_level)
            finally:
                self.scope = scope.parent
        group.resolved = True
        # ----- wrap with dictionary lambdas, build schemes -----
        for b in binds:
            if dict_params:
                b.set_simple_rhs(ast.Lam(
                    [ast.PVar(p) for p in dict_params], b.simple_rhs,
                    pos=b.pos))
            own_vars = gen_vars_per[b.name]
            own_ids = {v.id for v in own_vars}
            missing = [cls for (cls, v) in group_preds if v.id not in own_ids]
            if missing:
                self.warnings.append(MonomorphismWarning(b.name, missing))
            quantified = list(own_vars)
            for (_cls, v) in group_preds:
                if v.id not in {q.id for q in quantified}:
                    quantified.append(v)
            scheme = generalize_over(quantified, group_preds, monos[b.name])
            self.env.bind(b.name, SchemeEntry(scheme))
            # Only top-level groups become top-level compiled bindings
            # with a program-wide scheme.  A local group's (dictionary-
            # converted) definitions stay in their enclosing let —
            # emitting them here too used to leave dead top-level
            # duplicates, which shadow each other in the evaluator's
            # globals and trip the core lint — and its names are not
            # in scope outside it, so ``schemes`` (and through it a
            # module's exports) must not list them.
            if top_level:
                self.schemes[b.name] = scheme
                self.output.append(CompiledBinding(
                    b.name, b.simple_rhs, scheme, list(dict_params), "user",
                    dict_classes=[cls for (cls, _v) in group_preds]))

    def _check_implicit_group_body(self, binds: List[ast.FunBind],
                                   scope: PlaceholderScope, outer_level: int):
        """Inference + generalization + resolution of one implicit
        group (the part of :meth:`check_implicit_group` that runs
        inside the provenance episode)."""
        with self.scoped_level():
            group = GroupState([b.name for b in binds])
            monos: Dict[str, TyVar] = {}
            for b in binds:
                tv = self.fresh()
                monos[b.name] = tv
                self.env.bind(b.name, RecEntry(tv, group))
            for b in binds:
                ty, rhs = self.infer_expr(b.simple_rhs, self.env)
                b.set_simple_rhs(rhs)
                self.unify(ty, monos[b.name], b.pos, reason="definition")
        # ----- generalization (section 6.2) -----
        # Collect the group's quantifiable variables and its context.
        gen_vars_per: Dict[str, List[TyVar]] = {}
        group_vars: List[TyVar] = []
        seen_ids = set()
        for b in binds:
            tvs = [v for v in type_variables(monos[b.name])
                   if v.level > outer_level and not v.read_only]
            gen_vars_per[b.name] = tvs
            for v in tvs:
                if v.id not in seen_ids:
                    seen_ids.add(v.id)
                    group_vars.append(v)
        constrained = [v for v in group_vars if v.context]
        restricted = (
            self.options.monomorphism_restriction
            and any(getattr(b, "original_arity", 0) == 0 for b in binds)
            and bool(constrained)
        )
        if restricted:
            # Section 8.7: "type variables in its context must not be
            # generalized: they must remain in the type environment".
            escaped = {v.id for v in constrained}
            for v in constrained:
                v.level = outer_level
            constrained = []
            for name in gen_vars_per:
                gen_vars_per[name] = [v for v in gen_vars_per[name]
                                      if v.id not in escaped]
        group_preds: List[Tuple[str, TyVar]] = []
        for v in constrained:
            for cls in v.context:
                group_preds.append((cls, v))
        dict_params = [self.names.fresh("d") for _ in group_preds]
        group.dict_params = dict_params
        param_env = {(cls, v.id): name
                     for (cls, v), name in zip(group_preds, dict_params)}
        self.resolve_scope(scope, param_env, group)
        return group, monos, gen_vars_per, group_preds, dict_params

    # ------------------------------------------------- explicit bindings

    def check_explicit(self, bind: ast.FunBind, scheme: Scheme,
                       kind: str = "user",
                       out_name: Optional[str] = None,
                       emit: bool = True) -> None:
        """Check a binding against a declared scheme (section 8.6).

        The signature is instantiated with read-only variables; the
        declared context, in declared order, determines the dictionary
        parameters.  *emit* is False for signed bindings in local lets:
        they are checked and dictionary-converted in place but stay in
        their enclosing let rather than becoming top-level output, and
        get no entry in ``schemes``.
        """
        reason = {"default": "class-default",
                  "impl": "instance-method"}.get(kind, "annotation")
        with self.unifier.episode():
            scope = self.scope = PlaceholderScope(self.scope)
            try:
                with self.scoped_level() as level:
                    sig_ty, sig_preds, _ro_vars = scheme.instantiate(
                        level,
                        fresh=lambda kind_, lvl: self.fresh_read_only(kind_,
                                                                      lvl))
                    ty, rhs = self.infer_expr(bind.simple_rhs, self.env)
                    bind.set_simple_rhs(rhs)
                    self.unify(ty, sig_ty, bind.pos, reason=reason)
                dict_params = [self.names.fresh("d") for _ in sig_preds]
                param_env: Dict[Tuple[str, object], str] = {}
                for (cls, v), pname in zip(sig_preds, dict_params):
                    if isinstance(v, tuple):
                        # Multi-parameter predicate: key on the tuple of
                        # (read-only) variable ids, in declared order.
                        # Predicates with concrete positions resolve
                        # through the instance table, not here.
                        if all(isinstance(t, TyVar) for t in v):
                            param_env[(cls, tuple(t.id for t in v))] = pname
                    else:
                        param_env[(cls, v.id)] = pname
                self.resolve_scope(scope, param_env, None)
            finally:
                self.scope = scope.parent
        if dict_params:
            bind.set_simple_rhs(ast.Lam(
                [ast.PVar(p) for p in dict_params], bind.simple_rhs,
                pos=bind.pos))
        name = out_name if out_name is not None else bind.name
        self.env.bind(bind.name, SchemeEntry(scheme))
        if emit:
            self.schemes[name] = scheme
            self.output.append(CompiledBinding(
                name, bind.simple_rhs, scheme, list(dict_params), kind,
                dict_classes=[cls for (cls, _v) in sig_preds]))

    # =================================================================
    # Expression inference (returns possibly rewritten node)
    # =================================================================

    def infer_expr(self, expr: ast.Expr,
                   env: TypeEnv) -> Tuple[Type, ast.Expr]:
        if isinstance(expr, ast.Var):
            return self.infer_var(expr, env)
        if isinstance(expr, ast.Con):
            info = self.static.data_con(expr.name)
            ty, preds, _ = info.scheme.instantiate(self.level)
            assert not preds, "data constructors are never overloaded"
            return ty, expr
        if isinstance(expr, ast.Lit):
            return self.infer_lit(expr), expr
        if isinstance(expr, ast.App):
            fn_ty, fn2 = self.infer_expr(expr.fn, env)
            arg_ty, arg2 = self.infer_expr(expr.arg, env)
            res = self.fresh()
            self.unify(fn_ty, fn_type(arg_ty, res), expr.pos,
                       reason="application")
            expr.fn, expr.arg = fn2, arg2
            return res, expr
        if isinstance(expr, ast.Lam):
            inner = env.child()
            param_types: List[Type] = []
            for p in expr.params:
                assert isinstance(p, ast.PVar), "kernel lambdas bind variables"
                tv = self.fresh()
                inner.bind(p.name, MonoEntry(tv))
                param_types.append(tv)
            body_ty, body2 = self.infer_expr(expr.body, inner)
            expr.body = body2
            return fn_types(param_types, body_ty), expr
        if isinstance(expr, ast.Let):
            inner = env.child()
            saved = self.env
            self.env = inner
            try:
                self.process_decl_block(expr.decls)
                body_ty, body2 = self.infer_expr(expr.body, inner)
            finally:
                self.env = saved
            expr.body = body2
            return body_ty, expr
        if isinstance(expr, ast.If):
            cond_ty, cond2 = self.infer_expr(expr.cond, env)
            self.unify(cond_ty, T_BOOL, expr.pos, reason="condition")
            then_ty, then2 = self.infer_expr(expr.then_branch, env)
            else_ty, else2 = self.infer_expr(expr.else_branch, env)
            self.unify(then_ty, else_ty, expr.pos, reason="if-branches")
            expr.cond, expr.then_branch, expr.else_branch = cond2, then2, else2
            return then_ty, expr
        if isinstance(expr, ast.Case):
            return self.infer_case(expr, env)
        if isinstance(expr, ast.TupleExpr):
            types: List[Type] = []
            for i, item in enumerate(expr.items):
                ty, item2 = self.infer_expr(item, env)
                expr.items[i] = item2
                types.append(ty)
            return tuple_type(types), expr
        if isinstance(expr, ast.Annot):
            scheme = convert_signature(self.static, expr.signature)
            sig_ty, _preds, _vars = scheme.instantiate(self.level)
            body_ty, body2 = self.infer_expr(expr.expr, env)
            self.unify(body_ty, sig_ty, expr.pos, reason="annotation")
            # The annotation node itself disappears from the output.
            return sig_ty, body2
        raise TypeCheckError(
            f"cannot infer type of expression {expr!r}",
            getattr(expr, "pos", None))

    def infer_var(self, expr: ast.Var, env: TypeEnv) -> Tuple[Type, ast.Expr]:
        entry = env.lookup(expr.name)
        if entry is None:
            raise TypeCheckError(f"variable {expr.name} is not in scope",
                                 expr.pos)
        if isinstance(entry, MonoEntry):
            return entry.type, expr
        if isinstance(entry, RecEntry):
            # Section 6.1: recursive references become placeholders
            # sharing the binder's (monomorphic) type.
            ph = RecursivePlaceholder(entry.type, expr.pos, name=expr.name,
                                      group=entry.group)
            node = make_placeholder_expr(ph)
            self.scope.add(ph, node)
            return entry.type, node
        if isinstance(entry, SchemeEntry):
            ty, preds, _ = entry.scheme.instantiate(self.level)
            out: ast.Expr = expr
            for cls, var in preds:
                # A multi-parameter predicate instantiates to a *tuple*
                # of types; its placeholder carries them all.
                if isinstance(var, tuple):
                    ph = ClassPlaceholder(var[0], expr.pos, class_name=cls,
                                          arg_types=list(var))
                else:
                    ph = ClassPlaceholder(var, expr.pos, class_name=cls)
                node = make_placeholder_expr(ph)
                self.scope.add(ph, node)
                out = ast.App(out, node, pos=expr.pos)
            return ty, out
        if isinstance(entry, MethodEntry):
            ty, preds, _ = entry.method.scheme.instantiate(self.level)
            cls0, class_var = preds[0]
            if isinstance(class_var, tuple):
                ph = MethodPlaceholder(class_var[0], expr.pos,
                                       method_name=expr.name, class_name=cls0,
                                       arg_types=list(class_var))
            else:
                ph = MethodPlaceholder(class_var, expr.pos,
                                       method_name=expr.name, class_name=cls0)
            node = make_placeholder_expr(ph)
            self.scope.add(ph, node)
            out = node
            for cls, var in preds[1:]:  # extra overloading, section 8.5
                if isinstance(var, tuple):
                    extra = ClassPlaceholder(var[0], expr.pos, class_name=cls,
                                             arg_types=list(var))
                else:
                    extra = ClassPlaceholder(var, expr.pos, class_name=cls)
                extra_node = make_placeholder_expr(extra)
                self.scope.add(extra, extra_node)
                out = ast.App(out, extra_node, pos=expr.pos)
            return ty, out
        raise TypeCheckError(
            f"internal: unknown environment entry for {expr.name}", expr.pos)

    def infer_lit(self, expr: ast.Lit) -> Type:
        if expr.kind == "int":
            return T_INT
        if expr.kind == "float":
            return T_FLOAT
        if expr.kind == "char":
            return T_CHAR
        if expr.kind == "string":
            return T_STRING
        raise TypeCheckError(f"unknown literal kind {expr.kind}", expr.pos)

    def infer_case(self, expr: ast.Case, env: TypeEnv) -> Tuple[Type, ast.Expr]:
        scrut_ty, scrut2 = self.infer_expr(expr.scrutinee, env)
        expr.scrutinee = scrut2
        result = self.fresh()
        for alt in expr.alts:
            bindings: Dict[str, Type] = {}
            pat_ty = self.infer_pattern(alt.pat, bindings)
            self.unify(pat_ty, scrut_ty, alt.pos, reason="pattern")
            inner = env.child()
            for name, ty in bindings.items():
                inner.bind(name, MonoEntry(ty))
            if alt.where_decls:
                saved = self.env
                self.env = inner
                try:
                    self.process_decl_block(alt.where_decls)
                finally:
                    self.env = saved
            for rhs in alt.rhss:
                if rhs.guard is not None:
                    g_ty, g2 = self.infer_expr(rhs.guard, inner)
                    self.unify(g_ty, T_BOOL, rhs.pos, reason="guard")
                    rhs.guard = g2
                b_ty, b2 = self.infer_expr(rhs.body, inner)
                self.unify(b_ty, result, rhs.pos, reason="case-branches")
                rhs.body = b2
        return result, expr

    def infer_pattern(self, pat: ast.Pat,
                      bindings: Dict[str, Type]) -> Type:
        if isinstance(pat, ast.PVar):
            if pat.name in bindings:
                raise TypeCheckError(
                    f"variable {pat.name} bound twice in pattern", pat.pos)
            tv = self.fresh()
            bindings[pat.name] = tv
            return tv
        if isinstance(pat, ast.PWild):
            return self.fresh()
        if isinstance(pat, ast.PLit):
            if pat.kind == "char":
                return T_CHAR
            if pat.kind == "int":
                return T_INT
            if pat.kind == "float":
                return T_FLOAT
            raise TypeCheckError(
                f"unexpected literal pattern of kind {pat.kind} in kernel",
                pat.pos)
        if isinstance(pat, ast.PTuple):
            return tuple_type([self.infer_pattern(p, bindings)
                               for p in pat.items])
        if isinstance(pat, ast.PAs):
            ty = self.infer_pattern(pat.pat, bindings)
            if pat.name in bindings:
                raise TypeCheckError(
                    f"variable {pat.name} bound twice in pattern", pat.pos)
            bindings[pat.name] = ty
            return ty
        assert isinstance(pat, ast.PCon)
        info = self.static.data_con(pat.name)
        if len(pat.args) != info.arity:
            raise TypeCheckError(
                f"constructor {pat.name} expects {info.arity} argument(s) "
                f"in a pattern, got {len(pat.args)}", pat.pos)
        con_ty, preds, _ = info.scheme.instantiate(self.level)
        assert not preds
        for arg in pat.args:
            parts = fn_parts(con_ty)
            assert parts is not None
            arg_ty, con_ty = parts
            self.unify(self.infer_pattern(arg, bindings), arg_ty, pat.pos,
                       reason="pattern")
        return con_ty

    # =================================================================
    # Placeholder resolution (section 6.3)
    # =================================================================

    def resolve_scope(self, scope: PlaceholderScope,
                      param_env: Dict[Tuple[str, int], str],
                      group: Optional[GroupState]) -> None:
        """Resolve every placeholder recorded for a binding group.

        Resolution of one placeholder can create new ones (recursive
        dictionary construction, 6.3 case 2); the loop drains until
        quiescent.
        """
        while True:
            batch = scope.drain()
            if not batch:
                return
            for entry in batch:
                self.resolve_one(entry, scope, param_env, group)

    def resolve_one(self, entry: PendingPlaceholder, scope: PlaceholderScope,
                    param_env: Dict[Tuple[str, int], str],
                    group: Optional[GroupState]) -> None:
        ph = entry.placeholder
        node = entry.node
        if node.resolved is not None:
            return
        if isinstance(ph, RecursivePlaceholder):
            if ph.group is not group:
                # Drained by a nested group: resolution belongs to the
                # group that owns the binder (its dictionaries are not
                # known yet here).
                scope.defer(entry)
                return
            # "any dictionaries passed to a recursive call remain
            # unchanged from the original entry" — apply the binder to
            # the group's dictionary parameters.
            assert group is not None and ph.name in group.names
            out: ast.Expr = ast.Var(ph.name, pos=ph.pos)
            for param in group.dict_params:
                out = ast.App(out, ast.Var(param, pos=ph.pos), pos=ph.pos)
            node.resolved = out
            return
        assert isinstance(ph, (ClassPlaceholder, MethodPlaceholder))
        if ph.arg_types is not None:
            self.resolve_mp(entry, scope, param_env, group)
            return
        ty = prune(ph.type)
        if isinstance(ty, TyVar):
            # Case 1: the variable is in the parameter environment.
            resolved = self.resolve_from_params(ph, ty, param_env)
            if resolved is not None:
                node.resolved = resolved
                return
            # Case 3: bound in an outer type environment -> defer.
            if ty.level <= self.level and scope.parent is not None:
                scope.defer(entry)
                return
            # Case 4: ambiguity; try defaulting, else error.
            if self.try_default(ty, ph.pos):
                scope.pending.append(entry)  # re-resolve at the new type
                return
            raise AmbiguityError(list(ty.context) or [ph.class_name],
                                 type_str(ty), ph.pos)
        # Case 2: instantiated to a type constructor.
        head, args = spine(ty)
        if not isinstance(head, TyCon):
            raise TypeCheckError(
                f"cannot resolve overloading at type {type_str(ty)}", ph.pos)
        resolved = self.instance_expr(ph, [ty], [(head, args)], scope)
        if resolved is None:
            raise NoInstanceError(ph.class_name, type_str(ty), ph.pos)
        node.resolved = resolved

    def resolve_mp(self, entry: PendingPlaceholder, scope: PlaceholderScope,
                   param_env: Dict[Tuple[str, int], str],
                   group: Optional[GroupState]) -> None:
        """Resolution of a multi-parameter placeholder ``C t1 ... tn``.

        The same four-case analysis as :meth:`resolve_one`, adapted to a
        tuple of types: an all-variable constraint looks up the tuple of
        variable ids in the parameter environment (case 1); otherwise
        the one instance matcher tries the table (case 2); leftover
        variables defer to the enclosing group (case 3) or — since
        multi-parameter constraints are never generalized implicitly
        and never defaulted — report an ambiguity asking for a type
        signature (case 4).  Only cases 1, 3 and 4 differ from
        :meth:`resolve_one`: type-variable contexts (§5) hold
        single-parameter constraints only.
        """
        ph = entry.placeholder
        node = entry.node
        tys = [prune(t) for t in ph.arg_types]
        ph.arg_types = tys
        if all(isinstance(t, TyVar) for t in tys):
            name = param_env.get((ph.class_name, tuple(t.id for t in tys)))
            if name is not None:
                base: ast.Expr = ast.Var(name, pos=ph.pos)
                if isinstance(ph, MethodPlaceholder):
                    node.resolved = self.method_access(
                        ph.class_name, ph.method_name, base, ph.pos)
                else:
                    node.resolved = base
                return
        resolved = self.instance_expr(ph, tys, [spine(t) for t in tys],
                                      scope)
        if resolved is not None:
            node.resolved = resolved
            return
        tyvars = [t for t in tys if isinstance(t, TyVar)]
        rendered = " ".join(type_str(t, 2) for t in tys)
        if tyvars:
            if any(v.level <= self.level for v in tyvars) \
                    and scope.parent is not None:
                scope.defer(entry)
                return
            raise AmbiguityError([ph.class_name], rendered, ph.pos)
        raise NoInstanceError(ph.class_name, rendered, ph.pos)

    def resolve_from_params(self, ph: Placeholder, ty: TyVar,
                            param_env: Dict[Tuple[str, int], str]
                            ) -> Optional[ast.Expr]:
        """Case 1, including access through superclass dictionaries when
        the needed class was absorbed by a subclass (section 8.1)."""
        if isinstance(ph, ClassPlaceholder):
            needed = ph.class_name
        else:
            assert isinstance(ph, MethodPlaceholder)
            needed = ph.class_name
        direct = param_env.get((needed, ty.id))
        if direct is not None:
            base: ast.Expr = ast.Var(direct, pos=ph.pos)
            have = needed
        else:
            # Look for a parameter whose class implies the needed one.
            base = None  # type: ignore[assignment]
            have = ""
            for (cls, var_id), name in param_env.items():
                if var_id == ty.id and self.class_env.implies(cls, needed):
                    base = ast.Var(name, pos=ph.pos)
                    have = cls
                    break
            if base is None:
                return None
        if isinstance(ph, ClassPlaceholder):
            return self.superdict_access(have, needed, base, ph.pos)
        return self.method_access(have, ph.method_name, base, ph.pos)

    # ----------------------------------------------------- dictionaries

    def instance_expr(self, ph: Placeholder, types: List[Type],
                      spines: List[Tuple[Type, List[Type]]],
                      scope: PlaceholderScope) -> Optional[ast.Expr]:
        """Case 2 at every class arity, or None when no instance head
        matches ``C types`` (pruned, with their *spines*).

        A dictionary is the instance's dictionary (constructor) applied
        to one placeholder per context entry, at the matched types.  A
        method the instance defines is its implementation, applied the
        same way: "the type specific version of the method is called
        directly without using the dictionary".  Any other method is
        the class default applied to the dictionary (section 8.2).
        """
        matched = self.class_env.match_instance(ph.class_name, types, spines)
        if matched is None:
            return None
        info, bindings = matched
        pos = ph.pos
        target = info.dict_name
        default: Optional[str] = None
        if isinstance(ph, MethodPlaceholder):
            if ph.method_name in info.defined_methods:
                target = method_impl_name(info.class_name, info.head_name,
                                          ph.method_name)
            else:
                method = self.class_env.class_info(info.class_name).method(
                    ph.method_name)
                if method is None or not method.has_default:
                    raise TypeCheckError(
                        f"instance {info.class_name} {info.head_name} gives "
                        f"no definition of method {ph.method_name} and the "
                        f"class declares no default", pos)
                default = default_method_name(info.class_name, ph.method_name)
        out: ast.Expr = ast.Var(target, pos=pos)
        for cls, var_idxs in info.preds:
            tys = [bindings[i] for i in var_idxs]
            sub = ClassPlaceholder(tys[0], pos, class_name=cls,
                                   arg_types=tys if len(tys) > 1 else None)
            sub_node = make_placeholder_expr(sub)
            scope.add(sub, sub_node)
            out = ast.App(out, sub_node, pos=pos)
        if default is not None:
            out = ast.App(ast.Var(default, pos=pos), out, pos=pos)
        return out

    # ------------------------------------------- dictionary access code

    def method_access(self, have_class: str, method: str, dict_expr: ast.Expr,
                      pos: Optional[SourcePos]) -> ast.Expr:
        """Select *method* out of a dictionary for *have_class*."""
        env = self.class_env
        if env.layout == "flat":
            if env.uses_bare_dict(have_class):
                return dict_expr
            return ast.App(ast.Var(selector_name(have_class, method), pos=pos),
                           dict_expr, pos=pos)
        hops, owner = env.method_access_path(have_class, method)
        expr = dict_expr
        for (c, s) in hops:
            expr = self.superdict_hop(c, s, expr, pos)
        if env.uses_bare_dict(owner):
            return expr
        return ast.App(ast.Var(selector_name(owner, method), pos=pos),
                       expr, pos=pos)

    def superdict_access(self, have_class: str, needed: str,
                         dict_expr: ast.Expr,
                         pos: Optional[SourcePos]) -> ast.Expr:
        """Produce a dictionary for *needed* from one for *have_class*."""
        if have_class == needed:
            return dict_expr
        env = self.class_env
        if env.layout == "flat":
            # One conversion step regardless of distance: the flattened
            # have-dict contains every needed method at top level.
            return ast.App(
                ast.Var(superclass_selector_name(have_class, needed), pos=pos),
                dict_expr, pos=pos)
        path = env.superclass_path(have_class, needed)
        assert path is not None, "implies() said the path exists"
        expr = dict_expr
        for (c, s) in path:
            expr = self.superdict_hop(c, s, expr, pos)
        return expr

    def superdict_hop(self, class_name: str, super_name: str,
                      dict_expr: ast.Expr,
                      pos: Optional[SourcePos]) -> ast.Expr:
        env = self.class_env
        if env.uses_bare_dict(class_name):
            # The single slot *is* the superclass dictionary.
            return dict_expr
        return ast.App(
            ast.Var(superclass_selector_name(class_name, super_name), pos=pos),
            dict_expr, pos=pos)

    # ------------------------------------------------------- defaulting

    def try_default(self, ty: TyVar,
                    pos: Optional[SourcePos] = None) -> bool:
        """Section 6.3 case 4: "the ambiguity may be resolved by some
        language specific mechanism" — Haskell-style numeric defaulting.

        *pos* is the placeholder's source span, so a conflict with the
        defaulted type is reported where the overloading was used
        rather than with no position at all.
        """
        if not self.options.defaulting or not ty.context:
            return False
        if not any(self._is_numeric_class(cls) for cls in ty.context):
            return False
        for name in self.class_env.default_types:
            try:
                candidate = self.static.tycon(name)
            except StaticError:
                continue
            if kind_arity(candidate.kind) != 0:
                continue
            ok = all(self.class_env.get_instance(name, cls) is not None
                     for cls in ty.context)
            if not ok:
                continue
            if self.unifier.try_unify(ty, candidate, pos,
                                      reason="defaulting"):
                return True
        return False

    def _is_numeric_class(self, cls: str) -> bool:
        if cls == "Num":
            return True
        if not self.class_env.is_class(cls):
            return False
        return "Num" in self.class_env.supers_transitive(cls)

    # =================================================================
    # Class defaults and instances (sections 4, 8.1, 8.2)
    # =================================================================

    def compile_class_defaults(self) -> None:
        """Compile each class default method as an ordinary explicitly
        typed overloaded function whose context is the class itself."""
        for class_name, decl in self.static.class_bodies.items():
            if class_name in self._compiled_defaults:
                continue
            self._compiled_defaults.add(class_name)
            info = self.class_env.class_info(class_name)
            for dflt in decl.defaults:
                method = info.method(dflt.name)
                assert method is not None
                bind = ast.simple_bind(default_method_name(class_name, dflt.name),
                                       dflt.simple_rhs, pos=dflt.pos)
                self.check_explicit(bind, method.scheme, kind="default")

    def compile_instances(self) -> None:
        """Compile instance method implementations and generate the
        dictionary (constructor) for every instance — the paper's
        per-instance dictionary value definition (section 4)."""
        for info, decl in self.static.instance_bodies:
            key = (info.class_name, info.head_name)
            if key in self._compiled_instances:
                continue
            self._compiled_instances.add(key)
            self.compile_instance(info, decl)

    def instance_head(self, info: InstanceInfo,
                      var_types: Sequence[Type]) -> List[Type]:
        """One type per class parameter: the instance's head patterns
        with instance variable *i* replaced by ``var_types[i]``.  A
        higher-kinded instance at a partial application (``instance
        Functor (Either a)``) gives the partial spine ``Either a``."""
        heads: List[Type] = []
        for tycon_name, var_idxs in info.heads:
            if tycon_name is None:
                heads.append(var_types[var_idxs[0]])
                continue
            head: Type = self.static.tycon(tycon_name)
            for i in var_idxs:
                head = TyApp(head, var_types[i])
            heads.append(head)
        return heads

    def instance_method_scheme(self, info: InstanceInfo,
                               method: MethodInfo) -> Scheme:
        """The method's scheme specialised to the instance head: the
        class parameters (``TyGen 0 .. arity-1`` of the method scheme)
        become the head patterns over the instance variables, and the
        instance context becomes the leading predicates."""
        arity = info.arity
        n_vars = len(info.var_kinds)
        heads = self.instance_head(info, [TyGen(i) for i in range(n_vars)])

        def shift(t: Type) -> Type:
            t = prune(t)
            if isinstance(t, TyGen):
                if t.index < arity:
                    return heads[t.index]
                return TyGen(n_vars + t.index - arity)
            if isinstance(t, TyApp):
                return TyApp(shift(t.fn), shift(t.arg))
            return t

        kinds = list(info.var_kinds) + method.scheme.kinds[arity:]
        preds = [Pred(cls, types=[TyGen(i) for i in var_idxs])
                 for cls, var_idxs in info.preds]
        for extra in method.scheme.preds[1:]:
            if extra.types is not None:
                preds.append(Pred(extra.class_name,
                                  types=[shift(t) for t in extra.types]))
            else:
                preds.append(Pred(extra.class_name, shift(extra.type)))
        return Scheme(kinds, preds, shift(method.scheme.type))

    def compile_instance(self, info: InstanceInfo,
                         decl: ast.InstanceDecl) -> None:
        class_info = self.class_env.class_info(info.class_name)
        bound = {b.name: b for b in decl.bindings}
        # 1. Implementation functions for the methods the instance gives.
        for method in class_info.methods:
            binding = bound.get(method.name)
            if binding is None:
                continue
            scheme = self.instance_method_scheme(info, method)
            impl = ast.simple_bind(
                method_impl_name(info.class_name, info.head_name, method.name),
                binding.simple_rhs, pos=binding.pos)
            self.check_explicit(impl, scheme, kind="impl")
        # 2. The dictionary constructor (section 4): a definition
        #    binding the dictionary value; overloaded dictionaries take
        #    their subdictionaries as parameters, capturing them by
        #    partial application of the method implementations.
        self.output.append(self.build_dictionary_binding(info, class_info,
                                                         bound))

    def build_dictionary_binding(self, info: InstanceInfo, class_info,
                                 bound: Dict[str, ast.FunBind]
                                 ) -> CompiledBinding:
        env = self.class_env
        pos = info.pos
        sub_params = [f"d$i{i + 1}" for i in range(info.n_dict_params)]
        # Parameter environment for resolving the superclass dictionary
        # slots: the instance variables, as pseudo type vars of their
        # kinds, carrying the instance context.
        head_vars = [TyVar(kind, self.level + 1, "i")
                     for kind in info.var_kinds]
        param_env: Dict[Tuple[str, object], str] = {}
        for (cls, var_idxs), name in zip(info.preds, sub_params):
            if len(var_idxs) > 1:
                param_env[(cls, tuple(head_vars[i].id
                                      for i in var_idxs))] = name
                continue
            head_vars[var_idxs[0]].context.add(cls)
            param_env[(cls, head_vars[var_idxs[0]].id)] = name
        # Superclass and inherited-method slots exist only at arity 1
        # (a multi-parameter class declares no superclasses).
        head_ty = self.instance_head(info, head_vars)[0]

        scope = PlaceholderScope(self.scope)

        def sub_dict_args(target: ast.Expr) -> ast.Expr:
            out = target
            for p in sub_params:
                out = ast.App(out, ast.Var(p, pos=pos), pos=pos)
            return out

        # Defaulted slots reference the dictionary being built.  For a
        # context-free (constant) instance the global dictionary name
        # itself is that reference, which keeps the slot expression a
        # compile-time constant — the specialiser can then chase
        # default-method chains (§9).  Parametrised dictionaries tie a
        # local knot instead.
        this_name = info.dict_name if not sub_params else "dict$this"

        def slot_expr(kind: str, owner: str, name: str) -> ast.Expr:
            if kind == "super":
                ph = ClassPlaceholder(head_ty, pos, class_name=name)
                node = make_placeholder_expr(ph)
                scope.add(ph, node)
                return node
            # method slot; 'owner' is the class that declared it (for
            # the flattened layout it may be a superclass).
            if owner == info.class_name:
                if name in bound:
                    return sub_dict_args(ast.Var(
                        method_impl_name(info.class_name, info.head_name,
                                         name), pos=pos))
                method = class_info.method(name)
                if method is not None and method.has_default:
                    return ast.App(
                        ast.Var(default_method_name(info.class_name, name),
                                pos=pos),
                        ast.Var(this_name, pos=pos), pos=pos)
                return ast.App(
                    ast.Var("error", pos=pos),
                    ast.Lit(f"no definition of method {name} in instance "
                            f"{info.class_name} {info.head_name}", "string",
                            pos=pos), pos=pos)
            # Flattened layout: an inherited method — take it from the
            # (resolved) superclass dictionary for the head type.
            ph = MethodPlaceholder(head_ty, pos, method_name=name,
                                   class_name=owner)
            node = make_placeholder_expr(ph)
            scope.add(ph, node)
            return node

        with self.unifier.episode():
            slots = [slot_expr(kind, owner, name)
                     for (kind, owner, name) in env.dict_slots(info.class_name)]
            self.resolve_scope(scope, param_env, None)
        if env.uses_bare_dict(info.class_name):
            body: ast.Expr = slots[0]
        else:
            body = ast.TupleExpr(slots, pos=pos)
        # Parametrised dictionaries tie the knot with a (lazy)
        # recursive let; constant ones self-reference by global name.
        if sub_params:
            uses_this = any(this_name in ast.expr_free_vars(s) for s in slots)
            if uses_this:
                body = ast.Let([ast.simple_bind(this_name, body)],
                               ast.Var(this_name, pos=pos), pos=pos)
        if sub_params:
            body = ast.Lam([ast.PVar(p) for p in sub_params], body, pos=pos)
        return CompiledBinding(
            info.dict_name, body, None, list(sub_params), "dict",
            dict_classes=[cls for cls, _ in info.preds])
