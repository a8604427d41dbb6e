"""Core Lint: check the invariants every pipeline pass must preserve.

GHC runs a lint over its typed Core after every simplifier pass; this
module is the analogue for our core IR.  A lint failure is always a
*compiler* bug — a transform broke scoping, an arity, a dictionary
shape or an annotation — never a user error, so every failure names
the offending pass (when run as a pass-manager verifier) and the
top-level binding it was found in.

Checks, with their stable error codes (see docs/CORE.md):

``lint.scope``
    every variable occurrence is bound by an enclosing binder, a
    top-level binding, a primitive, or a caller-supplied extra global;
``lint.shadow``
    no duplicate binders within a single group (a lambda's parameter
    list, one let group, one case alternative), and no duplicate
    top-level names for *generated* bindings (dictionaries, selectors,
    method implementations).  Ordinary nested shadowing is legal, and
    so is a later ``user`` binding redefining an earlier one (the
    evaluator's globals are last-wins), although inference already
    rejects a program that redefines a prelude value;
``lint.con-arity``
    constructor values and case alternatives agree with the declared
    constructor arities;
``lint.sel``
    tuple/dictionary selections are in bounds, and agree with literal
    tuple or dictionary operands;
``lint.dict-shape``
    a dictionary tuple has exactly the slots its class's layout
    prescribes (the tag names the instance that built it);
``lint.annotation``
    binder annotation lists stay parallel to binder lists, and
    dictionary-parameter annotations agree with the binding's declared
    ``dict_classes``;
``lint.type``
    where a binding carries its inference scheme, the scheme's
    predicates agree with the dictionary parameters, and a positive
    ``dict_arity`` is realised by an actual lambda.

The lint never mutates the program and runs in one walk per binding.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.errors import (
    LintAnnotationError,
    LintConArityError,
    LintDictShapeError,
    LintScopeError,
    LintSelError,
    LintShadowError,
    LintTypeError,
)
from repro.coreir.syntax import (
    CApp,
    CCase,
    CCon,
    CDict,
    CLam,
    CLet,
    CoreBinding,
    CoreProgram,
    CSel,
    CTuple,
    CVar,
)


_PRIMITIVES: Optional[frozenset] = None


def _primitive_names() -> frozenset:
    """The primitive global scope, computed once — the set is identical
    for every lint and ``primitive_schemes()`` rebuilds its table per
    call."""
    global _PRIMITIVES
    if _PRIMITIVES is None:
        from repro.prelude import primitive_schemes
        _PRIMITIVES = frozenset(primitive_schemes())
    return _PRIMITIVES


def _duplicates(names: Iterable[str]) -> List[str]:
    seen: Set[str] = set()
    dupes: List[str] = []
    for n in names:
        if n in seen and n not in dupes:
            dupes.append(n)
        seen.add(n)
    return dupes


def _tuple_con_arity(name: str) -> Optional[int]:
    """Arity of a tuple constructor name ``(,)``/``(,,)``/…, else None.
    The unit constructor ``()`` is an ordinary registered data con."""
    if (len(name) >= 3 and name[0] == "(" and name[-1] == ")"
            and set(name[1:-1]) == {","}):
        return len(name) - 1
    return None


def dict_tag_class(tag: str) -> Optional[str]:
    """The class a dictionary tag commits to, if it names one.

    Two producer formats exist: instance dictionaries are tagged with
    their binding name ``d$Class$Tycon`` and superclass converters with
    ``Need<=Have`` (the tuple built has *Need*'s layout).  Anything
    else (tests, ad-hoc cores) makes no claim and is not shape-checked.
    """
    if "<=" in tag:
        cls = tag.split("<=", 1)[0]
        return cls or None
    if tag.startswith("d$"):
        parts = tag.split("$")
        if len(parts) >= 3 and parts[1]:
            return parts[1]
    return None


class _Linter:
    def __init__(self, globals_: Set[str], con_arity, class_env,
                 pass_name: Optional[str]) -> None:
        self.globals = globals_
        self.con_arity = con_arity
        self.class_env = class_env
        self.pass_name = pass_name
        self.binding: Optional[str] = None
        # Dictionary sizes resolve through the class layout once per
        # class, not once per CDict node.
        self._dict_size: Dict[str, Optional[int]] = {}

    # ------------------------------------------------------------- failures

    def _fail(self, exc_class, message: str) -> None:
        raise exc_class(message, pass_name=self.pass_name,
                        binding=self.binding)

    # ------------------------------------------------------------- bindings

    def check_binding(self, b: CoreBinding) -> None:
        self.binding = b.name
        if b.dict_classes is not None and len(b.dict_classes) != b.dict_arity:
            self._fail(
                LintAnnotationError,
                f"dict_classes {list(b.dict_classes)} has "
                f"{len(b.dict_classes)} entries but dict_arity is "
                f"{b.dict_arity}")
        if b.dict_arity > 0:
            # Hoisting may leave the dictionary lambda under a let of
            # floated constructions; the lambda itself must still be
            # there.
            lam = b.expr
            while isinstance(lam, CLet):
                lam = lam.body
            if not (isinstance(lam, CLam)
                    and len(lam.params) >= b.dict_arity):
                self._fail(
                    LintTypeError,
                    f"dict_arity {b.dict_arity} but the right-hand side "
                    f"is not a lambda of at least that many parameters")
            if b.dict_classes is not None and lam.anns is not None:
                for i, cls in enumerate(b.dict_classes):
                    ann = lam.anns[i] if i < len(lam.anns) else None
                    if (ann is not None and ann.dict_class is not None
                            and ann.dict_class != cls):
                        self._fail(
                            LintAnnotationError,
                            f"dictionary parameter {i} annotated as class "
                            f"{ann.dict_class} but the binding declares "
                            f"{cls}")
        scheme = b.type_ann
        if scheme is not None:
            preds = getattr(scheme, "preds", None)
            if preds is not None:
                if len(preds) != b.dict_arity:
                    self._fail(
                        LintTypeError,
                        f"type scheme has {len(preds)} class "
                        f"constraint(s) but dict_arity is {b.dict_arity}")
                if b.dict_classes is not None:
                    declared = [p.class_name for p in preds]
                    if declared != list(b.dict_classes):
                        self._fail(
                            LintTypeError,
                            f"scheme constraints {declared} disagree with "
                            f"dict_classes {list(b.dict_classes)}")
        # Counting scope map: name -> number of live binders, so exiting
        # an inner binder never unbinds an outer one of the same name.
        self.expr(b.expr, {})

    # ---------------------------------------------------------- expressions

    def _enter(self, bound: Dict[str, int], names: Iterable[str]) -> None:
        for n in names:
            bound[n] = bound.get(n, 0) + 1

    def _exit(self, bound: Dict[str, int], names: Iterable[str]) -> None:
        for n in names:
            k = bound[n] - 1
            if k:
                bound[n] = k
            else:
                del bound[n]

    def _check_group(self, what: str, names: List[str]) -> None:
        # Fast path: most groups are one or two distinct names.
        if len(names) > 1 and len(set(names)) != len(names):
            self._fail(LintShadowError,
                       f"duplicate binder(s) {_duplicates(names)} "
                       f"in one {what}")

    def _check_anns(self, what: str, names: List[str], anns) -> None:
        if anns is not None and len(anns) != len(names):
            self._fail(
                LintAnnotationError,
                f"{what} has {len(names)} binder(s) but "
                f"{len(anns)} annotation(s)")

    def expr(self, e, bound: Dict[str, int]) -> None:
        # The walk is on every compile's critical path when the lint is
        # enabled, so the dispatch is by exact class (core nodes are
        # never subclassed) with the hottest nodes first, and an
        # application spine is unrolled iteratively.
        t = e.__class__
        while t is CApp:
            self.expr(e.arg, bound)
            e = e.fn
            t = e.__class__
        if t is CVar:
            if e.name not in bound and e.name not in self.globals:
                self._fail(LintScopeError,
                           f"variable '{e.name}' is not in scope")
        elif t is CLam:
            self._check_group("lambda parameter list", e.params)
            self._check_anns("lambda", e.params, e.anns)
            self._enter(bound, e.params)
            self.expr(e.body, bound)
            self._exit(bound, e.params)
        elif t is CLet:
            names = [n for n, _ in e.binds]
            self._check_group("let group", names)
            if e.recursive:
                self._enter(bound, names)
                for _, rhs in e.binds:
                    self.expr(rhs, bound)
            else:
                for _, rhs in e.binds:
                    self.expr(rhs, bound)
                self._enter(bound, names)
            self.expr(e.body, bound)
            self._exit(bound, names)
        elif t is CCase:
            self.expr(e.scrutinee, bound)
            for alt in e.alts:
                self._check_group("case alternative", alt.binders)
                self._check_anns(f"alternative for {alt.con_name}",
                                 alt.binders, alt.anns)
                self._check_alt_arity(alt)
                self._enter(bound, alt.binders)
                self.expr(alt.body, bound)
                self._exit(bound, alt.binders)
            for lalt in e.lit_alts:
                self.expr(lalt.body, bound)
            if e.default is not None:
                self.expr(e.default, bound)
        elif t is CTuple:
            for item in e.items:
                self.expr(item, bound)
        elif t is CDict:
            self._check_dict_shape(e)
            for item in e.items:
                self.expr(item, bound)
        elif t is CSel:
            if not 0 <= e.index < e.arity:
                self._fail(LintSelError,
                           f"selection index {e.index} out of bounds for "
                           f"a {e.arity}-tuple")
            if (isinstance(e.expr, (CTuple, CDict))
                    and len(e.expr.items) != e.arity):
                self._fail(
                    LintSelError,
                    f"selection expects a {e.arity}-tuple but the operand "
                    f"literally has {len(e.expr.items)} component(s)")
            self.expr(e.expr, bound)
        elif t is CCon:
            self._check_con(e)
        # CLit: nothing to check

    # ------------------------------------------------------- shape checking

    def _expected_con_arity(self, name: str) -> Optional[int]:
        if self.con_arity is not None and name in self.con_arity:
            return self.con_arity[name]
        return _tuple_con_arity(name)

    def _check_con(self, e: CCon) -> None:
        expected = self._expected_con_arity(e.name)
        if expected is not None and e.arity != expected:
            self._fail(LintConArityError,
                       f"constructor {e.name} used with arity {e.arity} "
                       f"but it is declared with arity {expected}")

    def _check_alt_arity(self, alt) -> None:
        expected = self._expected_con_arity(alt.con_name)
        if expected is not None and len(alt.binders) != expected:
            self._fail(
                LintConArityError,
                f"alternative for {alt.con_name} binds "
                f"{len(alt.binders)} variable(s) but the constructor has "
                f"arity {expected}")

    def _check_dict_shape(self, e: CDict) -> None:
        if self.class_env is None:
            return
        cls = dict_tag_class(e.tag)
        if cls is None:
            return
        if cls not in self._dict_size:
            size: Optional[int] = None
            if cls in getattr(self.class_env, "classes", {}):
                if not self.class_env.uses_bare_dict(cls):
                    size = self.class_env.dict_size(cls)
            self._dict_size[cls] = size
        expected = self._dict_size[cls]
        if expected is not None and len(e.items) != expected:
            self._fail(
                LintDictShapeError,
                f"dictionary tagged '{e.tag}' has {len(e.items)} slot(s) "
                f"but a {cls} dictionary has {expected}")


def check_generated_names(program: CoreProgram,
                          pass_name: Optional[str] = None) -> List[str]:
    """Raise :class:`LintShadowError` when a *generated* binding's name
    occurs twice at top level; return the top-level names.

    A repeated 'user' binding is legal core (the evaluator's globals
    are last-wins); a repeated generated one means two dictionaries,
    methods or selectors got one name, and one of them would silently
    answer for both.  ``program_from_context`` runs this on every program,
    whatever the ``lint`` setting."""
    names = [b.name for b in program.bindings]
    if len(set(names)) < len(names):
        generated = {b.name for b in program.bindings if b.kind != "user"}
        dupes = [n for n in _duplicates(names) if n in generated]
        if dupes:
            raise LintShadowError(
                f"duplicate top-level binding(s) {dupes} of generated kind",
                pass_name=pass_name)
    return names


def lint_program(program: CoreProgram, *,
                 extra_globals: Optional[Iterable[str]] = None,
                 con_arity: Optional[Dict[str, int]] = None,
                 class_env=None,
                 pass_name: Optional[str] = None,
                 cache: Optional[Dict] = None) -> None:
    """Lint a whole core program; raises a :class:`CoreLintError`
    subclass on the first violation.

    *con_arity* and *class_env* enable the arity and dictionary-shape
    checks; without them only scoping, shadowing, selection-bounds and
    annotation invariants are checked.  *pass_name* is stamped into any
    failure so a pipeline verifier can say which pass broke the
    program.

    *cache* (a dict the caller keeps for one compilation, e.g. on the
    compile context) lets consecutive lints of the same program skip
    bindings that are the *same objects* as last time.  Core nodes are
    immutable and every binding-local check depends only on the binding
    itself, so a previously clean binding can only become dirty through
    its free variables — and only if a name it relied on disappeared.
    The cache therefore remembers the global scope it last checked
    against and flushes whenever the new scope is not a superset of it;
    while the scope only grows (the pipeline adds selectors and
    specialised clones, it never deletes), skipping identical bindings
    is sound."""
    globals_: Set[str] = set(_primitive_names())
    if extra_globals is not None:
        globals_.update(extra_globals)
    names = check_generated_names(program, pass_name)
    globals_.update(names)
    linter = _Linter(globals_, con_arity, class_env, pass_name)
    if cache is None:
        for b in program.bindings:
            linter.check_binding(b)
        return
    seen: Dict[int, CoreBinding] = cache.get("seen") or {}
    prev = cache.get("globals")
    if prev is None or not prev.issubset(globals_):
        seen = {}
    for b in program.bindings:
        if seen.get(id(b)) is b:
            continue
        linter.check_binding(b)
        seen[id(b)] = b
    cache["seen"] = seen
    cache["globals"] = globals_


def lint_expr(expr, *, globals_: Optional[Iterable[str]] = None,
              con_arity: Optional[Dict[str, int]] = None,
              class_env=None,
              pass_name: Optional[str] = None) -> None:
    """Lint one expression against a caller-supplied global scope
    (REPL snippets, test fragments)."""
    linter = _Linter(set(globals_ or ()), con_arity, class_env, pass_name)
    linter.expr(expr, {})
