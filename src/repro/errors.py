"""Diagnostics for every stage of the compiler.

All compiler-raised conditions derive from :class:`ReproError` so that a
driver (or a test) can catch the whole family at once.  Errors carry an
optional source location; :meth:`ReproError.pretty` renders a message
with the offending source line and a caret, in the style users expect
from a production compiler.

Every error class also carries a stable, machine-readable ``code``
(dotted, most-general segment first: ``type.unify``, ``limit.depth``)
and renders itself to a JSON-able dict via :meth:`ReproError.to_json`.
The compile server's error envelope and the fuzz harness both key off
these codes, so they are part of the public protocol: changing one is a
breaking change (see docs/SERVICE.md for the taxonomy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Tab stop used when quoting source lines in :meth:`ReproError.pretty`
#: (every mainstream terminal's).  Only the quote expands tabs: the
#: lexer counts a tab as one column, so ``\ty`` puts ``y`` at column 2.
TAB_WIDTH = 8


@dataclass(frozen=True, init=False)
class SourcePos:
    """A position in a source file: 1-based line and column."""

    line: int
    column: int
    filename: str = "<input>"

    def __init__(self, line: int, column: int,
                 filename: str = "<input>") -> None:
        # The lexer makes one per token: filling the instance dict
        # directly skips the frozen dataclass's three
        # ``object.__setattr__`` calls.  The dict keeps the field
        # order, so pickles are byte-identical.
        fields = self.__dict__
        fields["line"] = line
        fields["column"] = column
        fields["filename"] = filename

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def to_json(self) -> Dict[str, Any]:
        return {"filename": self.filename, "line": self.line,
                "column": self.column}


@dataclass(frozen=True)
class Provenance:
    """One source span that contributed to a diagnostic, with the
    *reason* the constraint at that span exists (``application``,
    ``annotation``, ``instance``, ``superclass``, ``defaulting``, ...).

    A type error's :attr:`ReproError.positions` is a list of these —
    ideally the minimal unsatisfiable subset of the constraints the
    inferencer recorded, so every listed span is actually needed to
    reproduce the conflict."""

    pos: SourcePos
    reason: str = "constraint"

    def to_json(self) -> Dict[str, Any]:
        return {"filename": self.pos.filename, "line": self.pos.line,
                "column": self.pos.column, "reason": self.reason}


class ReproError(Exception):
    """Base class for every error raised by the compiler."""

    #: Stable machine-readable error code; subclasses override.
    code = "error"

    def __init__(self, message: str, pos: Optional[SourcePos] = None) -> None:
        super().__init__(message)
        self.message = message
        self.pos = pos
        #: Secondary source spans with reasons (:class:`Provenance`),
        #: e.g. the minimal unsatisfiable constraint set of a type
        #: error.  The primary ``pos`` stays authoritative for callers
        #: that predate multi-location diagnostics.
        self.positions: List[Provenance] = []

    def __str__(self) -> str:
        if self.pos is not None:
            return f"{self.pos}: {self.message}"
        return self.message

    def to_json(self) -> Dict[str, Any]:
        """A JSON-able rendering: ``{code, message, pos, positions}``
        with ``pos`` either ``{filename, line, column}`` or ``None`` and
        ``positions`` a list of ``{filename, line, column, reason}``.
        The compile server sends exactly this shape in its error
        envelope."""
        return {
            "code": self.code,
            "message": str(self),
            "pos": self.pos.to_json() if self.pos is not None else None,
            "positions": [p.to_json() for p in self.positions],
        }

    @staticmethod
    def _caret_block(src_line: str, column: int, indent: str) -> str:
        # Expand tabs in both the quoted line and the caret pad with the
        # same tab stops, so the caret lands under the offending column
        # even when the line mixes tabs and spaces.
        prefix = src_line[:column - 1].expandtabs(TAB_WIDTH)
        caret = " " * len(prefix) + "^"
        return (f"{indent}{src_line.expandtabs(TAB_WIDTH)}\n"
                f"{indent}{caret}")

    def pretty(self, source: Optional[str] = None) -> str:
        """Render the error, quoting the offending line when available.

        When :attr:`positions` is non-empty, each secondary span is
        rendered after the primary one as a ``note:`` with its own
        quoted line and caret (multi-caret output), provided *source*
        holds the file it points into."""
        header = str(self)
        lines = source.splitlines() if source is not None else []
        out = [header]
        if lines and self.pos is not None \
                and 1 <= self.pos.line <= len(lines):
            out.append(self._caret_block(lines[self.pos.line - 1],
                                         self.pos.column, "  "))
        primary_file = self.pos.filename if self.pos is not None else None
        for prov in self.positions:
            p = prov.pos
            if self.pos is not None and p == self.pos:
                continue  # the primary caret already shows this span
            out.append(f"  note: {p}: {prov.reason}")
            same_file = primary_file is None or p.filename == primary_file
            if lines and same_file and 1 <= p.line <= len(lines):
                out.append(self._caret_block(lines[p.line - 1],
                                             p.column, "    "))
        return "\n".join(out)


class LexError(ReproError):
    """Raised by the lexer: bad character, unterminated literal, bad layout."""

    code = "lex"


class ParseError(ReproError):
    """Raised by the parser on malformed syntax."""

    code = "parse"


class StaticError(ReproError):
    """Raised during static analysis (section 4): malformed or duplicate
    data/class/instance declarations, unknown names, arity errors."""

    code = "static"


class DuplicateInstanceError(StaticError):
    """Two instance declarations for the same (class, type constructor)
    pair — section 4 requires instances to be unique.  This is the
    overlap check at class arity 1."""

    code = "static.duplicate-instance"


class SolverOverlapError(StaticError):
    """Two instance simplification rules for the same class overlap:
    some constraint would match both, so CHR resolution loses confluence
    (Bottu et al.).  Single-parameter overlap is reported as
    :class:`DuplicateInstanceError`; this covers the multi-parameter
    head space."""

    code = "solver.overlap"


class SolverNonterminatingError(StaticError):
    """An instance simplification rule does not shrink its goal: every
    head position is a bare variable while the context is non-empty, so
    repeated application of the rule can run forever.  Rejected
    statically so the context-reduction fuel budget is a backstop, not
    a semantics."""

    code = "solver.nonterminating"


class ModuleError(ReproError):
    """Base class for module-system errors: unresolved imports, name
    conflicts between modules, export-list problems."""

    code = "module"


class UnknownModuleError(ModuleError):
    """An ``import M`` names a module the build cannot find (or any
    import in single-file compilation, which has no module search)."""

    code = "module.unknown"


class ModuleCycleError(ModuleError):
    """The import graph is cyclic (including self-imports); separate
    compilation needs a DAG."""

    code = "module.cycle"

    def __init__(self, modules: List[str],
                 pos: Optional[SourcePos] = None) -> None:
        chain = " -> ".join(modules + modules[:1]) if modules else "?"
        super().__init__(f"import cycle between modules: {chain}", pos)
        self.modules = list(modules)


class StaleInterfaceError(ModuleError):
    """A ``.ri`` interface file on disk cannot be read, or has the
    wrong magic, another format version, or an unreadable payload
    (:func:`repro.modules.interface.load_interface`).  A build never
    unpickles one: it compares the file's bytes with the interface it
    compiled and overwrites a file that differs."""

    code = "module.interface.stale"


class LinkError(ModuleError):
    """Merging module interfaces failed: the same top-level name, class
    or type is defined in two modules."""

    code = "module.link"


class DuplicateInstanceLinkError(LinkError):
    """Two modules define overlapping instances — at arity 1, for the
    same (class, type constructor) pair — rejected at link time for
    coherence, naming both defining modules.  ``tycon_name`` is the
    later instance's head name (``InstanceInfo.head_name``)."""

    code = "module.link.duplicate-instance"

    def __init__(self, class_name: str, tycon_name: str,
                 first_module: str, second_module: str,
                 pos: Optional[SourcePos] = None) -> None:
        super().__init__(
            f"duplicate instance {class_name} {tycon_name}: defined in "
            f"module '{first_module}' and again in module "
            f"'{second_module}'; instances must be globally coherent",
            pos,
        )
        self.class_name = class_name
        self.tycon_name = tycon_name
        self.first_module = first_module
        self.second_module = second_module


class KindError(ReproError):
    """Raised by kind inference when a type expression is ill-kinded."""

    code = "kind"

    def locate(self) -> None:
        """Name the error's own site in :attr:`positions` — the
        ``error-site`` entry a type error gets when no constraint
        explains it.  Callers do this only with constraint provenance
        on, so ``positions`` stays empty when it is off."""
        if not self.positions and self.pos is not None:
            self.positions = [Provenance(self.pos, "error-site")]


class TypeCheckError(ReproError):
    """Base class for errors raised during type inference proper."""

    code = "type"


class UnificationError(TypeCheckError):
    """Two types cannot be made equal."""

    code = "type.unify"


class OccursCheckError(UnificationError):
    """A type variable would have to contain itself (infinite type)."""

    code = "type.occurs"


class NoInstanceError(TypeCheckError):
    """Context reduction failed: an overloaded operator is used at a type
    that is not an instance of the corresponding class (section 5)."""

    code = "type.no-instance"

    def __init__(self, class_name: str, type_str: str,
                 pos: Optional[SourcePos] = None) -> None:
        super().__init__(
            f"no instance for {class_name} {type_str}: the overloaded "
            f"operation is used at a type that is not an instance of "
            f"class {class_name}",
            pos,
        )
        self.class_name = class_name
        self.type_str = type_str


class AmbiguityError(TypeCheckError):
    """Placeholder resolution case 4 (section 6.3): a class constraint
    mentions a type variable that appears neither in the parameter
    environment nor in an enclosing binding, and defaulting failed."""

    code = "type.ambiguous"

    def __init__(self, class_names: List[str], type_str: str,
                 pos: Optional[SourcePos] = None) -> None:
        classes = ", ".join(class_names)
        super().__init__(
            f"ambiguous overloading: constraint(s) ({classes}) on type "
            f"{type_str} cannot be resolved from the context of use and "
            f"no default applies",
            pos,
        )
        self.class_names = list(class_names)
        self.type_str = type_str


class SignatureError(TypeCheckError):
    """A user-supplied signature (section 8.6) is violated: the inferred
    type is more constrained or less general than the declared one."""

    code = "type.signature"


class MonomorphismWarning:
    """Not an error: a letrec binder whose own type does not mention the
    full context of its group (section 8.3) — callable inside the group
    but ambiguous from outside.  Collected, not raised."""

    def __init__(self, name: str, missing: List[str]) -> None:
        self.name = name
        self.missing = list(missing)

    def __str__(self) -> str:
        return (
            f"warning: {self.name} shares a recursive group whose context "
            f"mentions {', '.join(self.missing)} not reflected in its own "
            f"type; it can be called within the group but not from outside"
        )

    def __repr__(self) -> str:
        return f"MonomorphismWarning({self.name!r}, {self.missing!r})"


class SpecializeBudgetWarning:
    """Not an error: a specialisation pass ran out of its clone budget
    (``options.specialize_budget``) and stopped creating clones; the
    program is still correct, just less specialised.  Collected, not
    raised.  Carries a stable machine-readable ``code`` like the error
    classes so the server can expose it structurally."""

    code = "spec.budget-exhausted"

    def __init__(self, pass_name: str, budget: int) -> None:
        self.pass_name = pass_name
        self.budget = budget

    def to_json(self) -> dict:
        return {"code": self.code, "pass": self.pass_name,
                "budget": self.budget, "message": str(self)}

    def __str__(self) -> str:
        return (f"warning: {self.pass_name} exhausted its clone budget "
                f"({self.budget}); some overloaded calls keep dictionary "
                f"dispatch (raise --set specialize_budget=N to clone more)")

    def __repr__(self) -> str:
        return (f"SpecializeBudgetWarning({self.pass_name!r}, "
                f"{self.budget!r})")


class EvalError(ReproError):
    """Raised by the core evaluator: pattern match failure, bad primitive
    application, user `error` calls."""

    code = "eval"


class TagDispatchError(ReproError):
    """Raised by the tag-dispatch baseline (section 3), notably when asked
    to resolve overloading that is determined only by the *result* type
    (e.g. `read`), which tags cannot express."""

    code = "tags"


class CoreLintError(ReproError):
    """The core lint found an ill-formed program after a pipeline pass.

    A lint failure means a compiler bug — some pass broke scoping, an
    arity, a dictionary shape or an annotation invariant — never a user
    error, so the message names the offending pass and binding.  The
    concrete checks are subclasses with stable ``lint.*`` codes (see
    docs/CORE.md for the full table)."""

    code = "lint"

    def __init__(self, message: str, pos: Optional[SourcePos] = None,
                 pass_name: Optional[str] = None,
                 binding: Optional[str] = None) -> None:
        where = []
        if binding is not None:
            where.append(f"in binding '{binding}'")
        if pass_name is not None:
            where.append(f"after pass '{pass_name}'")
        if where:
            message = f"core lint {' '.join(where)}: {message}"
        else:
            message = f"core lint: {message}"
        super().__init__(message, pos)
        #: the pipeline pass whose output failed the lint, when known
        self.pass_name = pass_name
        #: the top-level binding the failure was found in, when known
        self.binding = binding

    def to_json(self) -> Dict[str, Any]:
        out = super().to_json()
        out["pass"] = self.pass_name
        out["binding"] = self.binding
        return out


class LintScopeError(CoreLintError):
    """A variable occurrence has no enclosing binder or top-level
    definition (and is not a primitive)."""

    code = "lint.scope"


class LintShadowError(CoreLintError):
    """Duplicate binders inside one binding group (lambda parameter
    list, let group, case alternative) or duplicate top-level names —
    ordinary nested shadowing is legal, ambiguity within a single group
    is not."""

    code = "lint.shadow"


class LintConArityError(CoreLintError):
    """A constructor value or case alternative disagrees with the
    constructor's declared arity."""

    code = "lint.con-arity"


class LintSelError(CoreLintError):
    """A tuple/dictionary selection is out of bounds: index outside
    ``[0, arity)`` or arity disagreeing with a literal tuple or
    dictionary operand."""

    code = "lint.sel"


class LintDictShapeError(CoreLintError):
    """A dictionary tuple has the wrong number of slots for the class
    its tag names (layout-aware; see ClassEnv.dict_slots)."""

    code = "lint.dict-shape"


class LintAnnotationError(CoreLintError):
    """A binder annotation is inconsistent: annotation list not
    parallel to the binder list, ``dict_classes`` length disagreeing
    with ``dict_arity``, or a dictionary-parameter annotation naming a
    different class than the binding declares."""

    code = "lint.annotation"


class LintTypeError(CoreLintError):
    """An annotated type is violated where the lint can check it: a
    binding's scheme predicates disagree with its dictionary
    parameters, or a dictionary-arity binding is not the lambda its
    arity promises."""

    code = "lint.type"


class ResourceLimitError(ReproError):
    """A compiler or evaluator resource budget was exhausted: parser or
    type-checker depth guard, evaluator depth budget, or a Python
    ``RecursionError`` caught at a phase boundary.  Deliberately a
    `ReproError` so long-lived hosts (the compile server, the REPL) treat
    pathological inputs like any other diagnostic instead of dying."""

    code = "limit"

    def __init__(self, message: str, pos: Optional[SourcePos] = None,
                 limit: Optional[str] = None) -> None:
        super().__init__(message, pos)
        #: Name of the exhausted budget (e.g. ``"max_parse_depth"``),
        #: when known — lets callers tell users which knob to raise.
        self.limit = limit


class ServiceLimitError(ReproError):
    """A client-supplied per-request limit (``timeout``, ``max_depth``,
    ``step_limit``) exceeds the server-configured ceiling.  The service
    rejects the request rather than trusting the envelope — a
    misbehaving client must not be able to grant itself a bigger
    resource budget than the operator allowed."""

    code = "service.limit-exceeded"

    def __init__(self, param: str, given: Any, ceiling: Any) -> None:
        super().__init__(
            f"request {param}={given!r} exceeds the server ceiling "
            f"{ceiling!r}")
        self.param = param
        self.given = given
        self.ceiling = ceiling
        #: mirrors ResourceLimitError.limit so the server envelope's
        #: ``limit`` field names the offending knob uniformly
        self.limit = param
