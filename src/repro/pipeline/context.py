"""Shared state of one compilation as it moves through the passes.

A :class:`CompileContext` is the single mutable value every pass reads
and writes: the source units to compile, the static environment, the
inferencer, the accumulated compiled bindings and — once translation
has run — the core program.  It also carries a :class:`PhaseTrace`
recording where the wall-clock went, pass by pass.

Two constructors cover the two ways a compilation starts:

* :meth:`CompileContext.fresh` — a cold compile: new class/static/type
  environments, primitives bound, nothing compiled yet;
* :meth:`CompileContext.forked` — a warm compile on top of a prelude
  snapshot fork: the environments come pre-seeded and the prelude's
  already-translated core is carried as a *prefix* that the translate
  pass prepends (and whose compiled bindings it skips).  With a
  :class:`TransformedPrefix` the per-binding passes also splice in the
  prelude as they would leave it and walk only the bindings after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.classes import ClassEnv
from repro.core.infer import (
    CompiledBinding,
    Inferencer,
    InferResult,
    SchemeEntry,
    TypeEnv,
)
from repro.core.static import StaticEnv
from repro.coreir.syntax import CoreBinding, CoreProgram
from repro.options import CompilerOptions
from repro.prelude import primitive_schemes
from repro.util.names import NameSupply


@dataclass
class PassTiming:
    """Accumulated cost of one pass across its invocations."""

    name: str
    seconds: float = 0.0
    calls: int = 0


class PhaseTrace:
    """Per-pass wall time and invocation counts for one compilation.

    Recorded by the :class:`~repro.pipeline.manager.PassManager`,
    attached to ``CompiledProgram.compile_stats.phases``, surfaced by
    ``repro run --time-passes`` and aggregated across requests by the
    server's metrics.  The trace also carries the unifier counters so
    one object answers both "where did the time go" and "how much
    inference work happened".
    """

    def __init__(self) -> None:
        self._timings: Dict[str, PassTiming] = {}
        #: per-pass work counters beyond wall time, e.g. how many
        #: clones a specialisation pass created: ``{pass: {key: n}}``
        self._counters: Dict[str, Dict[str, int]] = {}
        self.unify_count = 0
        self.context_reductions = 0
        self.constraint_propagations = 0

    # ----------------------------------------------------------- recording

    def record(self, name: str, seconds: float) -> None:
        timing = self._timings.get(name)
        if timing is None:
            timing = self._timings[name] = PassTiming(name)
        timing.seconds += seconds
        timing.calls += 1

    def add_counter(self, pass_name: str, key: str, n: int = 1) -> None:
        """Accumulate a named work counter for *pass_name* (shows up
        next to its timing in ``as_dict()`` and the server stats)."""
        bucket = self._counters.setdefault(pass_name, {})
        bucket[key] = bucket.get(key, 0) + n

    def finish(self, unifier: Any) -> None:
        """Copy the unifier counters into the trace (called once, when
        the pipeline hands the context over to the driver).  Counters
        are assigned absolutely (not accumulated) so the call is
        idempotent."""
        self.unify_count = unifier.unify_count
        self.context_reductions = unifier.context_reduction_count
        self.constraint_propagations = unifier.constraint_propagations
        capped = getattr(unifier, "minimize_capped_count", 0)
        if capped:
            self._counters.setdefault("infer", {})[
                "provenance.minimize-capped"] = capped

    # ------------------------------------------------------- introspection

    @property
    def timings(self) -> List[PassTiming]:
        """Timings in execution order (dicts preserve insertion)."""
        return list(self._timings.values())

    def names(self) -> List[str]:
        return list(self._timings)

    def seconds(self, name: str) -> float:
        timing = self._timings.get(name)
        return timing.seconds if timing is not None else 0.0

    def total_seconds(self) -> float:
        return sum(t.seconds for t in self._timings.values())

    def counters(self, name: str) -> Dict[str, int]:
        return dict(self._counters.get(name, {}))

    def all_counters(self) -> Dict[str, Dict[str, int]]:
        return {name: dict(bucket)
                for name, bucket in self._counters.items()}

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready summary: ``{pass: {ms, calls, **counters}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for timing in self._timings.values():
            out[timing.name] = {"ms": round(timing.seconds * 1e3, 3),
                                "calls": timing.calls}
        for pass_name, bucket in self._counters.items():
            out.setdefault(pass_name, {}).update(bucket)
        return out

    def pretty(self) -> str:
        """The ``--time-passes`` table."""
        width = max([len(t.name) for t in self._timings.values()] + [5])
        lines = [f"{'pass':<{width}}  {'calls':>5}  {'ms':>9}"]
        for timing in self._timings.values():
            lines.append(f"{timing.name:<{width}}  {timing.calls:>5}  "
                         f"{timing.seconds * 1e3:>9.3f}")
        lines.append(f"{'total':<{width}}  {'':>5}  "
                     f"{self.total_seconds() * 1e3:>9.3f}")
        return "\n".join(lines)


@dataclass
class SourceUnit:
    """One source text moving through the per-unit front-end passes."""

    text: str
    filename: str
    #: the AST after ``parse``, rewritten in place by ``desugar``
    program: Optional[Any] = None


@dataclass(frozen=True)
class TransformedPrefix:
    """A core prefix as the per-binding passes leave it.

    A per-binding pass (:attr:`repro.pipeline.manager.Pass.per_binding`)
    rewrites each top-level binding on its own, so its output for the
    leading bindings of a program does not depend on the bindings after
    them.  A prelude snapshot records the prelude's input and output of
    each such pass once; every compile on the snapshot whose core
    starts with that very input splices the output in, and the pass
    walks only the bindings that follow.
    """

    #: pass name -> the prefix's bindings as that pass receives them
    before: Mapping[str, Tuple[CoreBinding, ...]]
    #: pass name -> the prefix's bindings as that pass leaves them
    after: Mapping[str, Tuple[CoreBinding, ...]]
    #: :attr:`CompileContext.names` after the passes ran over the prefix
    names: Mapping[str, int]
    #: the evaluator's staged code for the prefix's binding bodies (a
    #: :class:`repro.coreir.eval.CodeTable`), shared by every program
    #: whose core keeps those very bodies
    code: Optional[Any] = None


@dataclass
class CompileContext:
    """Everything a pass may read or write.

    A forked context (:meth:`forked`) holds only the user program's
    source units; the prelude arrives already compiled — its translated
    core as :attr:`prefix_core`, and its core after each per-binding
    pass as :attr:`transformed` — so a warm compile walks the user's
    bindings, not the prelude's, in every pass but the whole-program
    ones.
    """

    options: CompilerOptions
    units: List[SourceUnit]
    static_env: StaticEnv
    inferencer: Inferencer
    #: all compiled (dictionary-converted) bindings, prelude included
    compiled: List[CompiledBinding] = field(default_factory=list)
    #: the core program; None until the ``translate`` pass has run
    core: Optional[CoreProgram] = None
    #: already-translated core carried in from a snapshot fork; the
    #: translate pass prepends it instead of re-translating
    prefix_core: Tuple[CoreBinding, ...] = ()
    #: how many entries of ``compiled`` the prefix covers (skipped by
    #: the translate pass)
    n_prefix_bindings: int = 0
    #: the leading core bindings already run through the per-binding
    #: passes; None means every pass walks the whole program
    transformed: Optional[TransformedPrefix] = None
    #: fresh names the core transforms generate (hoisting's ``hd$N``);
    #: a compile with a transformed prefix numbers on from its counters
    names: NameSupply = field(default_factory=NameSupply)
    trace: PhaseTrace = field(default_factory=PhaseTrace)
    result: Optional[InferResult] = None
    #: extra operator fixities handed to the parser — the module build
    #: threads fixities exported by imported interfaces through here
    fixities: Optional[Dict[str, Any]] = None
    #: True when a module build has resolved this unit's imports against
    #: interfaces; a plain single-file compile rejects ``import`` decls
    #: with a located error (there is nothing to resolve them against)
    imports_resolved: bool = False
    #: names defined outside this compilation unit but legitimately
    #: referenced by its core — values (and generated dictionary/impl/
    #: default bindings) provided by imported module interfaces.  The
    #: core lint treats these as in scope.
    extern_names: Tuple[str, ...] = ()
    #: which module each top-level core binding came from (the prelude's
    #: map to "<prelude>").  Set only by ``link_modules``; its presence
    #: is what arms the link-time ``specialize-xmodule`` pass.
    module_origins: Optional[Dict[str, str]] = None
    #: merged ``name -> Unfolding`` from the linked interfaces — the
    #: serialized bodies the cross-module specializer clones from
    unfoldings: Optional[Dict[str, Any]] = None
    #: scratch state for the core-lint verifier: remembers which binding
    #: objects already linted clean this compile (transforms preserve
    #: object identity for untouched bindings, so most re-lints are
    #: incremental).  Owned entirely by repro.coreir.lint.lint_program.
    lint_cache: Dict = field(default_factory=dict, repr=False)

    # -------------------------------------------------------- constructors

    @classmethod
    def fresh(cls, options: CompilerOptions,
              sources: Sequence[Tuple[str, str]]) -> "CompileContext":
        """A cold compilation: new environments, primitives bound."""
        class_env = ClassEnv(layout=options.dict_layout,
                             single_slot_opt=options.single_slot_opt)
        static_env = StaticEnv(class_env)
        global_env = TypeEnv()
        for name, scheme in primitive_schemes().items():
            global_env.bind(name, SchemeEntry(scheme))
        inferencer = Inferencer(static_env, options, global_env)
        units = [SourceUnit(text, filename) for text, filename in sources]
        return cls(options, units, static_env, inferencer)

    @classmethod
    def forked(cls, options: CompilerOptions,
               sources: Sequence[Tuple[str, str]],
               static_env: StaticEnv, inferencer: Inferencer,
               prefix_core: Tuple[CoreBinding, ...] = (),
               n_prefix_bindings: int = 0,
               transformed: Optional[TransformedPrefix] = None
               ) -> "CompileContext":
        """A warm compilation on a prelude-snapshot fork."""
        units = [SourceUnit(text, filename) for text, filename in sources]
        names = NameSupply(transformed.names if transformed else None)
        return cls(options, units, static_env, inferencer,
                   prefix_core=tuple(prefix_core),
                   n_prefix_bindings=n_prefix_bindings,
                   transformed=transformed, names=names)

    # --------------------------------------------------------------- views

    def done(self, pass_name: str) -> Tuple[CoreBinding, ...]:
        """The leading core bindings as per-binding pass *pass_name*
        leaves them, ready to splice in — provided the core starts with
        the very bindings they were computed from (a compile whose
        options enable a different chain of per-binding passes than the
        snapshot's does not).  Empty when the pass must walk the whole
        program."""
        if self.transformed is None or \
                pass_name not in self.transformed.after:
            return ()
        before = self.transformed.before[pass_name]
        bindings = self.core.bindings
        if len(bindings) < len(before) or any(
                a is not b for a, b in zip(before, bindings)):
            return ()
        return self.transformed.after[pass_name]

    def con_arity(self) -> Dict[str, int]:
        return {name: info.arity
                for name, info in self.static_env.data_cons.items()}
