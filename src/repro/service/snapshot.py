"""Prelude snapshots: compile the prelude once, reuse it forever.

Every cold :func:`repro.driver.compile_source` call re-lexes, re-parses
and re-infers the whole prelude before it reaches the user program.  A
:class:`PreludeSnapshot` performs that work exactly once and freezes
the result:

* the static environment (data types, constructors, kinds, the class
  environment with every prelude class and instance);
* the inferencer state after ``infer_program(<prelude>)`` — the global
  :class:`~repro.core.infer.TypeEnv`, the scheme table, the compiled
  (dictionary-converted) prelude bindings;
* the translated (but *unoptimised*, selector-free) prelude core;
* built on first use (:meth:`PreludeSnapshot.transformed`), the
  prelude core after each per-binding pass (dictionary hoisting, inner
  entry points) and the hoister's ``hd$`` count after it, with a table
  for the evaluator's staged code of those bodies, which every fork
  shares and fills on first use.

A snapshot is immutable.  :meth:`PreludeSnapshot.fork` produces a
cheap, independent copy of the *mutable containers* (dictionaries and
lists) while sharing the immutable compiled structures — schemes,
kernel ASTs and core bindings are never mutated after the prelude has
been compiled, so sharing them is sound.  Forking costs microseconds
where re-compiling the prelude costs hundreds of milliseconds.

:func:`compile_with_snapshot` then runs the ordinary pipeline on the
user program only, stacked on a fork.  Both the prelude build and the
per-fork user compile are :class:`~repro.pipeline.PassManager` runs —
the same registered sequence the cold driver executes, with the
prelude prefix skipped: the build stops after ``translate``, the fork
carries the frozen prelude core as the translate pass's prefix, and the
per-binding passes splice in the transformed prelude and walk only the
bindings after it.  Selectors are regenerated for *all* classes after
the user program (exactly where the one-shot path emits them), and the
whole-program passes (constant-dictionary reduction, specialisation)
run over the full concatenated core.

What a warm compile shares with a cold one: binding order, schemes,
warnings, :class:`~repro.driver.CompileStats` counters, values, and the
prelude's and the selectors' core after every pass.  User bindings are
identical up to the numbers of translator-local binders, which each
unit numbers afresh (``m$1`` warm where cold says ``m$202``).
Determinism of the result is what makes the compile cache sound — the
paper's §8.6 interface ordering fixes dictionary parameter order, and
instance resolution is coherent (Bottu et al.), so equal inputs give
equal elaborations.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Dict, Optional, Tuple

from repro.core.classes import ClassEnv
from repro.core.infer import Inferencer
from repro.core.kinds import KindEnv
from repro.core.static import StaticEnv
from repro.coreir.eval import CodeTable
from repro.coreir.syntax import CoreBinding
from repro.options import CompilerOptions, options_fingerprint
from repro.pipeline import (
    TRANSLATE,
    CompileContext,
    TransformedPrefix,
    default_pass_manager,
)
from repro.prelude import PRELUDE_SOURCE


def prelude_fingerprint(options: Optional[CompilerOptions] = None,
                        prelude_source: str = PRELUDE_SOURCE) -> str:
    """Digest identifying one prelude compilation: the prelude text plus
    every compilation-relevant option.  A component of every compile
    cache key — editing the prelude or flipping a compiler flag yields a
    new fingerprint and therefore a cache miss."""
    options = options if options is not None else CompilerOptions()
    h = hashlib.sha256()
    h.update(prelude_source.encode("utf-8"))
    h.update(b"\x00")
    h.update(options_fingerprint(options).encode("ascii"))
    return h.hexdigest()


def _fork_class_env(src: ClassEnv) -> ClassEnv:
    out = ClassEnv(layout=src.layout, single_slot_opt=src.single_slot_opt)
    out.classes = dict(src.classes)
    out.instances = dict(src.instances)
    out.method_owner = dict(src.method_owner)
    out.default_types = list(src.default_types)
    return out


def _fork_static_env(src: StaticEnv, class_env: ClassEnv) -> StaticEnv:
    # Bypass __init__ (it would rebuild the builtins we are about to
    # copy anyway); copy every mutable container one level deep.  The
    # *values* (DataConInfo, ClassInfo, schemes, declaration ASTs) are
    # not mutated after their defining program has been compiled.
    out = StaticEnv.__new__(StaticEnv)
    out.kind_env = KindEnv()
    out.kind_env.kinds = dict(src.kind_env.kinds)
    out.class_env = class_env
    out.data_types = dict(src.data_types)
    out.data_cons = dict(src.data_cons)
    out._tycons = dict(src._tycons)
    out.instance_bodies = list(src.instance_bodies)
    out.class_bodies = dict(src.class_bodies)
    out.synonyms = dict(src.synonyms)
    return out


class PreludeSnapshot:
    """The prelude, compiled once, frozen, and cheap to build upon."""

    def __init__(self, options: CompilerOptions, static_env: StaticEnv,
                 inferencer: Inferencer,
                 core_bindings: Tuple[CoreBinding, ...],
                 fingerprint: str) -> None:
        self.options = options
        self._static_env = static_env
        self._inferencer = inferencer
        #: translated prelude core: unoptimised and selector-free, so a
        #: forked compile can reproduce the one-shot pipeline exactly
        self.core_bindings = core_bindings
        #: number of compiled prelude bindings (the fork's outputs
        #: beyond this index belong to the user program)
        self.n_bindings = len(inferencer.output)
        self.fingerprint = fingerprint
        self.options_fp = options_fingerprint(options)
        self.class_names = frozenset(static_env.class_env.classes)
        u = inferencer.unifier
        self._unifier_counts = (u.unify_count, u.context_reduction_count,
                                u.constraint_propagations)
        self._transformed: Optional[TransformedPrefix] = None
        self._transform_lock = threading.Lock()

    # ----------------------------------------------------------- building

    @classmethod
    def build(cls, options: Optional[CompilerOptions] = None,
              prelude_source: str = PRELUDE_SOURCE) -> "PreludeSnapshot":
        """Compile *prelude_source* through the shared pipeline's
        front-end prefix (parse .. infer .. translate) and freeze the
        result.  Selectors and the core transforms run per compile over
        the full program; the prelude's share of the per-binding ones
        is computed on first use by :meth:`transformed`."""
        options = options if options is not None else CompilerOptions()
        ctx = CompileContext.fresh(options, [(prelude_source, "<prelude>")])
        default_pass_manager().run(ctx, stop_after=TRANSLATE)
        return cls(options, ctx.static_env, ctx.inferencer,
                   tuple(ctx.core.bindings),
                   prelude_fingerprint(options, prelude_source))

    def transformed(self) -> TransformedPrefix:
        """The prelude core after each enabled per-binding pass, plus
        the transforms' name counters after it — built on first use.

        Only compiles that run the core transforms need it (module
        compiles and checks stop at ``translate``), so building it
        lazily keeps it out of every process that never optimises.
        The lock makes concurrent first uses build it once.
        """
        with self._transform_lock:
            if self._transformed is None:
                self._transformed = self._transform_prelude()
            return self._transformed

    def _transform_prelude(self) -> TransformedPrefix:
        # A compile of no user program: the registry's passes run over
        # the prelude and its selectors, up to the last per-binding
        # pass, and the observer keeps the prelude's share of the core
        # before and after each per-binding one.
        static_env, inferencer = self.fork()
        ctx = CompileContext.forked(self.options, [], static_env, inferencer,
                                    prefix_core=self.core_bindings,
                                    n_prefix_bindings=self.n_bindings)
        manager = default_pass_manager()
        per_binding = [p.name for p in manager.passes if p.per_binding]
        n = len(self.core_bindings)
        before: Dict[str, Tuple[CoreBinding, ...]] = {}
        after: Dict[str, Tuple[CoreBinding, ...]] = {}
        previous = self.core_bindings

        def keep(pass_name: str, ctx: CompileContext) -> None:
            nonlocal previous
            current = tuple(ctx.core.bindings[:n])
            if pass_name in per_binding:
                before[pass_name], after[pass_name] = previous, current
            previous = current

        manager.run(ctx, stop_after=per_binding[-1], observer=keep)
        # Whole-program passes leave most prelude bindings as they are,
        # so every fork's core holds these bodies themselves: their
        # staged code is kept here, once.
        return TransformedPrefix(
            before, after, ctx.names.counters(),
            CodeTable(bodies=tuple(b.expr for b in previous)))

    # ------------------------------------------------------------ forking

    def fork(self) -> Tuple[StaticEnv, Inferencer]:
        """An independent compilation state seeded with the prelude.

        The returned environments may be mutated freely (user data
        types, classes, instances, bindings); the snapshot itself is
        never affected, so forks are isolated from each other.
        """
        class_env = _fork_class_env(self._static_env.class_env)
        static_env = _fork_static_env(self._static_env, class_env)
        # A child TypeEnv layer receives every global binding the user
        # program makes; the prelude's own layer below it stays frozen.
        inferencer = Inferencer(static_env, self.options,
                                global_env=self._inferencer.env.child())
        inferencer.names._counters = dict(self._inferencer.names._counters)
        inferencer.warnings = list(self._inferencer.warnings)
        inferencer.output = list(self._inferencer.output)
        inferencer.schemes = dict(self._inferencer.schemes)
        inferencer._compiled_instances = set(
            self._inferencer._compiled_instances)
        inferencer._compiled_defaults = set(
            self._inferencer._compiled_defaults)
        # Carry the prelude's unifier counters so CompileStats reports
        # the same totals as a cold compile.
        (inferencer.unifier.unify_count,
         inferencer.unifier.context_reduction_count,
         inferencer.unifier.constraint_propagations) = self._unifier_counts
        return static_env, inferencer


def compile_with_snapshot(source: str, snapshot: PreludeSnapshot,
                          options: Optional[CompilerOptions] = None,
                          filename: str = "<input>",
                          observer: Optional[
                              Callable[[str, CompileContext], None]] = None):
    """Compile *source* on top of *snapshot* — the fast path behind
    ``compile_source(..., snapshot=...)``.

    Runs the same pass sequence as a cold compile, with the prelude
    prefix skipped: the forked environments stand in for the prelude's
    front-end passes, the frozen prelude core rides in as the translate
    pass's prefix, and the per-binding passes splice in the snapshot's
    transformed prelude.  Selectors and the whole-program transforms
    see the full concatenated program.  Produces a
    :class:`repro.driver.CompiledProgram` with the same schemes,
    warnings, binding order, stats counters and prelude core as a cold
    ``compile_source(source, options)``; its user bindings differ only
    in the numbers of translator-local binders.
    """
    from repro.driver import program_from_context

    if options is None:
        options = snapshot.options
    elif options_fingerprint(options) != snapshot.options_fp:
        raise ValueError(
            "snapshot was built with different compiler options; build a "
            "snapshot for these options (PreludeSnapshot.build(options))")
    static_env, inferencer = snapshot.fork()
    ctx = CompileContext.forked(options, [(source, filename)],
                                static_env, inferencer,
                                prefix_core=snapshot.core_bindings,
                                n_prefix_bindings=snapshot.n_bindings,
                                transformed=snapshot.transformed())
    default_pass_manager().run(ctx, observer=observer)
    return program_from_context(ctx)


# ---------------------------------------------------------------------------
# Process-wide default snapshots (one per option fingerprint)
# ---------------------------------------------------------------------------

_default_snapshots: Dict[str, PreludeSnapshot] = {}
_default_lock = threading.Lock()


def get_default_snapshot(options: Optional[CompilerOptions] = None
                         ) -> PreludeSnapshot:
    """The shared snapshot for *options*, built on first use.

    Snapshots are keyed by :func:`prelude_fingerprint`, so every option
    set that changes compilation output gets its own; service-only
    options (cache sizing, server transport) share one.
    """
    options = options if options is not None else CompilerOptions()
    key = prelude_fingerprint(options)
    with _default_lock:
        snap = _default_snapshots.get(key)
    if snap is None:
        # Built outside the lock: compilation is slow and reentrant
        # (other threads may want other option sets meanwhile).
        snap = PreludeSnapshot.build(options)
        with _default_lock:
            snap = _default_snapshots.setdefault(key, snap)
    return snap


def clear_default_snapshots() -> None:
    """Drop all process-wide snapshots (tests)."""
    with _default_lock:
        _default_snapshots.clear()
