"""The registered pass sequence — the pipeline's single source of truth.

The order is the paper's: §4 static analysis, §5/§6 inference with
dictionary conversion, translation to core, selector generation (§4),
then the core-to-core transforms (§8.8, §6.3/§7, §8.4, §9).  The seed
driver hard-coded this sequence twice (``compile_source`` and
``compile_with_snapshot``) and ran the transforms through an opaque
if-chain; here every stage is a :class:`~repro.pipeline.manager.Pass`
in one registry, shared by the driver, the prelude snapshot builder
and the compile server, and individually timed.

The transform passes carry ``enabled`` predicates over
:class:`~repro.options.CompilerOptions`, replacing the old
``_optimize`` conditionals; their imports stay local so disabled
transforms cost nothing at import time (matching the seed behaviour).
"""

from __future__ import annotations

from repro.core.dictionary import generate_selectors
from repro.core.static import analyze_program
from repro.errors import UnknownModuleError
from repro.coreir.syntax import CoreProgram
from repro.coreir.translate import translate_bindings
from repro.lang.desugar import desugar_program
from repro.lang.parser import parse_program
from repro.pipeline.context import CompileContext, SourceUnit
from repro.pipeline.manager import Pass, PassManager

# --------------------------------------------------------------------------
# Front end (per source unit; the prelude is just unit 0)
# --------------------------------------------------------------------------


def _parse(ctx: CompileContext, unit: SourceUnit) -> None:
    unit.program = parse_program(
        unit.text, unit.filename,
        max_depth=ctx.options.max_parse_depth,
        fixities=ctx.fixities)
    if unit.program.imports and not ctx.imports_resolved:
        imp = unit.program.imports[0]
        raise UnknownModuleError(
            f"cannot resolve import of module '{imp.module}' in "
            f"single-file compilation; use 'repro build' for "
            f"multi-module programs", imp.pos)


def _desugar(ctx: CompileContext, unit: SourceUnit) -> None:
    unit.program = desugar_program(unit.program,
                                   ctx.options.overload_literals)


def _static(ctx: CompileContext, unit: SourceUnit) -> None:
    analyze_program(unit.program, env=ctx.static_env)


def _install_methods(ctx: CompileContext, unit: SourceUnit) -> None:
    # Classes declared by this unit brought new methods into scope;
    # bind them before inference sees any use site.
    ctx.inferencer.install_methods()


def _infer(ctx: CompileContext, unit: SourceUnit) -> None:
    result = ctx.inferencer.infer_program(unit.program)
    ctx.result = result
    ctx.compiled = result.bindings  # the inferencer accumulates across units


# --------------------------------------------------------------------------
# Middle end (whole program)
# --------------------------------------------------------------------------


def _translate(ctx: CompileContext) -> None:
    fresh = ctx.compiled[ctx.n_prefix_bindings:]
    core = translate_bindings(fresh, ctx.con_arity(),
                              data_cons=ctx.static_env.data_cons)
    if ctx.prefix_core:
        core = CoreProgram(list(ctx.prefix_core) + core.bindings)
    ctx.core = core


def _selectors(ctx: CompileContext) -> None:
    ctx.core.bindings.extend(
        generate_selectors(ctx.static_env.class_env))


# --------------------------------------------------------------------------
# Core transforms (§8/§9), gated on options
# --------------------------------------------------------------------------


def _hoist_dictionaries(ctx: CompileContext) -> None:
    from repro.transform.float_dicts import hoist_dictionaries
    ctx.core = hoist_dictionaries(ctx.core, ctx.done("hoist-dictionaries"),
                                  ctx.names)


def _inner_entry_points(ctx: CompileContext) -> None:
    from repro.transform.entrypoints import add_inner_entry_points
    ctx.core = add_inner_entry_points(ctx.core,
                                      ctx.done("inner-entry-points"))


def _constant_dict_reduction(ctx: CompileContext) -> None:
    from repro.transform.constdict import reduce_constant_dictionaries
    ctx.core = reduce_constant_dictionaries(ctx.core)


def _note_specialization(ctx: CompileContext, pass_name: str,
                         report) -> None:
    """Fold a :class:`~repro.transform.specialize.SpecializeReport`
    into the phase trace (clone counters land in
    ``compile_stats.phases`` and the server stats) and the warning
    list when the clone budget ran dry."""
    if report.clones_created:
        ctx.trace.add_counter(pass_name, "clones", report.clones_created)
    if report.from_unfoldings:
        ctx.trace.add_counter(pass_name, "from_unfoldings",
                              report.from_unfoldings)
    if report.budget_exhausted:
        ctx.trace.add_counter(pass_name, "budget_exhausted", 1)
        from repro.errors import SpecializeBudgetWarning
        ctx.inferencer.warnings.append(SpecializeBudgetWarning(
            pass_name, ctx.options.specialize_budget))


def _specialize(ctx: CompileContext) -> None:
    from repro.transform.specialize import Specializer
    spec = Specializer(ctx.core, budget=ctx.options.specialize_budget)
    ctx.core = spec.run()
    _note_specialization(ctx, "specialize", spec.report)


def _specialize_xmodule(ctx: CompileContext) -> None:
    from repro.specialize.xlink import xmodule_specialize
    ctx.core, report = xmodule_specialize(
        ctx.core, ctx.module_origins, ctx.unfoldings,
        budget=ctx.options.specialize_budget)
    _note_specialization(ctx, "specialize-xmodule", report)


# --------------------------------------------------------------------------
# The registry
# --------------------------------------------------------------------------

#: Name of the last front-end pass; ``run(ctx, stop_after=TRANSLATE)``
#: is the prelude-snapshot prefix (unoptimised, selector-free core).
TRANSLATE = "translate"

DEFAULT_PASSES = (
    Pass("parse", _parse, per_unit=True,
         doc="lex + parse (repro.lang.parser)"),
    Pass("desugar", _desugar, per_unit=True,
         doc="surface syntax to kernel (repro.lang.desugar)"),
    Pass("static", _static, per_unit=True,
         doc="§4 static analysis: data/class/instance collection"),
    Pass("install-methods", _install_methods, per_unit=True,
         doc="bind newly declared class methods into the type env"),
    Pass("infer", _infer, per_unit=True,
         doc="§5/§6 inference + dictionary conversion"),
    Pass(TRANSLATE, _translate,
         doc="kernel to core IR (match compilation)"),
    Pass("selectors", _selectors,
         doc="§4 dictionary selector generation"),
    Pass("hoist-dictionaries", _hoist_dictionaries, per_binding=True,
         enabled=lambda o: o.hoist_dictionaries,
         doc="§8.8 float dictionary construction out of lambdas"),
    Pass("inner-entry-points", _inner_entry_points, per_binding=True,
         enabled=lambda o: o.inner_entry_points,
         doc="§6.3/§7 skip re-passing dictionaries to recursive calls"),
    Pass("constant-dict-reduction", _constant_dict_reduction,
         enabled=lambda o: o.constant_dict_reduction,
         doc="§8.4 collapse single-overloading local functions"),
    Pass("specialize", _specialize,
         enabled=lambda o: o.specialize,
         doc="§9 type-specific clones at constant dictionaries"),
    Pass("specialize-xmodule", _specialize_xmodule,
         enabled=lambda o: o.specialize_xmodule,
         # Armed only by link_modules (it alone knows binding origins);
         # single-file and per-module compiles skip it entirely.
         applies=lambda ctx: ctx.module_origins is not None,
         doc="§9 at link time: clone overloaded calls crossing module "
             "boundaries from interface unfoldings"),
)


def _lint_verifier(pass_name: str, ctx: CompileContext) -> bool:
    """Pass-manager verifier: with ``options.lint``, lint the core
    program after every pass that has one (i.e. translate onward —
    the front-end passes have nothing to check yet).  Returns True
    when a lint actually ran, so the manager can time it."""
    if not ctx.options.lint or ctx.core is None:
        return False
    from repro.coreir.lint import lint_program
    # Right after translation the selector bindings do not exist yet,
    # but placeholder resolution already references them — they are
    # in-scope-by-promise until the selectors pass delivers them.
    # Module compiles reference names supplied by imported interfaces
    # (values plus generated dictionary/impl/default bindings) that are
    # not bindings of this unit's core.
    extra = list(ctx.extern_names)
    if pass_name == TRANSLATE:
        extra.extend(b.name for b in
                     generate_selectors(ctx.static_env.class_env))
    lint_program(ctx.core, extra_globals=extra,
                 con_arity=ctx.con_arity(),
                 class_env=ctx.static_env.class_env,
                 pass_name=pass_name,
                 cache=ctx.lint_cache)
    return True


def default_pass_manager() -> PassManager:
    """The shared pipeline: driver, snapshot builder and server all run
    through this exact sequence — and, when ``options.lint`` is set,
    the core lint checks the output of every pass from translation on."""
    return PassManager(DEFAULT_PASSES, verifier=_lint_verifier)


def pass_names() -> list:
    """Registered pass names, in execution order (CLI validation)."""
    return [p.name for p in DEFAULT_PASSES]
