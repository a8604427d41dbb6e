"""Pass-manager tests: the refactored pipeline must be observationally
identical to the seed driver — same schemes, same core binding order,
same fingerprints — across entry points and option sets, while adding
per-pass tracing, ``stop_after`` prefixes and observers."""

from __future__ import annotations

import pytest

from repro import NAIVE, OPTIMIZED, CompilerOptions, compile_source
from repro.core.classes import ClassEnv
from repro.core.dictionary import generate_selectors
from repro.core.infer import Inferencer, InferResult, SchemeEntry, TypeEnv
from repro.core.static import StaticEnv, analyze_program
from repro.coreir.translate import translate_bindings
from repro.lang.desugar import desugar_program
from repro.lang.parser import parse_program
from repro.options import options_fingerprint
from repro.pipeline import (
    CompileContext,
    PassManager,
    PhaseTrace,
    UnknownPassError,
    default_pass_manager,
    pass_names,
)
from repro.prelude import PRELUDE_SOURCE, PRIMITIVES, primitive_schemes
from repro.service.snapshot import PreludeSnapshot, prelude_fingerprint

PROGRAMS = [
    "main = 6 * 7",
    """
class Shape a where
  area :: a -> Int

data Circle = Circle Int
data Square = Square Int

instance Shape Circle where
  area (Circle r) = 3 * r * r

instance Shape Square where
  area (Square s) = s * s

total :: Shape a => [a] -> Int
total xs = sum (map area xs)

main = total [Circle 2, Circle 3] + total [Square 3]
""",
    """
data Color = Red | Green | Blue deriving (Eq, Ord, Text)

double :: Num a => a -> a
double x = x + x

main = (member Green [Blue, Red], double 21, show (sort [Blue, Red]))
""",
]

OPTION_SETS = [
    CompilerOptions(),
    NAIVE,
    OPTIMIZED,
    CompilerOptions(dict_layout="flat"),
]


def seed_compile(source, options):
    """The pre-refactor ``compile_source`` body, verbatim: the
    hard-coded parse/desugar/static/infer loop, one-shot translation,
    selector generation and the ``_optimize`` if-chain.  The pipeline
    must reproduce its output exactly."""
    from repro.driver import CompiledProgram

    class_env = ClassEnv(layout=options.dict_layout,
                         single_slot_opt=options.single_slot_opt)
    static_env = StaticEnv(class_env)
    global_env = TypeEnv()
    for name, scheme in primitive_schemes().items():
        global_env.bind(name, SchemeEntry(scheme))
    inferencer = Inferencer(static_env, options, global_env)
    compiled = []
    for text, fname in [(PRELUDE_SOURCE, "<prelude>"), (source, "<input>")]:
        program = parse_program(text, fname)
        program = desugar_program(program, options.overload_literals)
        analyze_program(program, env=static_env)
        inferencer._install_methods()
        result = inferencer.infer_program(program)
        compiled = result.bindings
    con_arity = {name: info.arity
                 for name, info in static_env.data_cons.items()}
    core = translate_bindings(compiled, con_arity)
    core.bindings.extend(generate_selectors(class_env))
    if options.hoist_dictionaries:
        from repro.transform.float_dicts import hoist_dictionaries
        core = hoist_dictionaries(core)
    if options.inner_entry_points:
        from repro.transform.entrypoints import add_inner_entry_points
        core = add_inner_entry_points(core)
    if options.constant_dict_reduction:
        from repro.transform.constdict import reduce_constant_dictionaries
        core = reduce_constant_dictionaries(core)
    if options.specialize:
        from repro.transform.specialize import specialize_program
        core = specialize_program(core)
    final = InferResult(compiled, inferencer.schemes, inferencer.warnings,
                        inferencer.env, inferencer.unifier)
    return CompiledProgram(core, final, static_env, options, inferencer)


class TestSeedEquivalence:
    """compile_source through the pass manager == the seed path."""

    @pytest.mark.parametrize("source", PROGRAMS)
    @pytest.mark.parametrize("options", OPTION_SETS,
                             ids=["default", "naive", "optimized", "flat"])
    def test_corpus_identical(self, source, options):
        old = seed_compile(source, options)
        new = compile_source(source, options)
        assert {n: str(s) for n, s in old.schemes.items()} \
            == {n: str(s) for n, s in new.schemes.items()}
        assert [b.name for b in old.core.bindings] \
            == [b.name for b in new.core.bindings]
        assert [str(w) for w in old.warnings] \
            == [str(w) for w in new.warnings]

    def test_snapshot_path_shares_pipeline(self):
        # Warm and cold paths produce identical programs (the stage
        # logic exists once; only the prefix differs).
        snapshot = PreludeSnapshot.build(CompilerOptions())
        for source in PROGRAMS:
            cold = compile_source(source)
            warm = compile_source(source, snapshot=snapshot)
            assert [b.name for b in cold.core.bindings] \
                == [b.name for b in warm.core.bindings]
            assert {n: str(s) for n, s in cold.schemes.items()} \
                == {n: str(s) for n, s in warm.schemes.items()}

    def test_fingerprints_unchanged_by_refactor(self):
        # Pinned digests: a pure refactor must not move them, or every
        # disk-cached program would silently be invalidated.  If one of
        # these fails, a compilation-relevant input changed — make sure
        # that was intentional before updating the constant.  (Last
        # moved when the ``solver`` option joined CompilerOptions.)
        assert options_fingerprint(CompilerOptions(solver="reduce")) == (
            "58e56a257d99f976c89c0726b318906b2540b1bcfdff61113efdb726851716e9")
        assert prelude_fingerprint(CompilerOptions(solver="reduce")) == (
            "a65f5315ffd06817f7b85bf080ba35687fb2432be5e0f54d3260fec732038d2a")


class TestPassManager:
    def test_registered_sequence(self):
        assert pass_names() == [
            "parse", "desugar", "static", "install-methods", "infer",
            "translate", "selectors", "hoist-dictionaries",
            "inner-entry-points", "constant-dict-reduction", "specialize",
            "specialize-xmodule"]

    def test_trace_records_every_enabled_pass(self):
        program = compile_source("main = 1")
        trace = program.compile_stats.phases
        assert isinstance(trace, PhaseTrace)
        # Default options: constant-dict-reduction and specialize off.
        # The lint verifier (REPRO_LINT=1 runs) adds one extra row.
        assert [n for n in trace.names() if n != "lint"] == [
            "parse", "desugar", "static", "install-methods", "infer",
            "translate", "selectors", "hoist-dictionaries",
            "inner-entry-points"]
        for timing in trace.timings:
            if timing.name == "lint":
                continue
            # Per-unit passes ran twice (prelude + user program).
            expected = 2 if timing.name in (
                "parse", "desugar", "static", "install-methods",
                "infer") else 1
            assert timing.calls == expected, timing.name
            assert timing.seconds >= 0.0
        assert trace.total_seconds() > 0.0
        assert trace.unify_count == program.compile_stats.unify_count

    def test_disabled_passes_not_run(self):
        program = compile_source("main = 1", NAIVE)
        names = program.compile_stats.phases.names()
        assert "hoist-dictionaries" not in names
        assert "specialize" not in names
        program = compile_source("main = 1", OPTIMIZED)
        names = program.compile_stats.phases.names()
        assert "constant-dict-reduction" in names
        assert "specialize" in names

    def test_stop_after_prefix(self):
        ctx = CompileContext.fresh(CompilerOptions(),
                                   [(PRELUDE_SOURCE, "<prelude>")])
        default_pass_manager().run(ctx, stop_after="translate")
        assert ctx.core is not None
        # No selectors, no transforms: the snapshot-prefix contract.
        assert not any(b.name.startswith("sel$")
                       for b in ctx.core.bindings)
        assert [n for n in ctx.trace.names()
                if n != "lint"][-1] == "translate"

    def test_stop_after_unknown_pass_rejected(self):
        ctx = CompileContext.fresh(CompilerOptions(), [("main = 1", "<x>")])
        with pytest.raises(UnknownPassError):
            default_pass_manager().run(ctx, stop_after="no-such-pass")

    def test_duplicate_pass_names_rejected(self):
        from repro.pipeline import Pass
        noop = Pass("twice", lambda ctx: None)
        with pytest.raises(ValueError):
            PassManager([noop, noop])

    def test_observer_sees_passes_in_order(self):
        seen = []
        compile_source("main = 1",
                       observer=lambda name, ctx: seen.append(name))
        assert seen == [
            "parse", "desugar", "static", "install-methods", "infer",
            "translate", "selectors", "hoist-dictionaries",
            "inner-entry-points"]

    def test_observer_core_state(self):
        cores = {}
        compile_source(
            "main = 1",
            observer=lambda name, ctx: cores.setdefault(
                name, None if ctx.core is None
                else len(ctx.core.bindings)))
        assert cores["infer"] is None           # before translation
        assert cores["translate"] > 0
        assert cores["selectors"] >= cores["translate"]

    def test_trace_pretty_and_dict(self):
        program = compile_source("main = 1")
        trace = program.compile_stats.phases
        table = trace.pretty()
        assert "parse" in table and "total" in table
        summary = trace.as_dict()
        assert summary["infer"]["calls"] == 2
        assert summary["infer"]["ms"] >= 0.0

    def test_trace_survives_pickling(self):
        # The compile cache pickles whole programs; the trace rides
        # along.
        import pickle
        program = compile_source("main = 1")
        clone = pickle.loads(pickle.dumps(program))
        assert clone.compile_stats.phases.names() \
            == program.compile_stats.phases.names()


class TestEvaluationThroughPipeline:
    def test_results_match_seed(self):
        options = CompilerOptions()
        for source in PROGRAMS:
            assert seed_compile(source, options).run("main") \
                == compile_source(source, options).run("main")

    def test_primitives_available(self):
        # Sanity: the pipeline context binds primitives exactly once.
        program = compile_source("main = length [1, 2, 3]")
        assert program.run("main") == 3
        assert PRIMITIVES()  # the primitive table is non-empty
