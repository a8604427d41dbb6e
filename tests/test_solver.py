"""The context-reduction engine (docs/SOLVER.md).

Covers the goal-store loop of :class:`~repro.solver.ReduceSolver` and
its fuel bound, the rejection of any other solver name, the static
confluence/termination checks, multi-parameter classes end-to-end
under the default options, the memoized superclass ancestor sets, the
provenance minimization cap — and pins a corpus: every program's
verdict, value and inference counters as both former engines produced
them.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_e7_flatten import chain_program
from repro import CompilerOptions, compile_source
from repro.cli import main as cli_main
from repro.core.classes import ClassEnv, ClassInfo, InstanceInfo
from repro.core.kinds import STAR
from repro.core.types import T_INT, TyVar, list_type
from repro.core.unify import Unifier
from repro.errors import (
    ReproError,
    ResourceLimitError,
    SolverNonterminatingError,
    SolverOverlapError,
    TypeCheckError,
)
from repro.pipeline.context import PhaseTrace
from repro.solver import ReduceSolver

DEFAULT = CompilerOptions()

CONVERT = """\
class Convert a b where
  convert :: a -> b

instance Convert Int Float where
  convert x = fromIntegral x

instance Convert Float Int where
  convert x = truncate x

main :: Float
main = convert (3 :: Int) + convert (2 :: Int)
"""


def code_of(source: str, options: CompilerOptions) -> str:
    with pytest.raises(ReproError) as err:
        compile_source(source, options)
    return type(err.value).code


# ---------------------------------------------------------------------------
# The goal-store loop
# ---------------------------------------------------------------------------


def tiny_env() -> ClassEnv:
    env = ClassEnv()
    env.add_class(ClassInfo("C", []))
    env.add_instance(InstanceInfo("C", [("Int", ())], []))
    env.add_instance(InstanceInfo("C", [("[]", (0,))], [STAR],
                                  [("C", (0,))]))
    return env


class TestChrEngine:
    """The CHR reading of context reduction: instances are
    simplification rules fired off one goal store."""

    def test_simplification_discharges_nested_goal(self):
        unifier = Unifier(tiny_env())
        # C [[Int]] <=>* True: three simplifications, no residue.
        unifier.solver.solve(unifier, ["C"], list_type(list_type(T_INT)),
                             None)
        assert unifier.context_reduction_count == 3
        assert unifier.constraint_propagations == 0

    def test_variable_goal_lands_in_context(self):
        unifier = Unifier(tiny_env())
        var = TyVar(1)
        unifier.solver.solve(unifier, ["C"], var, None)
        assert "C" in var.context
        assert unifier.constraint_propagations == 1

    def test_missing_instance_is_located_error(self):
        unifier = Unifier(tiny_env())
        from repro.core.types import T_BOOL
        with pytest.raises(TypeCheckError):
            unifier.solver.solve(unifier, ["C"], T_BOOL, None)

    def test_fuel_exhaustion(self):
        # C [[Int]] needs three goals; two units of fuel are not
        # enough, and the failure is a located resource-limit error
        # like every other budget.
        solver = ReduceSolver(fuel=2)
        unifier = Unifier(tiny_env())
        with pytest.raises(ResourceLimitError) as err:
            solver.solve(unifier, ["C"], list_type(list_type(T_INT)), None)
        assert err.value.limit == "solver_fuel"

    def test_reduce_reports_no_solver_counters(self):
        program = compile_source("main = show (1 + 2)", DEFAULT)
        counters = program.compile_stats.phases.counters("infer")
        assert not [name for name in counters if name.startswith("solver.")]


class TestOneEngine:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="'reduce'"):
            compile_source("main = 1", CompilerOptions(solver="smt"))

    def test_cli_has_no_solver_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", "prog.mhs", "--solver", "reduce"])
        assert exit_.value.code == 2
        assert "--solver" in capsys.readouterr().err

    def test_superclass_depth_adds_no_goal_work(self):
        # A superclass tower is absorbed by constraint compaction over
        # the memoized ancestor sets, never expanded into one goal per
        # superclass edge: the program's own reduction work (the empty
        # program's share subtracted) does not grow with the depth.
        def work(source: str) -> int:
            stats = compile_source(source).compile_stats
            return stats.constraint_propagations + stats.context_reductions

        base = work("")
        shallow = work(chain_program(2, 150)) - base
        deep = work(chain_program(20, 150)) - base
        assert shallow > 0
        assert deep - shallow <= 4


# ---------------------------------------------------------------------------
# Multi-parameter classes end-to-end
# ---------------------------------------------------------------------------


class TestMultiParam:
    def test_convert_runs_by_default(self):
        program = compile_source(CONVERT, DEFAULT)
        assert str(program.schemes["main"]) == "Float"
        assert program.run("main") == 5.0

    def test_mp_instance_with_context(self):
        source = CONVERT + """\

instance (Convert a b) => Convert [a] [b] where
  convert xs = map convert xs

lifted :: [Float]
lifted = convert [1 :: Int, 2, 3]
"""
        program = compile_source(source, DEFAULT)
        assert program.run("lifted") == [1.0, 2.0, 3.0]

    def test_mp_constraint_propagates_through_signature(self):
        source = CONVERT + """\

via :: Convert a b => a -> b
via x = convert x

indirect :: Int
indirect = via (2.5 :: Float)
"""
        program = compile_source(source, DEFAULT)
        assert program.run("indirect") == 2

    def test_bare_variable_head_position_matches_any_type(self):
        source = """\
class Tag a b where
  tag :: a -> b -> Int

instance Tag Int b where
  tag x y = 1

instance Tag Bool Char where
  tag x y = 2

main :: (Int, Int, Int)
main = (tag (1 :: Int) 'c', tag (2 :: Int) True, tag True 'x')
"""
        assert compile_source(source, DEFAULT).run("main") == (1, 1, 2)

    def test_overlap_rejected(self):
        source = CONVERT + """\

instance Convert Int b where
  convert x = convert x
"""
        assert code_of(source, DEFAULT) == "solver.overlap"

    def test_all_variable_head_rejected(self):
        source = """\
class Conv a b where
  conv :: a -> b

instance Conv b a => Conv a b where
  conv x = conv (conv x)

main = 0
"""
        assert code_of(source, DEFAULT) == "solver.nonterminating"

    def test_mp_constraint_in_single_param_context_rejected(self):
        # Section 5 reduces a single-parameter instance's context into
        # type-variable contexts, which hold single-parameter
        # constraints only: the constraint is an error where it is
        # written, not a missing instance at some use.
        source = CONVERT + """\

data P a b = P a b

class Desc a where
  desc :: a -> String

instance Convert a b => Desc (P a b) where
  desc _ = "p"

shown :: String
shown = desc (P (1 :: Int) (2.0 :: Float))
"""
        with pytest.raises(ReproError) as err:
            compile_source(source, DEFAULT)
        assert type(err.value).code == "static"
        assert "Convert a b" in str(err.value)
        assert err.value.pos.line == source.splitlines().index(
            "instance Convert a b => Desc (P a b) where") + 1

    def test_static_check_exceptions_are_static_errors(self):
        from repro.errors import StaticError
        assert issubclass(SolverOverlapError, StaticError)
        assert issubclass(SolverNonterminatingError, StaticError)
        assert SolverOverlapError.code == "solver.overlap"
        assert SolverNonterminatingError.code == "solver.nonterminating"


# ---------------------------------------------------------------------------
# Memoized superclass ancestor sets (deep-chain regression)
# ---------------------------------------------------------------------------


class TestAncestorMemoization:
    DEPTH = 400

    def tower(self) -> ClassEnv:
        env = ClassEnv()
        env.add_class(ClassInfo("C0", []))
        for i in range(1, self.DEPTH):
            env.add_class(ClassInfo(f"C{i}", [f"C{i - 1}"]))
        return env

    def test_deep_chain_is_linear_not_quadratic(self):
        # Pre-memoization this walk re-traversed the whole tower for
        # every implies() query; with the cache each class's ancestor
        # set is computed once.  A 400-class tower with a full
        # implies() cross-check finishes instantly when memoized and
        # took seconds (and counted ~DEPTH^2 traversal steps) before.
        env = self.tower()
        top = f"C{self.DEPTH - 1}"
        supers = env.supers_transitive(top)
        assert len(supers) == self.DEPTH - 1
        assert supers[0] == f"C{self.DEPTH - 2}"
        assert supers[-1] == "C0"
        for i in range(self.DEPTH):
            assert env.implies(top, f"C{i}")
        assert not env.implies("C0", top)
        # One cache entry per class reached, never recomputed.
        assert len(env._supers_cache) <= self.DEPTH

    def test_cache_survives_forking(self):
        # Snapshot forks share nothing mutable with the source env;
        # the cache is rebuilt lazily in the fork, not aliased.
        env = self.tower()
        top = f"C{self.DEPTH - 1}"
        env.supers_transitive(top)
        from repro.service.snapshot import _fork_class_env
        fork = _fork_class_env(env)
        assert fork._supers_cache == {}
        assert fork.supers_transitive(top) == env.supers_transitive(top)

    def test_diamond_dedupes(self):
        env = ClassEnv()
        env.add_class(ClassInfo("A", []))
        env.add_class(ClassInfo("B", ["A"]))
        env.add_class(ClassInfo("C", ["A"]))
        env.add_class(ClassInfo("D", ["B", "C"]))
        assert env.supers_transitive("D") == ["B", "C", "A"]


# ---------------------------------------------------------------------------
# Provenance minimization cap (repro.core.unify.DEFAULT_MINIMIZE_CAP)
# ---------------------------------------------------------------------------


class TestMinimizeCap:
    def test_capped_minimization_counts(self):
        unifier = Unifier(ClassEnv(), provenance=True, minimize_cap=1)
        from repro.core.types import T_BOOL
        with pytest.raises(TypeCheckError):
            with unifier.episode():
                unifier.unify(T_INT, T_INT)
                unifier.unify(T_BOOL, T_BOOL)
                unifier.unify(T_INT, T_BOOL)
        assert unifier.minimize_capped_count == 1

    def test_default_cap_minimizes_small_sets(self):
        unifier = Unifier(ClassEnv(), provenance=True)
        from repro.core.types import T_BOOL
        with pytest.raises(TypeCheckError):
            with unifier.episode():
                unifier.unify(T_INT, T_INT)
                unifier.unify(T_INT, T_BOOL)
        assert unifier.minimize_capped_count == 0

    def test_counter_surfaces_in_phase_trace(self):
        unifier = Unifier(ClassEnv(), provenance=True, minimize_cap=0)
        unifier.minimize_capped_count = 3
        trace = PhaseTrace()
        trace.finish(unifier)
        assert trace.counters("infer")["provenance.minimize-capped"] == 3


# ---------------------------------------------------------------------------
# The differential guarantee, pinned
# ---------------------------------------------------------------------------

#: Programs the two former engines (the recursive reduction and the CHR
#: goal store) agreed on — verdict, error code, inferred schemes and
#: the value of ``main`` — drawn from the shapes the fuzz generator
#: produces.  The one engine must keep what they agreed on.
SOLVER_DIFF_CORPUS = [
    ("arith", "main = show (1 + 2 * 3)"),
    ("superclass-tower", """\
class C0 a where
  m0 :: a -> Int
class C0 a => C1 a where
  m1 :: a -> Int
class C1 a => C2 a where
  m2 :: a -> Int
data T = T Int
instance C0 T where
  m0 (T n) = n
instance C1 T where
  m1 (T n) = n + 1
instance C2 T where
  m2 (T n) = n + 2
poly :: C2 a => a -> Int
poly x = m0 x + m1 x + m2 x
main = poly (T 10)
"""),
    ("missing-instance", """\
class Sized a where
  size :: a -> Int
data P = P Int
main = size True
"""),
    ("missing-superclass-instance", """\
class C0 a where
  m0 :: a -> Int
class C0 a => C1 a where
  m1 :: a -> Int
data T = T Int
instance C1 T where
  m1 (T n) = n
main = m1 (T 1)
"""),
    ("deferred-then-defaulted", "main = show (sum [1, 2, 3])"),
    ("instance-context", """\
data Box a = Box a
instance Eq a => Eq (Box a) where
  Box x == Box y = x == y
main = Box [1, 2] == Box [1, 2]
"""),
    ("ambiguous", "main = show (read \"1\")"),
    ("unify-error", "main = if True then 1 else \"x\""),
    ("mptc", CONVERT),
]


#: Per program: the value of ``main`` (or the error code) and the
#: ``CompileStats`` counters ``(unify_count, context_reductions,
#: constraint_propagations)``, as both former engines produced them.
#: The counters include the prelude's share.
PINNED = {
    "arith": ("7", (11158, 50, 342)),
    "superclass-tower": (33, (11228, 57, 339)),
    "missing-instance": ("type.no-instance", None),
    "missing-superclass-instance": ("type.no-instance", None),
    "deferred-then-defaulted": ("6", (11181, 50, 341)),
    "instance-context": ("parse", None),
    "ambiguous": ("type.ambiguous", None),
    "unify-error": ("type.no-instance", None),
    "mptc": (5.0, (11173, 53, 339)),
}


@pytest.fixture(scope="module")
def corpus():
    """Each corpus program compiled once: the program, or its error."""
    results = {}
    for name, source in SOLVER_DIFF_CORPUS:
        try:
            results[name] = compile_source(source, DEFAULT)
        except ReproError as exc:
            results[name] = exc
    return results


class TestDifferentialCorpus:
    @pytest.mark.parametrize(
        "name,source", SOLVER_DIFF_CORPUS,
        ids=[name for name, _ in SOLVER_DIFF_CORPUS])
    def test_solvers_agree(self, corpus, name, source):
        expected, _ = PINNED[name]
        result = corpus[name]
        if isinstance(result, ReproError):
            assert type(result).code == expected
        else:
            assert result.run("main") == expected

    def test_counters_match_reduce_exactly(self, corpus):
        # Stronger than agreement on results: the goal store fires
        # goals in the recursive reduce path's derivation order, so
        # even the E9 instrumentation counters are the ones it counted.
        for name, (_, counters) in PINNED.items():
            result = corpus[name]
            if counters is None:
                assert isinstance(result, ReproError), name
                continue
            stats = result.compile_stats
            assert (stats.unify_count, stats.context_reductions,
                    stats.constraint_propagations) == counters, name
