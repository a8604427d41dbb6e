"""Driver / public API tests: options handling, program objects,
compile statistics, incremental evaluation."""

import pytest

from repro import (
    NAIVE,
    OPTIMIZED,
    CompilerOptions,
    compile_and_run,
    compile_source,
)


class TestOptions:
    def test_defaults(self):
        opts = CompilerOptions()
        assert opts.monomorphism_restriction is True
        assert opts.defaulting is True
        assert opts.dict_layout == "nested"
        assert opts.hoist_dictionaries is True
        assert opts.specialize is False

    def test_with_copies(self):
        base = CompilerOptions()
        changed = base.with_(specialize=True)
        assert changed.specialize is True
        assert base.specialize is False  # original untouched

    def test_presets(self):
        assert NAIVE.hoist_dictionaries is False
        assert NAIVE.inner_entry_points is False
        assert OPTIMIZED.specialize is True
        assert OPTIMIZED.constant_dict_reduction is True

    def test_bad_layout_rejected_at_compile(self):
        with pytest.raises(ValueError):
            compile_source("main = 1", CompilerOptions(dict_layout="odd"))


class TestCompiledProgram:
    def test_compile_and_run_helper(self):
        assert compile_and_run("main = 6 * 7") == 42

    def test_run_named_binding(self):
        program = compile_source("a = (1 :: Int)\nb = a + 1")
        assert program.run("b") == 2

    def test_schemes_include_prelude(self):
        program = compile_source("")
        assert "member" in program.schemes
        assert str(program.schemes["map"]) == "(a -> b) -> [a] -> [b]"

    def test_compile_stats_populated(self):
        program = compile_source("f x = x == x")
        stats = program.compile_stats
        assert stats.unify_count > 0
        assert stats.bindings > 100  # prelude + generated code

    def test_without_prelude(self):
        program = compile_source(
            "f :: Int -> Int\nf x = primAddInt x 1\nmain = f 41",
            CompilerOptions(overload_literals=False),
            include_prelude=False)
        assert program.run("main") == 42

    def test_without_prelude_no_classes(self):
        program = compile_source(
            "main = primMulInt 6 7",
            CompilerOptions(overload_literals=False),
            include_prelude=False)
        assert program.run("main") == 42
        assert len(program.core.bindings) < 10

    def test_eval_sequence_is_stateless_enough(self):
        program = compile_source("k = (10 :: Int)")
        assert program.eval("k + 1") == 11
        assert program.eval("k + 2") == 12
        assert program.eval("show k") == "10"

    def test_eval_can_define_nothing(self):
        # Expressions only; definitions still come from compile time.
        program = compile_source("")
        with pytest.raises(Exception):
            program.eval("x = 1")

    def test_last_stats_updated_per_run(self):
        program = compile_source("main = 1 + 1\nbig = sum (enumFromTo 1 50)")
        program.run("main")
        small = program.last_stats.steps
        program.run("big")
        assert program.last_stats.steps > small

    def test_step_limit_option(self):
        from repro import EvalError
        program = compile_source(
            "loop n = loop (n + 1)\nmain = loop (0 :: Int)",
            CompilerOptions(eval_step_limit=5000))
        with pytest.raises(EvalError):
            program.run("main")

    def test_pooled_step_limit_is_per_request(self):
        # A pooled evaluator keeps its counters across requests; the
        # step budget still counts from each request's first step.
        from repro import EvalError
        program = compile_source("", CompilerOptions(eval_step_limit=3000))
        small = program.compile_expr("sum (enumFromTo 1 (10 :: Int))")
        for _ in range(6):
            assert program.eval_compiled(small, reuse=True) == 55
            assert 728 <= program.last_stats.steps <= 737
        big = program.compile_expr("sum (enumFromTo 1 (100 :: Int))")
        with pytest.raises(EvalError,
                           match=r"exceeded the step limit \(3000\)"):
            program.eval_compiled(big, reuse=True)

    def test_unknown_evaluator_keywords_raise(self):
        # The evaluator settings are call_by_need, step_limit and
        # max_depth; any other keyword is an error, never ignored.
        program = compile_source("main = 1",
                                 CompilerOptions(eval_step_limit=5000))
        small = program.compile_expr("sum (enumFromTo 1 (10 :: Int))")
        with pytest.raises(TypeError):
            program.run("main", big_stack=True)
        with pytest.raises(TypeError):
            program.run("main", no_such_override=3)
        with pytest.raises(TypeError):
            program.eval_compiled(small, reuse=True, big_stack=False)
        with pytest.raises(TypeError):
            program.eval("main", big_stack=True)
        with pytest.raises(TypeError):
            program.evaluator(big_stack=True)

    @pytest.mark.parametrize("snapshot", [False, True])
    def test_program_pickles_after_it_has_run(self, snapshot):
        # The compile cache pickles whole programs; staged code and warm
        # evaluators stay behind, and the clone stages its own.
        import pickle
        from repro.service.snapshot import get_default_snapshot
        source = ("data Box = Box Int\nsize (Box n) = n\n"
                  "main = sum (map size [Box 1, Box 2, Box 3])")
        program = compile_source(
            source, snapshot=get_default_snapshot() if snapshot else None)
        compiled = program.compile_expr("size (Box 7) + main")
        assert program.run("main") == 6
        run_stats = program.last_stats.snapshot()
        assert program.eval_compiled(compiled, reuse=True) == 13
        eval_stats = program.last_stats.snapshot()
        clone = pickle.loads(pickle.dumps(program))
        assert clone.run("main") == 6
        assert clone.last_stats.snapshot() == run_stats
        assert clone.eval_compiled(compiled, reuse=True) == 13
        assert clone.last_stats.snapshot() == eval_stats

    def test_warnings_surface(self):
        program = compile_source(
            "f x = x == x && g\ng = null [f]",
            CompilerOptions(monomorphism_restriction=False))
        assert program.warnings


class TestInfo:
    def test_info_on_class(self):
        program = compile_source("")
        text = program.info("Ord")
        assert text.startswith("class Eq a => Ord a where")
        assert "compare ::" in text
        assert "instance Ord Int" in text

    def test_info_on_data_type(self):
        program = compile_source("data S = C Int | R Int Int deriving Eq")
        text = program.info("S")
        assert "C :: Int -> S" in text
        assert "R :: Int -> Int -> S" in text

    def test_info_on_binding_and_unknown(self):
        program = compile_source("")
        assert program.info("member") == "member :: Eq a => a -> [a] -> Bool"
        assert "not defined" in program.info("zorp")

    def test_info_on_user_class_with_superclass(self):
        program = compile_source(
            "class MyEq a where\n"
            "  myeq :: a -> a -> Bool\n"
            "class MyEq a => MyOrd a where\n"
            "  mylt :: a -> a -> Bool\n"
            "data Pt = Pt Int\n"
            "instance MyEq Pt where\n"
            "  myeq (Pt a) (Pt b) = a == b\n")
        text = program.info("MyOrd")
        assert text.startswith("class MyEq a => MyOrd a where")
        assert "mylt ::" in text
        # No instances of MyOrd: the listing stops at the methods.
        assert "instance" not in text
        eq_text = program.info("MyEq")
        assert eq_text.startswith("class MyEq a where")
        assert "instance MyEq Pt" in eq_text

    def test_info_on_class_with_two_superclasses(self):
        program = compile_source(
            "class A a where\n"
            "  fa :: a -> Int\n"
            "class B a where\n"
            "  fb :: a -> Int\n"
            "class (A a, B a) => C a where\n"
            "  fc :: a -> Int\n")
        header = program.info("C").splitlines()[0]
        assert header.startswith("class ")
        assert "A a" in header and "B a" in header
        assert "=> C a where" in header

    def test_info_instance_context_printed(self):
        # Prelude: instance Eq a => Eq [a] and the pair instance with
        # a two-constraint context; both contexts must print.
        program = compile_source("")
        lines = program.info("Eq").splitlines()
        assert "instance Eq a0 => Eq []" in lines
        assert "instance (Eq a0, Eq a1) => Eq (,)" in lines

    def test_info_on_user_data_type_reports_parameters(self):
        program = compile_source("data Wrap a = Wrap a")
        text = program.info("Wrap")
        assert "1 parameter" in text
        assert "Wrap :: a -> Wrap a" in text

    def test_info_on_plain_user_binding(self):
        program = compile_source("plain :: Int\nplain = 42")
        assert program.info("plain") == "plain :: Int"

    def test_info_on_multi_parameter_class(self):
        program = compile_source(
            "class Convert a b where\n"
            "  convert :: a -> b\n"
            "instance Convert Int Float where\n"
            "  convert x = fromIntegral x\n"
            "instance (Convert a b) => Convert [a] [b] where\n"
            "  convert xs = map convert xs\n")
        assert program.info("Convert").splitlines() == [
            "class Convert a b where",
            "  convert :: Convert a b => a -> b",
            "instance Convert Int Float",
            "instance Convert a0 a1 => Convert ([] a0) ([] a1)",
        ]


class TestInterface:
    def test_interface_lists_user_bindings(self):
        program = compile_source(
            "f :: (Text b, Eq a) => a -> b -> [Char]\n"
            "f x y = if x == x then show y else []")
        text = program.interface()
        assert "f :: (Text b, Eq a) => a -> b -> [Char]" in text

    def test_interface_hides_generated_names(self):
        program = compile_source("g x = x")
        text = program.interface()
        assert "impl$" not in text and "@" not in text

    def test_interface_context_order_is_dictionary_order(self):
        # The declared order (Text before Eq) survives into the
        # interface, which is what separate compilation relies on.
        program = compile_source(
            "f :: (Text b, Eq a) => a -> b -> [Char]\n"
            "f x y = if x == x then show y else []")
        line = [l for l in program.interface().splitlines()
                if l.startswith("f ::")][0]
        assert line.index("Text") < line.index("Eq")

    def test_interface_is_sorted_and_one_line_per_binding(self):
        program = compile_source("zeta = (1 :: Int)\nalpha = (2 :: Int)")
        lines = program.interface().splitlines()
        assert lines == sorted(lines)
        assert "alpha :: Int" in lines
        assert "zeta :: Int" in lines
        assert all(" :: " in line for line in lines)

    def test_interface_lists_only_value_bindings(self):
        # Class methods and data constructors are reachable via
        # ``info``; the interface file proper is one line per
        # top-level value binding (the §8.6 signature listing).
        program = compile_source(
            "class MyEq a where\n"
            "  myeq :: a -> a -> Bool\n"
            "data Pt = Pt Int\n"
            "instance MyEq Pt where\n"
            "  myeq (Pt a) (Pt b) = a == b\n"
            "use :: Pt -> Bool\n"
            "use p = myeq p p\n")
        lines = program.interface().splitlines()
        assert "use :: Pt -> Bool" in lines
        assert not any(line.startswith("myeq ::") for line in lines)
        assert program.info("Pt").splitlines()[1] == "  Pt :: Int -> Pt"


class TestTupleInstances:
    def test_triple_ordering(self, evaluate):
        assert evaluate("compare (1, 'a', True) (1, 'a', False)") == ("GT",)
        assert evaluate("sort [(1, 'b', 2), (1, 'a', 9)]") \
            == [(1, "a", 9), (1, "b", 2)]

    def test_quadruple_equality(self, evaluate):
        assert evaluate("(1, 'a', True, [2]) == (1, 'a', True, [2])") is True
        assert evaluate("(1, 'a', True, [2]) == (1, 'a', True, [3])") is False

    def test_unlines(self, evaluate):
        assert evaluate('unlines ["a", "b"]') == "a\nb\n"
