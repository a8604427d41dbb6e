"""Transformation tests: each optimisation must preserve semantics and
improve the operation counts it targets."""

import pytest

from repro import CompilerOptions, NAIVE, compile_source
from repro.coreir.pretty import pp_binding


#: A workload whose naive translation reconstructs a dictionary on
#: every recursive step (the shape of section 8.8's eqList/doList).
REPEATED_CONSTRUCTION = """
rep :: Eq a => Int -> a -> Bool
rep n x = if n == 0 then True else member [x] [[x]] && rep (n - 1) x
main = rep 50 'q'
"""


#: A local function named like an overloaded prelude function.
SHADOWING_LOCAL = """
f :: Int -> [Int]
f n = let insert x ys = if x <= x then x : ys else ys in insert n [1]
main = f 5
"""


def run_with(source, **options):
    program = compile_source(source, CompilerOptions(**options))
    result = program.run("main")
    return result, program


class TestHoisting:
    """Section 8.8."""

    def test_semantics_preserved(self):
        naive, _ = run_with(REPEATED_CONSTRUCTION,
                            hoist_dictionaries=False,
                            inner_entry_points=False)
        opt, _ = run_with(REPEATED_CONSTRUCTION,
                          hoist_dictionaries=True,
                          inner_entry_points=True)
        assert naive == opt is True

    def test_naive_constructs_per_iteration(self):
        _, program = run_with(REPEATED_CONSTRUCTION,
                              hoist_dictionaries=False,
                              inner_entry_points=False)
        assert program.last_stats.dict_constructions >= 50

    def test_improved_translation_constructs_once(self):
        """The paper's improved translation: hoist + inner entry."""
        _, program = run_with(REPEATED_CONSTRUCTION,
                              hoist_dictionaries=True,
                              inner_entry_points=True)
        assert program.last_stats.dict_constructions <= 3

    def test_hoisted_binding_shape(self):
        program = compile_source(
            REPEATED_CONSTRUCTION,
            CompilerOptions(hoist_dictionaries=True,
                            inner_entry_points=False))
        text = pp_binding(program.core.binding("rep"))
        # a let-bound hoisted dictionary between the dict lambda and
        # the value lambda
        assert "hd$" in text

    def test_hoist_respects_case_binders(self):
        # A dictionary built from a case-bound variable must not float
        # past the case.
        src = ("f :: Eq a => Maybe a -> Bool\n"
               "f m = case m of\n"
               "        Just x  -> member [x] [[x]]\n"
               "        Nothing -> False\n"
               "main = (f (Just 'a'), f (Nothing :: Maybe Char))")
        result, _ = run_with(src, hoist_dictionaries=True)
        assert result == (True, False)

    def test_constant_dictionaries_not_rebuilt_per_call(self):
        # At a concrete type the dictionary is a CAF: construction count
        # stays flat in call count.
        src = ("go :: Int -> Bool\n"
               "go n = if n == 0 then True else member [n] [[n]] && go (n - 1)\n"
               "main = go 40\n")
        _, program = run_with(src, hoist_dictionaries=True)
        assert program.last_stats.dict_constructions <= 2


class TestInnerEntryPoints:
    """Sections 6.3 / 7."""

    def test_entry_point_shape(self):
        program = compile_source(
            "mem x [] = False\nmem x (y:ys) = x == y || mem x ys",
            CompilerOptions(inner_entry_points=True,
                            hoist_dictionaries=False))
        text = pp_binding(program.core.binding("mem"))
        assert "mem$enter" in text

    def test_dictionary_not_repassed(self):
        src = ("mem x [] = False\nmem x (y:ys) = x == y || mem x ys\n"
               "main = mem 500 (enumFromTo 1 500)")
        result_with, prog_with = run_with(src, inner_entry_points=True,
                                          hoist_dictionaries=False)
        result_without, prog_without = run_with(src, inner_entry_points=False,
                                                hoist_dictionaries=False)
        assert result_with == result_without is True
        # Fewer function calls: the dictionary lambda is entered once
        # instead of once per recursive step.
        assert prog_with.last_stats.fun_calls \
            < prog_without.last_stats.fun_calls

    def test_self_use_under_map_transformed_correctly(self):
        # Inside the body, a self-reference is always applied to the
        # dictionary parameters (the checker put them there), so even a
        # higher-order use like `map (f d)` rewrites to `map f$enter`.
        src = ("f :: Eq a => [a] -> Bool\n"
               "f xs = null (map f [xs]) || xs == xs\n"
               "main = f [1]")
        result, program = run_with(src, inner_entry_points=True)
        assert result is True
        text = pp_binding(program.core.binding("f"))
        assert "f$enter" in text

    def test_polymorphic_recursion_not_transformed(self):
        src = ("depth :: Text a => Int -> a -> [Char]\n"
               "depth n x = if n == 0 then show x else depth (n - 1) [x]\n"
               "main = depth 1 'c'")
        result, program = run_with(src, inner_entry_points=True)
        assert result == "['c']"
        text = pp_binding(program.core.binding("depth"))
        assert "$enter" not in text

    def test_non_recursive_untouched(self):
        program = compile_source("poly :: Eq a => a -> Bool\npoly x = x == x",
                                 CompilerOptions(inner_entry_points=True))
        assert "$enter" not in pp_binding(program.core.binding("poly"))


class TestSpecialization:
    """Section 9: type-specific clones."""

    SRC = ("mem :: Eq a => a -> [a] -> Bool\n"
           "mem x [] = False\n"
           "mem x (y:ys) = x == y || mem x ys\n"
           "main = mem 3 [1,2,3]")

    def test_semantics_preserved(self):
        plain, _ = run_with(self.SRC, specialize=False)
        spec, _ = run_with(self.SRC, specialize=True)
        assert plain == spec is True

    def test_clone_created(self):
        _, program = run_with(self.SRC, specialize=True)
        assert any("mem@" in n for n in program.core.names())

    def test_dispatch_eliminated(self):
        _, plain_prog = run_with(self.SRC, specialize=False,
                                 hoist_dictionaries=False,
                                 inner_entry_points=False)
        _, spec_prog = run_with(self.SRC, specialize=True,
                                hoist_dictionaries=False,
                                inner_entry_points=False)
        assert spec_prog.last_stats.dict_selections \
            < plain_prog.last_stats.dict_selections

    def test_specialized_recursion_targets_clone(self):
        _, program = run_with(self.SRC, specialize=True)
        clone = next(b for b in program.core.bindings if "mem@" in b.name)
        assert clone.dict_arity == 0

    def test_specialization_of_derived_code(self):
        src = ("data C = A | B deriving (Eq, Text)\n"
               "main = member A [B, A]")
        plain, _ = run_with(src, specialize=False)
        spec, _ = run_with(src, specialize=True)
        assert plain == spec is True

    def test_nested_dictionary_argument(self):
        src = "main = member [1,2] [[1], [1,2]]"
        spec, program = run_with(src, specialize=True)
        assert spec is True
        assert any("member@" in n for n in program.core.names())

    def test_local_binder_shadowing_a_top_level_name_is_not_a_root(self):
        # The let-bound ``insert`` is generalised, so its call passes an
        # Ord dictionary — at the same constant vector a call of the
        # prelude's overloaded ``insert`` would.  It is still the local
        # function: cloning the prelude's in its place flips the result.
        plain, _ = run_with(SHADOWING_LOCAL, specialize=False)
        spec, program = run_with(SHADOWING_LOCAL, specialize=True)
        assert plain == spec == [5, 1]
        assert not any(n.startswith("insert@")
                       for n in program.core.names())


class TestConstantDictReduction:
    """Section 8.4."""

    SRC = ("single :: Eq a => a -> Bool\n"
           "single x = x == x\n"
           "main = (single 'a', single 'b')")

    def test_semantics_preserved(self):
        plain, _ = run_with(self.SRC, constant_dict_reduction=False)
        reduced, _ = run_with(self.SRC, constant_dict_reduction=True)
        assert plain == reduced == (True, True)

    def test_dict_params_dropped(self):
        _, program = run_with(self.SRC, constant_dict_reduction=True)
        assert program.core.binding("single").dict_arity == 0

    def test_two_overloadings_not_reduced(self):
        src = ("single :: Eq a => a -> Bool\n"
               "single x = x == x\n"
               "main = (single 'a', single (1 :: Int))")
        result, program = run_with(src, constant_dict_reduction=True)
        assert result == (True, True)
        assert program.core.binding("single").dict_arity == 1

    def test_higher_order_argument_use_reduced(self):
        # Even as a higher-order argument, the reference carries its
        # dictionaries (`check d (single d) 'x'`), so a single
        # overloading is still detected and reduced.
        src = ("single :: Eq a => a -> Bool\n"
               "single x = x == x\n"
               "check :: Eq a => (a -> Bool) -> a -> Bool\n"
               "check f v = f v\n"
               "main = check single 'x'")
        result, program = run_with(src, constant_dict_reduction=True)
        assert result is True
        assert program.core.binding("single").dict_arity == 0


class TestCombinedOptimizations:
    PROGRAMS = [
        ("main = show (sort [3,1,2])", "[1, 2, 3]"),
        ("main = member [1] [[2], [1]]", True),
        ('main = (read "[1, 2]" :: [Int])', [1, 2]),
        ("data T = A | B deriving (Eq, Ord, Text)\n"
         "main = show (maximum [A, B, A])", "B"),
        ("main = sum (map (\\x -> x * x) (enumFromTo 1 10))", 385),
    ]

    @pytest.mark.parametrize("source,expected", PROGRAMS)
    def test_all_option_combinations_agree(self, source, expected):
        for opts in (
            CompilerOptions(),
            NAIVE,
            CompilerOptions(specialize=True, constant_dict_reduction=True),
            CompilerOptions(dict_layout="flat"),
            CompilerOptions(dict_layout="flat", single_slot_opt=False,
                            specialize=True),
            CompilerOptions(single_slot_opt=False),
            CompilerOptions(call_by_need=False),
        ):
            assert compile_source(source, opts).run("main") == expected
