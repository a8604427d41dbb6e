"""Type inference and dictionary conversion tests (sections 5, 6, 8).

These run the whole pipeline on small programs and inspect inferred
schemes, generated core, warnings and errors.
"""

import pytest

from repro import (
    AmbiguityError,
    CompilerOptions,
    NoInstanceError,
    SignatureError,
    TypeCheckError,
    UnificationError,
    compile_source,
)
from repro.core.types import scheme_str


def scheme_of(source: str, name: str, options=None) -> str:
    program = compile_source(source, options)
    return scheme_str(program.schemes[name])


class TestInferredSchemes:
    def test_identity(self):
        assert scheme_of("f x = x", "f") == "a -> a"

    def test_const(self):
        assert scheme_of("f x y = x", "f") == "a -> b -> a"

    def test_composition(self):
        assert scheme_of("f g h x = g (h x)", "f") \
            == "(a -> b) -> (c -> a) -> c -> b"

    def test_member_like(self):
        src = "mem x [] = False\nmem x (y:ys) = x == y || mem x ys"
        assert scheme_of(src, "mem") == "Eq a => a -> [a] -> Bool"

    def test_double(self):
        assert scheme_of("double x = x + x", "double") == "Num a => a -> a"

    def test_ord_absorbs_eq(self):
        """Superclass compaction (8.1): Eq is implied by Ord."""
        src = "f x y = x == y && x < y"
        assert scheme_of(src, "f") == "Ord a => a -> a -> Bool"

    def test_two_contexts(self):
        src = "f x y = (x == x, show y)"
        out = scheme_of(src, "f")
        assert out == "(Eq a, Text b) => a -> b -> (Bool, [Char])"

    def test_list_of_class_constrained(self):
        src = "allEqual [] = True\nallEqual [x] = True\n" \
              "allEqual (x:y:ys) = x == y && allEqual (y:ys)"
        assert scheme_of(src, "allEqual") == "Eq a => [a] -> Bool"

    def test_concrete_type_has_no_context(self):
        assert scheme_of("f x = x + (1 :: Int)", "f") == "Int -> Int"

    def test_declared_signature_respected(self):
        src = "f :: Int -> Int\nf x = x"
        assert scheme_of(src, "f") == "Int -> Int"

    def test_show_of_read_annotated(self):
        src = 'f s = show (read s :: Int)'
        assert scheme_of(src, "f") == "[Char] -> [Char]"


class TestLocalSchemes:
    """Only bindings that become top-level output get a program-wide
    scheme; let/where-bound names stay local to their expression."""

    SOURCE = "g y = let h = y + 1 in h\nmain = g 2"

    def test_let_binding_has_no_scheme(self):
        program = compile_source(self.SOURCE)
        assert "h" not in program.schemes
        assert not [line for line in program.interface().splitlines()
                    if line.startswith("h ::")]
        assert program.run("main") == 3

    def test_schemes_do_not_depend_on_earlier_compiles(self):
        # An unused local's type is a fresh variable whose number
        # depends on how many compiles ran before; it must not show.
        source = "d0 x = (let f = (9 + x) in (5 + 69.32))"
        first = {n: str(s) for n, s in compile_source(source).schemes.items()}
        second = {n: str(s)
                  for n, s in compile_source(source).schemes.items()}
        assert first == second
        assert "f" not in first

    def test_eval_let_leaves_no_scheme(self):
        program = compile_source("main = 1")
        assert program.eval("let zz = 5 in zz + 1") == 6
        assert "zz" not in program.schemes
        assert program.info("zz") == "zz is not defined"

    def test_prelude_locals_have_no_scheme(self):
        schemes = compile_source("").schemes
        for name in ("first", "go", "items", "tag$d"):
            assert name not in schemes, name


class TestDictionaryConversion:
    def test_overloaded_function_gets_dict_param(self):
        program = compile_source(
            "mem x [] = False\nmem x (y:ys) = x == y || mem x ys")
        binding = program.core.binding("mem")
        assert binding.dict_arity == 1

    def test_unoverloaded_function_gets_none(self):
        program = compile_source("f x = (x, x)")
        assert program.core.binding("f").dict_arity == 0

    def test_two_dictionaries_in_signature_order(self):
        program = compile_source(
            "f :: (Text b, Eq a) => a -> b -> [Char]\n"
            "f x y = if x == x then show y else []")
        assert program.core.binding("f").dict_arity == 2
        # Signature order (Text first) decides parameter order: calling
        # at (b=Int, a=Char) must pass the Text dictionary first; we
        # verify observably.
        program2 = compile_source(
            "f :: (Text b, Eq a) => a -> b -> [Char]\n"
            "f x y = if x == x then show y else []\n"
            "main = f 'c' (3 :: Int)")
        assert program2.run("main") == "3"

    def test_method_at_known_type_called_directly(self):
        """Section 4: "the type specific version of the method is
        called directly without using the dictionary"."""
        from repro.coreir.pretty import pp_binding
        program = compile_source("f = (1 :: Int) == 2")
        text = pp_binding(program.core.binding("f"))
        assert "impl$Eq$Int" in text
        assert "sel$" not in text

    def test_method_at_variable_uses_selector(self):
        from repro.coreir.pretty import pp_binding
        program = compile_source("f x y = x == y")
        text = pp_binding(program.core.binding("f"))
        assert "sel$Eq" in text

    def test_dictionary_constructor_for_list_instance(self):
        program = compile_source("")
        b = program.core.binding("d$Eq$List")
        assert b.kind == "dict"
        assert b.dict_arity == 1  # instance Eq a => Eq [a]

    def test_constant_dictionary_no_params(self):
        program = compile_source("")
        assert program.core.binding("d$Eq$Int").dict_arity == 0

    def test_selector_bindings_generated(self):
        program = compile_source("")
        names = set(program.core.names())
        assert any(n.startswith("sel$Eq$") for n in names)
        assert any(n.startswith("sup$Ord$") for n in names)

    def test_recursive_call_passes_same_dictionary(self):
        """Section 6.3 — with the entry-point optimisation off, the
        recursive call is the binder applied to the dictionary
        parameter."""
        from repro.coreir.pretty import pp_binding
        program = compile_source(
            "mem x [] = False\nmem x (y:ys) = x == y || mem x ys",
            CompilerOptions(inner_entry_points=False,
                            hoist_dictionaries=False))
        text = pp_binding(program.core.binding("mem"))
        assert "mem d$" in text


class TestLetrecGroups:
    """Section 8.3: all bindings of a letrec share a common context."""

    def test_mutual_recursion_shared_context(self):
        src = ("f x ys = member x ys || g x\n"
               "g x = f x []")
        program = compile_source(src)
        assert scheme_str(program.schemes["f"]) \
            == "Eq a => a -> [a] -> Bool"
        assert scheme_str(program.schemes["g"]) == "Eq a => a -> Bool"

    def test_warning_for_binder_missing_context(self):
        # g's own type (Bool) mentions no Eq-constrained variable, but
        # its group's context does: warn (callable inside the group but
        # ambiguous from outside).  The monomorphism restriction is
        # disabled because g is a pattern binding.
        src = ("f x = x == x && g\n"
               "g = null [f]")
        program = compile_source(
            src, CompilerOptions(monomorphism_restriction=False))
        assert any(w.name == "g" and w.missing == ["Eq"]
                   for w in program.warnings)
        assert scheme_str(program.schemes["f"]) == "Eq a => a -> Bool"

    def test_mutual_recursion_runs(self):
        src = ("isEven n = if n == 0 then True else isOdd (n - 1)\n"
               "isOdd n = if n == 0 then False else isEven (n - 1)\n"
               "main = (isEven 10, isOdd 10)")
        assert compile_source(src).run("main") == (True, False)

    def test_polymorphic_recursion_with_signature(self):
        src = ("depth :: Text a => Int -> a -> [Char]\n"
               "depth n x = if n == 0 then show x else depth (n - 1) [x]\n"
               "main = depth 2 (7 :: Int)")
        assert compile_source(src).run("main") == "[[7]]"

    def test_polymorphic_recursion_without_signature_fails(self):
        src = "depth n x = if n == 0 then show x else depth (n - 1) [x]"
        with pytest.raises(TypeCheckError):
            compile_source(src)

    def test_local_let_group(self):
        src = ("main = let go [] = 0\n"
               "           go (x:xs) = 1 + go xs\n"
               "       in go \"abcd\"")
        assert compile_source(src).run("main") == 4

    def test_local_overloaded_let(self):
        src = ("f y zs = let find x [] = False\n"
               "             find x (w:ws) = x == w || find x ws\n"
               "         in find y zs && find 'a' \"abc\"\n"
               "main = f 1 [1,2]")
        assert compile_source(src).run("main") is True


class TestMonomorphismRestriction:
    """Section 8.7."""

    def test_pattern_binding_not_generalized(self):
        # x = 5 is monomorphic; using it at Int fixes it everywhere.
        src = "x = 5\nmain = (x + 1 :: Int, x)"
        program = compile_source(src)
        assert program.run("main") == (6, 5)
        assert scheme_str(program.schemes["x"]) == "Int"

    def test_restricted_binding_has_no_dict_params(self):
        program = compile_source("x = 5\nmain = x + (1::Int)")
        assert program.core.binding("x").dict_arity == 0

    def test_function_binding_not_restricted(self):
        program = compile_source("double x = x + x")
        assert scheme_str(program.schemes["double"]) == "Num a => a -> a"

    def test_signature_lifts_restriction(self):
        src = "f :: Num a => a -> a\nf = \\x -> x + x\nmain = (f 1, f 1.5)"
        assert compile_source(src).run("main") == (1 + 1, 3.0)

    def test_restriction_can_be_disabled(self):
        src = "g = \\x -> x + x\nmain = (g (2 :: Int), g 2.5)"
        options = CompilerOptions(monomorphism_restriction=False)
        assert compile_source(src, options).run("main") == (4, 5.0)

    def test_restriction_rejects_two_usages(self):
        src = "g = \\x -> x + x\nmain = (g (2::Int), g 2.5)"
        with pytest.raises(TypeCheckError):
            compile_source(src)


class TestDefaulting:
    """Section 6.3 case 4: ambiguity resolved by defaulting."""

    def test_numeric_literal_defaults_to_int(self):
        program = compile_source("main = 1 + 2")
        assert program.run("main") == 3

    def test_show_of_literal_defaults(self):
        assert compile_source("main = show (2 + 3)").run("main") == "5"

    def test_ambiguous_non_numeric_is_error(self):
        with pytest.raises(AmbiguityError):
            compile_source("f s = show (read s)\nmain = f \"1\"")

    def test_annotation_resolves_ambiguity(self):
        src = 'main = show (read "10" :: Int)'
        assert compile_source(src).run("main") == "10"

    def test_defaulting_disabled(self):
        options = CompilerOptions(defaulting=False)
        with pytest.raises(AmbiguityError):
            compile_source("main = show (1 + 2)", options)

    def test_custom_default_declaration(self):
        src = "default (Float)\nmain = show (1 + 2)"
        assert compile_source(src).run("main") == "3.0"


class TestErrors:
    def test_unbound_variable(self):
        with pytest.raises(TypeCheckError, match="not in scope"):
            compile_source("main = mystery")

    def test_type_mismatch(self):
        with pytest.raises(UnificationError):
            compile_source("main = (1 :: Int) + 'c'")

    def test_no_instance(self):
        with pytest.raises(NoInstanceError):
            compile_source("data T = MkT\nmain = MkT == MkT")

    def test_no_instance_names_class_and_type(self):
        with pytest.raises(NoInstanceError) as exc:
            compile_source("data T = MkT\nmain = show MkT")
        assert exc.value.class_name == "Text"
        assert "T" in exc.value.type_str

    def test_function_has_no_eq_instance(self):
        with pytest.raises(NoInstanceError):
            compile_source("main = id == id")

    def test_signature_too_general(self):
        with pytest.raises(SignatureError):
            compile_source("f :: a -> a\nf x = x + x")

    def test_signature_missing_context(self):
        with pytest.raises(SignatureError):
            compile_source("f :: a -> a -> Bool\nf x y = x == y")

    def test_signature_with_wrong_type(self):
        with pytest.raises(TypeCheckError):
            compile_source("f :: Int -> Int\nf x = show x")

    def test_occurs_check(self):
        with pytest.raises(TypeCheckError):
            compile_source("f x = x x")

    def test_duplicate_signature(self):
        from repro import StaticError
        with pytest.raises(StaticError):
            compile_source("f :: Int\nf :: Int\nf = 1")

    def test_signature_without_binding(self):
        from repro import StaticError
        with pytest.raises(StaticError):
            compile_source("f :: Int -> Int")

    def test_pattern_binds_variable_twice(self):
        with pytest.raises(TypeCheckError):
            compile_source("f (x, x) = x")

    def test_constructor_arity_in_pattern(self):
        with pytest.raises(TypeCheckError):
            compile_source("f (Just x y) = x")

    def test_guard_must_be_bool(self):
        # 1 is overloaded, so the failure surfaces as "no instance for
        # Num Bool" — the same message GHC gives for this program.
        with pytest.raises(TypeCheckError):
            compile_source("f x | x + 1 = True\nf x = False")

    def test_if_condition_must_be_bool(self):
        with pytest.raises(TypeCheckError):
            compile_source("main = if 1 then 2 else 3")

    def test_case_branches_must_agree(self):
        with pytest.raises(UnificationError):
            compile_source(
                "f x = case x of { True -> 'a'; False -> (1 :: Int) }")


class TestOverloadedMethods:
    """Section 8.5: methods overloaded beyond the class variable."""

    def test_extra_context_on_method(self):
        src = ("class Pretty a where\n"
               "  pp :: Text b => b -> a -> [Char]\n"
               "data P = P\n"
               "instance Pretty P where\n"
               "  pp x p = \"P<\" ++ show x ++ \">\"\n"
               "main = pp (42 :: Int) P")
        assert compile_source(src).run("main") == "P<42>"

    def test_extra_context_through_dictionary(self):
        """Same method reached via a type variable (true dictionary
        dispatch with the extra dictionary applied at the use site)."""
        src = ("class Pretty a where\n"
               "  pp :: Text b => b -> a -> [Char]\n"
               "data P = P\n"
               "instance Pretty P where\n"
               "  pp x p = \"P<\" ++ show x ++ \">\"\n"
               "render :: Pretty a => a -> [Char]\n"
               "render v = pp (7 :: Int) v\n"
               "main = render P")
        assert compile_source(src).run("main") == "P<7>"


class TestDefaultMethods:
    """Section 8.2."""

    def test_default_used_when_method_missing(self):
        # Eq Int defines only (==); (/=) comes from the class default.
        assert compile_source("main = (1 :: Int) /= 2").run("main") is True

    def test_instance_override_beats_default(self):
        src = ("class Greet a where\n"
               "  hello :: a -> [Char]\n"
               "  goodbye :: a -> [Char]\n"
               "  goodbye x = \"bye\"\n"
               "data A = A\n"
               "data B = B\n"
               "instance Greet A where\n"
               "  hello x = \"hi A\"\n"
               "instance Greet B where\n"
               "  hello x = \"hi B\"\n"
               "  goodbye x = \"farewell B\"\n"
               "main = (goodbye A, goodbye B)")
        assert compile_source(src).run("main") == ("bye", "farewell B")

    def test_missing_method_without_default_is_runtime_error(self):
        from repro.errors import EvalError
        src = ("class Greet a where\n"
               "  hello :: a -> [Char]\n"
               "data A = A\n"
               "instance Greet A where\n"
               "greet :: Greet a => a -> [Char]\n"
               "greet = hello\n"
               "main = greet A")
        program = compile_source(src)
        with pytest.raises(EvalError, match="no definition of method"):
            program.run("main")

    def test_mutually_defaulting_methods(self):
        # Eq declares == and /= each with a default in terms of the
        # other; an instance giving either one works.
        src = ("data T = T1 | T2\n"
               "instance Eq T where\n"
               "  x /= y = case (x, y) of\n"
               "             (T1, T1) -> False\n"
               "             (T2, T2) -> False\n"
               "             (a, b)   -> True\n"
               "main = (T1 == T1, T1 == T2)")
        assert compile_source(src).run("main") == (True, False)
