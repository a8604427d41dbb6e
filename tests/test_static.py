"""Static analysis tests (section 4): data declarations, kind
inference, type synonyms, class/instance processing, signatures."""

import pytest

from repro.core.kinds import kind_str
from repro.core.static import (
    StaticEnv,
    analyze_program,
    convert_signature,
)
from repro.core.types import scheme_str
from repro.errors import (
    DuplicateInstanceError,
    KindError,
    StaticError,
)
from repro.lang.desugar import desugar_program
from repro.lang.parser import parse_program, parse_type


def analyze(source: str) -> StaticEnv:
    program = desugar_program(parse_program(source))
    return analyze_program(program)


def analyze_with_classes(source: str) -> StaticEnv:
    """Analyze with a tiny Eq/Ord/Text base so deriving and contexts
    resolve without pulling in the whole prelude."""
    base = """
class Eq a where
  (==) :: a -> a -> Bool
class Eq a => Ord a where
  compare :: a -> a -> Ordering
class Text a where
  show :: a -> [Char]
  reads :: [Char] -> [(a, [Char])]
data Bool = False | True
data Ordering = LT | EQ | GT
"""
    return analyze(base + source)


class TestDataDeclarations:
    def test_builtin_types_present(self):
        env = analyze("")
        for name in ("Int", "Float", "Char", "[]", "()"):
            assert env.data_type(name)

    def test_list_constructors(self):
        env = analyze("")
        assert env.data_con(":").arity == 2
        assert env.data_con("[]").arity == 0

    def test_simple_data(self):
        env = analyze("data Color = Red | Green | Blue")
        info = env.data_type("Color")
        assert [c.name for c in info.constructors] == ["Red", "Green", "Blue"]
        assert [c.tag for c in info.constructors] == [0, 1, 2]

    def test_parameterised_data(self):
        env = analyze("data Pair a b = MkPair a b")
        con = env.data_con("MkPair")
        assert con.arity == 2
        assert "MkPair" in scheme_str(con.scheme) or "->" in scheme_str(con.scheme)
        assert kind_str(env.data_type("Pair").kind) == "* -> * -> *"

    def test_recursive_data(self):
        env = analyze("data Tree a = Leaf | Node (Tree a) a (Tree a)")
        assert env.data_con("Node").arity == 3

    def test_mutually_recursive_data(self):
        env = analyze(
            "data Rose a = Rose a (Forest a)\n"
            "data Forest a = MkForest [Rose a]")
        assert env.data_con("MkForest").arity == 1

    def test_higher_kinded_parameter(self):
        env = analyze("data Wrap f a = MkWrap (f a)")
        assert kind_str(env.data_type("Wrap").kind) == "(* -> *) -> * -> *"

    def test_kind_error_in_constructor(self):
        with pytest.raises(KindError):
            analyze("data Bad a = MkBad (a a)")

    def test_duplicate_data_type_rejected(self):
        with pytest.raises(StaticError):
            analyze("data T = A\ndata T = B")

    def test_duplicate_constructor_rejected(self):
        with pytest.raises(StaticError):
            analyze("data T = A\ndata U = A")

    def test_repeated_tyvar_rejected(self):
        with pytest.raises(StaticError):
            analyze("data T a a = MkT a")

    def test_unknown_type_in_constructor(self):
        with pytest.raises(StaticError):
            analyze("data T = MkT Mystery")

    def test_out_of_scope_tyvar_in_constructor(self):
        with pytest.raises(StaticError):
            analyze("data T a = MkT b")


class TestTypeSynonyms:
    def test_simple_synonym(self):
        env = analyze("type Str = [Char]\ndata T = MkT Str")
        # the constructor field is [Char], not an opaque Str
        con = env.data_con("MkT")
        assert "[Char]" in scheme_str(con.scheme)

    def test_parameterised_synonym(self):
        env = analyze("type Pair a = (a, a)\ndata T = MkT (Pair Int)")
        con = env.data_con("MkT")
        assert "(Int, Int)" in scheme_str(con.scheme)

    def test_synonym_in_signature(self):
        env = analyze("type Str = [Char]")
        scheme = convert_signature(env, parse_type("Str -> Str"))
        assert scheme_str(scheme) == "[Char] -> [Char]"

    def test_nested_synonyms(self):
        env = analyze("type A = [Char]\ntype B = [A]\ndata T = MkT B")
        assert "[[Char]]" in scheme_str(env.data_con("MkT").scheme)

    def test_under_applied_synonym_rejected(self):
        env = analyze("type Pair a = (a, a)")
        with pytest.raises(StaticError):
            convert_signature(env, parse_type("Pair -> Int"))

    def test_duplicate_synonym_rejected(self):
        with pytest.raises(StaticError):
            analyze("type A = Int\ntype A = Char")


class TestClassesAndInstances:
    def test_class_registered(self):
        env = analyze_with_classes("")
        assert env.class_env.is_class("Eq")
        assert env.class_env.class_info("Ord").superclasses == ["Eq"]

    def test_method_scheme_shape(self):
        env = analyze_with_classes("")
        m = env.class_env.class_info("Eq").method("==")
        assert scheme_str(m.scheme) == "Eq a => a -> a -> Bool"

    def test_method_with_extra_context(self):
        env = analyze_with_classes(
            "class Pretty a where\n  pp :: Text b => b -> a -> [Char]")
        m = env.class_env.class_info("Pretty").method("pp")
        assert m.extra_preds_count == 1

    def test_method_must_mention_class_var(self):
        with pytest.raises(StaticError):
            analyze_with_classes(
                "class Broken a where\n  b :: Int -> Int")

    def test_default_for_non_method_rejected(self):
        with pytest.raises(StaticError):
            analyze_with_classes(
                "class C a where\n  m :: a -> a\n  other x = x")

    def test_instance_registered_as_4tuple(self):
        env = analyze_with_classes(
            "instance Eq Int where\n  x == y = primEqInt x y")
        info = env.class_env.get_instance("Int", "Eq")
        assert info.tycon_name == "Int"
        assert info.class_name == "Eq"
        assert info.dict_name == "d$Eq$Int"
        assert info.context == []

    def test_instance_context_per_argument(self):
        env = analyze_with_classes(
            "data P a b = MkP a b\n"
            "instance (Eq a, Eq b) => Eq (P a b) where\n  x == y = x == y")
        info = env.class_env.get_instance("P", "Eq")
        assert info.context == [["Eq"], ["Eq"]]

    def test_duplicate_instance_rejected(self):
        with pytest.raises(DuplicateInstanceError):
            analyze_with_classes(
                "instance Eq Int where\n  x == y = y == x\n"
                "instance Eq Int where\n  x == y = x == y")

    def test_instance_head_must_be_constructor(self):
        with pytest.raises(StaticError):
            analyze_with_classes("instance Eq a where\n  x == y = True")

    def test_instance_head_args_must_be_vars(self):
        with pytest.raises(StaticError):
            analyze_with_classes(
                "instance Eq [Int] where\n  x == y = True")

    def test_instance_head_vars_distinct(self):
        with pytest.raises(StaticError):
            analyze_with_classes(
                "data P a b = MkP a b\n"
                "instance Eq (P a a) where\n  x == y = True")

    def test_instance_context_must_cover_head_vars(self):
        with pytest.raises(StaticError):
            analyze_with_classes(
                "instance Eq b => Eq [a] where\n  x == y = True")

    def test_unknown_method_in_instance(self):
        with pytest.raises(StaticError):
            analyze_with_classes(
                "instance Eq Int where\n  weird x = x")

    def test_instance_of_unknown_class_located(self):
        from repro import compile_source
        with pytest.raises(StaticError) as info:
            compile_source("x = 1\ninstance Bar Int where bar x = x")
        exc = info.value
        assert exc.code == "static"
        assert exc.message == "instance declaration for unknown class Bar"
        assert (exc.pos.line, exc.pos.column) == (2, 1)

    def test_instance_arity_checked(self):
        with pytest.raises(KindError):
            analyze_with_classes("instance Eq [] where\n  x == y = True")

    def test_defined_methods_recorded(self):
        env = analyze_with_classes(
            "instance Eq Int where\n  x == y = True")
        info = env.class_env.get_instance("Int", "Eq")
        assert info.defined_methods == frozenset({"=="})

    def test_instance_head_pattern(self):
        env = analyze_with_classes(
            "instance Eq a => Eq [a] where\n  x == y = True")
        info = env.class_env.get_instance("[]", "Eq")
        assert info.heads == [("[]", (0,))]
        assert info.preds == [("Eq", (0,))]


class TestSignatures:
    def test_simple_signature(self):
        env = analyze("")
        scheme = convert_signature(env, parse_type("a -> a"))
        assert scheme_str(scheme) == "a -> a"

    def test_context_order_preserved(self):
        env = analyze_with_classes("")
        scheme = convert_signature(
            env, parse_type("(Text b, Eq a) => a -> b"))
        assert [p.class_name for p in scheme.preds] == ["Text", "Eq"]

    def test_unknown_class_in_context(self):
        env = analyze("")
        with pytest.raises(StaticError):
            convert_signature(env, parse_type("Monoid a => a"))

    def test_context_var_not_in_body_allowed(self):
        env = analyze_with_classes("")
        scheme = convert_signature(env, parse_type("Eq b => Int"))
        assert len(scheme.kinds) == 1

    def test_non_variable_context_rejected(self):
        env = analyze_with_classes("")
        with pytest.raises(StaticError):
            convert_signature(env, parse_type("Eq [a] => [a]"))

    def test_default_declaration(self):
        env = analyze("data MyNum = MkN\ndefault (MyNum)")
        assert env.class_env.default_types == ["MyNum"]
