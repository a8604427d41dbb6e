"""Higher-kinded classes: kind inference for class declarations,
instances at partially applied constructors, the Functor/Applicative/
Monad prelude, ``deriving (Functor)``, ``.ri`` round-trips of non-``*``
kinds, and the ``info --kinds`` listing.

The paper restricted class variables to kind ``*``; these tests pin
the lifted system (docs/CLASSES.md).
"""

from __future__ import annotations

import pytest

from repro import CompilerOptions, compile_source
from repro.core.kinds import KVar, kind_str, kvar_scope
from repro.errors import KindError, StaticError
from repro.modules import (
    ModuleBuilder,
    compile_module,
    load_interface,
    save_interface,
    scan_module_source,
)
from repro.modules.interface import interface_path
from repro.modules.resolve import scan_inline_modules


def evaluate(source: str, expr: str):
    """Compile *source*, evaluate *expr*, return the (Python-shaped)
    value."""
    return compile_source(source).eval(expr)


# ---------------------------------------------------------------------------
# Kind inference for class declarations
# ---------------------------------------------------------------------------


class TestClassKindInference:
    def test_prelude_functor_hierarchy_kinds(self, prelude_program):
        env = prelude_program.class_env
        for name in ("Functor", "Applicative", "Monad"):
            assert kind_str(env.class_info(name).tyvar_kind) == "* -> *"
        for name in ("Eq", "Ord", "Num", "Text"):
            assert kind_str(env.class_info(name).tyvar_kind) == "*"

    def test_user_class_constructor_kind(self):
        program = compile_source(
            "class Container c where\n"
            "  empty  :: c a\n"
            "  insert :: a -> c a -> c a\n")
        info = program.class_env.class_info("Container")
        assert kind_str(info.tyvar_kind) == "* -> *"

    def test_two_argument_constructor_kind(self):
        program = compile_source(
            "class Profunctorish p where\n"
            "  dimapish :: (a -> b) -> p b c -> p a c\n")
        info = program.class_env.class_info("Profunctorish")
        assert kind_str(info.tyvar_kind) == "* -> * -> *"

    def test_later_method_refines_kind(self):
        # The first signature alone leaves f's kind open; the second
        # pins it.  Scheme kinds must be zonked only after the whole
        # class is processed.
        program = compile_source(
            "class Pointed f where\n"
            "  point :: a -> f a\n"
            "  flat  :: f (f a) -> f a\n")
        info = program.class_env.class_info("Pointed")
        assert kind_str(info.tyvar_kind) == "* -> *"
        for method in info.methods:
            for k in method.scheme.kinds:
                assert not isinstance(k, KVar)

    def test_superclass_pins_subclass_kind(self):
        program = compile_source(
            "class Functor f => Pointy f where\n"
            "  pointy :: a -> f a\n")
        info = program.class_env.class_info("Pointy")
        assert kind_str(info.tyvar_kind) == "* -> *"

    def test_method_arity_misuse_is_kind_error(self):
        # f is applied to one argument in one method and two in the
        # other: * -> * vs * -> * -> * cannot unify.
        with pytest.raises(KindError):
            compile_source(
                "class Broken f where\n"
                "  one :: f a -> Int\n"
                "  two :: f a b -> Int\n")

    def test_kind_error_renders_defaulted_kinds(self):
        # The message must print concrete kinds (* and arrows), never
        # raw kind-variable ids like k17.
        with pytest.raises(KindError) as exc_info:
            compile_source(
                "class Broken f where\n"
                "  one :: f a -> Int\n"
                "  two :: f -> Int\n")
        message = str(exc_info.value)
        assert "*" in message
        assert "k1" not in message.replace("kind", "")

    def test_kind_error_carries_position(self):
        with pytest.raises(KindError) as exc_info:
            compile_source(
                "class Broken f where\n"
                "  one :: f a -> Int\n"
                "  two :: f a b -> Int\n")
        assert exc_info.value.pos is not None


# ---------------------------------------------------------------------------
# Kind inference for data groups (the same machinery)
# ---------------------------------------------------------------------------


class TestDataKindInference:
    def test_mutually_recursive_group(self):
        program = compile_source(
            "data Rose a = Rose a (Forest a)\n"
            "data Forest a = NilF | ConsF (Rose a) (Forest a)\n")
        assert kind_str(
            program.static_env.data_types["Rose"].kind) == "* -> *"
        assert kind_str(
            program.static_env.data_types["Forest"].kind) == "* -> *"

    def test_phantom_parameter_defaults_to_star(self):
        program = compile_source("data Tagged t a = Tagged a\n")
        assert kind_str(
            program.static_env.data_types["Tagged"].kind) == "* -> * -> *"

    def test_constructor_kinded_parameter(self):
        program = compile_source("data Compose f g a = Compose (f (g a))\n")
        assert kind_str(program.static_env.data_types["Compose"].kind) \
            == "(* -> *) -> (* -> *) -> * -> *"

    def test_kvar_scope_resets_and_restores(self):
        KVar()
        before = KVar._counter
        with kvar_scope():
            inner = KVar()
            assert inner.id == 1
        assert KVar._counter == before


# ---------------------------------------------------------------------------
# Instances at partially applied constructors
# ---------------------------------------------------------------------------


class TestHKInstances:
    def test_prelude_functor_instances_exist(self, prelude_program):
        env = prelude_program.class_env
        have = {inst.tycon_name for inst in env.instances_of_class("Functor")}
        assert {"Maybe", "Either", "[]", "->"} <= have

    def test_either_instance_head_arg_kinds(self, prelude_program):
        env = prelude_program.class_env
        inst = env.get_instance("Either", "Functor")
        assert [kind_str(k) for k in inst.head_arg_kinds] == ["*"]
        assert len(inst.context) == 1

    def test_function_instance_has_context_slot(self, prelude_program):
        env = prelude_program.class_env
        inst = env.get_instance("->", "Monad")
        assert inst is not None
        assert len(inst.context) == 1

    def test_wrong_kind_instance_head_rejected(self):
        with pytest.raises(KindError) as exc_info:
            compile_source("instance Functor Int where\n  fmap f x = x\n")
        assert "* -> *" in str(exc_info.value)
        assert exc_info.value.pos is not None

    def test_saturated_head_for_hk_class_rejected(self):
        # Box a :: * but Functor wants * -> *.
        with pytest.raises(KindError):
            compile_source(
                "data Box a = Box a\n"
                "instance Functor (Box a) where\n"
                "  fmap f (Box x) = Box (f x)\n")

    def test_star_class_keeps_exact_arity_message(self):
        with pytest.raises(KindError) as exc_info:
            compile_source(
                "data Pair2 a b = Pair2 a b\n"
                "instance Eq Pair2 where\n  x == y = True\n")
        assert "expects 2 type argument(s), got 0" in str(exc_info.value)

    def test_user_hk_instance_at_partial_application(self):
        value = evaluate(
            "data Triple e w a = Triple e w a\n"
            "instance Functor (Triple e w) where\n"
            "  fmap f (Triple e w a) = Triple e w (f a)\n",
            "fmap (\\x -> x + 1) (Triple False 9 41)")
        assert value == ("Triple", False, 9, 42)

    def test_context_on_hk_var_head(self):
        value = evaluate(
            "data Pair f a = Pair (f a) (f a)\n"
            "instance Functor f => Functor (Pair f) where\n"
            "  fmap g (Pair x y) = Pair (fmap g x) (fmap g y)\n",
            "fmap (\\x -> x * 2) (Pair (Just 1) Nothing)")
        assert value == ("Pair", ("Just", 2), ("Nothing",))


# ---------------------------------------------------------------------------
# The prelude hierarchy at work
# ---------------------------------------------------------------------------


class TestPreludeHierarchy:
    def test_fmap_maybe(self):
        assert evaluate("", "fmap (\\x -> x + 1) (Just 41)") \
            == ("Just", 42)

    def test_fmap_either_partial_head(self):
        assert evaluate(
            "", "(fmap (\\x -> x * 2) (Right 21), "
                "fmap (\\x -> x * 2) (Left False))") \
            == (("Right", 42), ("Left", False))

    def test_fmap_list_and_operator(self):
        assert evaluate("", "(\\f -> f <$> [1,2,3]) (\\x -> x * x)") \
            == [1, 4, 9]

    def test_reader_functor(self):
        assert evaluate("", "(fmap (\\x -> x + 1) (\\y -> y * 2)) 5") == 11

    def test_applicative_maybe(self):
        assert evaluate("", "pure (\\x -> x + 1) <*> Just 10") \
            == ("Just", 11)

    def test_monad_bind_list(self):
        assert evaluate("", "[1,2,3] >>= (\\x -> [x, x * 10])") \
            == [1, 10, 2, 20, 3, 30]

    def test_then_discards(self):
        assert evaluate("", "(Just 1 >> Just 2, [1,2] >> [7])") \
            == (("Just", 2), [7, 7])

    def test_return_via_superclass_default(self):
        # Monad Maybe omits return; the class default return = pure
        # must resolve pure through the superclass slot.
        assert evaluate("", "(return 7 :: Maybe Int)") == ("Just", 7)

    def test_mapm_and_sequence(self):
        src = ("step :: Int -> Maybe Int\n"
               "step x = if x > 2 then Nothing else Just (x * 10)\n")
        assert evaluate(src, "mapM step [1,2]") == ("Just", [10, 20])
        assert evaluate(src, "mapM step [1,2,3]") == ("Nothing",)
        assert evaluate("", "sequence [Just 1, Just 2]") \
            == ("Just", [1, 2])

    def test_lifta2_either(self):
        assert evaluate(
            "", "(liftA2 (\\a -> \\b -> a + b) (Right 1) (Right 2), "
                "liftA2 (\\a -> \\b -> a + b) (Left 9) (Right 2))") \
            == (("Right", 3), ("Left", 9))


# ---------------------------------------------------------------------------
# Functor / Applicative / Monad laws (concrete)
# ---------------------------------------------------------------------------


LAW_PRELUDE = (
    "comp f g = \\x -> f (g x)\n"
    "inc x = x + 1\n"
    "dbl x = x * 2\n")

#: representative structures per comparable instance
FUNCTOR_CASES = [
    "Just 3", "(Nothing :: Maybe Int)",
    "(Right 3 :: Either Bool Int)", "(Left False :: Either Bool Int)",
    "[1,2,3]", "([] :: [Int])",
]


class TestLaws:
    @pytest.mark.parametrize("value", FUNCTOR_CASES)
    def test_functor_identity(self, value):
        assert evaluate(
            LAW_PRELUDE,
            f"(fmap (\\x -> x) ({value})) == ({value})") is True

    @pytest.mark.parametrize("value", FUNCTOR_CASES)
    def test_functor_composition(self, value):
        assert evaluate(
            LAW_PRELUDE,
            f"fmap (comp inc dbl) ({value}) "
            f"== fmap inc (fmap dbl ({value}))") is True

    def test_functor_laws_for_functions(self):
        # Function results cannot be compared with ==; apply at points.
        assert evaluate(
            LAW_PRELUDE,
            "((fmap (\\x -> x) dbl) 21, "
            "(fmap (comp inc dbl) inc) 4, "
            "(fmap inc (fmap dbl inc)) 4)") == (42, 11, 11)

    @pytest.mark.parametrize("ctx,point", [
        ("Maybe Int", "Just 3"),
        ("Either Bool Int", "(Right 3 :: Either Bool Int)"),
        ("[Int]", "[1,2]"),
    ])
    def test_applicative_identity_and_homomorphism(self, ctx, point):
        assert evaluate(
            LAW_PRELUDE,
            f"((pure (\\x -> x) <*> ({point})) == ({point}), "
            f"((pure inc <*> pure 3) :: {ctx}) "
            f"== (pure (inc 3) :: {ctx}))") == (True, True)

    @pytest.mark.parametrize("ctx,ka,kb", [
        ("Maybe Int", "\\x -> Just (x + 1)", "\\x -> Just (x * 2)"),
        ("[Int]", "\\x -> [x, x + 1]", "\\x -> [x * 2]"),
        ("Either Bool Int",
         "\\x -> (Right (x + 1) :: Either Bool Int)",
         "\\x -> (Right (x * 2) :: Either Bool Int)"),
    ])
    def test_monad_laws(self, ctx, ka, kb):
        src = LAW_PRELUDE + f"ka = {ka}\nkb = {kb}\n"
        assert evaluate(
            src,
            f"(((return 3 :: {ctx}) >>= ka) == ka 3, "
            f"(((return 3 :: {ctx}) >>= (\\x -> return x)) "
            f"== (return 3 :: {ctx})), "
            f"((((return 3 :: {ctx}) >>= ka) >>= kb) "
            f"== ((return 3 :: {ctx}) >>= (\\x -> ka x >>= kb))))") \
            == (True, True, True)


# ---------------------------------------------------------------------------
# deriving (Functor)
# ---------------------------------------------------------------------------


class TestDerivingFunctor:
    def test_tree(self):
        assert evaluate(
            "data Tree a = Leaf | Node (Tree a) a (Tree a)\n"
            "  deriving (Functor, Eq)\n",
            "fmap (\\x -> x * 10) (Node (Node Leaf 1 Leaf) 2 Leaf) "
            "== Node (Node Leaf 10 Leaf) 20 Leaf") is True

    def test_untouched_and_nested_fields(self):
        assert evaluate(
            "data Rec b a = Rec b [a] (Maybe a)\n  deriving (Functor)\n",
            "fmap (\\x -> x + 1) (Rec False [1,2] (Just 9))") \
            == ("Rec", False, [2, 3], ("Just", 10))

    def test_variable_headed_container_gets_functor_context(self):
        source = ("data Wrap f a = Wrap (f a)\n  deriving (Functor)\n"
                  "unwrap (Wrap m) = m\n")
        assert evaluate(
            source, "unwrap (fmap (\\x -> x - 1) (Wrap (Just 5)))") \
            == ("Just", 4)
        program = compile_source(source)
        inst = program.class_env.get_instance("Wrap", "Functor")
        assert [kind_str(k) for k in inst.head_arg_kinds] == ["* -> *"]
        assert len(inst.context) == 1
        assert list(inst.context[0]) == ["Functor"]

    def test_function_result_field(self):
        assert evaluate(
            "data F e a = F (e -> a)\n  deriving (Functor)\n"
            "runF (F g) x = g x\n",
            "runF (fmap (\\x -> x + 1) (F (\\e -> e * 2))) 5") == 11

    def test_contravariant_occurrence_rejected(self):
        with pytest.raises(StaticError, match="cannot derive Functor"):
            compile_source("data F a = F (a -> Int) deriving (Functor)\n")

    def test_no_parameters_rejected(self):
        with pytest.raises(StaticError, match="cannot derive Functor"):
            compile_source("data G = G deriving (Functor)\n")

    def test_parameter_in_head_position_rejected(self):
        with pytest.raises(StaticError, match="cannot derive Functor"):
            compile_source("data H a = H (a Int) deriving (Functor)\n")


# ---------------------------------------------------------------------------
# .ri round-trip of non-* kinds (interface format v4)
# ---------------------------------------------------------------------------


HK_LIB = ("module HKLib where\n"
          "data Shape a = Circle a | Square a deriving (Functor, Eq)\n"
          "data Box f a = Box (f a) deriving (Functor)\n"
          "class Collapse c where\n"
          "  collapse :: c a -> Maybe a\n"
          "instance Collapse Maybe where\n"
          "  collapse m = m\n"
          "instance Collapse (Either e) where\n"
          "  collapse e = case e of\n"
          "    Left l -> Nothing\n"
          "    Right r -> Just r\n")


class TestInterfaceRoundTrip:
    def compile_lib(self):
        msrc = scan_module_source(HK_LIB, "<HKLib>")
        return compile_module(msrc, [])

    def test_non_star_kinds_survive_pickle(self, tmp_path):
        art = self.compile_lib()
        path = interface_path(str(tmp_path), "HKLib")
        save_interface(art.interface, path)
        loaded = load_interface(path)
        assert kind_str(loaded.classes["Collapse"].tyvar_kind) == "* -> *"
        assert kind_str(loaded.data_types["Box"].kind) \
            == "(* -> *) -> * -> *"
        by_key = {(i.class_name, i.tycon_name): i for i in loaded.instances}
        either = by_key[("Collapse", "Either")]
        assert [kind_str(k) for k in either.head_arg_kinds] == ["*"]
        box = by_key[("Functor", "Box")]
        assert [kind_str(k) for k in box.head_arg_kinds] == ["* -> *"]
        assert loaded.fingerprint == art.interface.fingerprint
        assert loaded.render() == art.interface.render()

    def test_render_carries_kinds(self):
        art = self.compile_lib()
        text = art.interface.render()
        assert "class () => Collapse :: * -> *" in text
        assert "@ [* -> *]" in text  # Functor Box's head-arg kind

    def test_dependent_compiles_against_loaded_interface(self, tmp_path):
        art = self.compile_lib()
        path = interface_path(str(tmp_path), "HKLib")
        save_interface(art.interface, path)
        loaded = load_interface(path)
        app = ("module App where\n"
               "import HKLib\n"
               "use = (collapse (Right 4 :: Either Bool Int),\n"
               "       fmap (\\x -> x + 1) (Circle 41))\n")
        msrc = scan_module_source(app, "<App>")
        art_app = compile_module(msrc, [loaded])
        assert "use" in art_app.schemes

    def test_linked_hk_program_runs(self):
        graph = scan_inline_modules([
            {"name": "HKLib", "source": HK_LIB},
            {"name": "Main", "source":
                "module Main where\n"
                "import HKLib\n"
                "main = (collapse (Right 42 :: Either Bool Int),\n"
                "        fmap (\\x -> x + 1) (Circle 41))\n"},
        ])
        program = ModuleBuilder().build(graph).program
        assert program.run("main") == (("Just", 42), ("Circle", 42))


# ---------------------------------------------------------------------------
# info --kinds (golden)
# ---------------------------------------------------------------------------


#: the full prelude kinds listing — a golden pin: additions to the
#: prelude surface must update this constant deliberately.
PRELUDE_KINDS_GOLDEN = """\
type  () :: *
type  (,) :: * -> * -> *
type  (,,) :: * -> * -> * -> *
type  (,,,) :: * -> * -> * -> * -> *
type  -> :: * -> * -> *
type  Bool :: *
type  Char :: *
type  Either :: * -> * -> *
type  Float :: *
type  Int :: *
type  Maybe :: * -> *
type  Ordering :: *
type  [] :: * -> *
class Applicative :: (* -> *) -> Constraint
class Bounded :: * -> Constraint
class Enum :: * -> Constraint
class Eq :: * -> Constraint
class Fractional :: * -> Constraint
class Functor :: (* -> *) -> Constraint
class Monad :: (* -> *) -> Constraint
class Num :: * -> Constraint
class Ord :: * -> Constraint
class Text :: * -> Constraint"""


class TestKindsListing:
    def test_prelude_listing_is_golden(self, prelude_program):
        assert prelude_program.kinds_listing() == PRELUDE_KINDS_GOLDEN

    def test_user_declarations_appear(self):
        program = compile_source(
            "data Compose f g a = Compose (f (g a))\n"
            "class Collapse c where\n  collapse :: c a -> Maybe a\n")
        listing = program.kinds_listing()
        assert "type  Compose :: (* -> *) -> (* -> *) -> * -> *" in listing
        assert "class Collapse :: (* -> *) -> Constraint" in listing

    def test_cli_info_kinds(self, capsys):
        from repro.cli import main
        assert main(["info", "--kinds"]) == 0
        out = capsys.readouterr().out
        assert "class Functor :: (* -> *) -> Constraint" in out

    def test_service_info_kinds(self):
        from repro.service.server import CompileService
        service = CompileService(CompilerOptions())
        reply = service.handle({"id": 1, "op": "info", "kinds": True,
                                "source": "v = 1\n"})
        assert reply["ok"], reply
        assert "class Monad :: (* -> *) -> Constraint" \
            in reply["result"]["kinds"]
