"""Tests for the class environment: the instance 4-tuples of section 4,
superclass machinery and the dictionary layouts of section 8.1."""

import pytest

from repro import compile_source
from repro.core.classes import (
    FLAT,
    NESTED,
    ClassEnv,
    ClassInfo,
    InstanceInfo,
    MethodInfo,
)
from repro.core.kinds import STAR
from repro.core.types import Pred, Scheme, T_BOOL, TyGen, fn_types
from repro.errors import (
    DuplicateInstanceError,
    LintShadowError,
    StaticError,
    UnificationError,
)


def method(name, index):
    g = TyGen(0)
    return MethodInfo(name, Scheme([STAR], [Pred("C", TyGen(0))],
                                   fn_types([g, g], T_BOOL)), index)


def hierarchy(layout=NESTED, single_slot=True) -> ClassEnv:
    env = ClassEnv(layout=layout, single_slot_opt=single_slot)
    env.add_class(ClassInfo("Eq", [], methods=[method("==", 0),
                                               method("/=", 1)]))
    env.add_class(ClassInfo("Text", [], methods=[method("show", 0)]))
    env.add_class(ClassInfo("Ord", ["Eq"], methods=[method("compare", 0),
                                                    method("<", 1)]))
    env.add_class(ClassInfo("Num", ["Eq", "Text"],
                            methods=[method("+", 0)]))
    env.add_class(ClassInfo("Real", ["Num", "Ord"],
                            methods=[method("toR", 0)]))
    return env


class TestRegistry:
    def test_duplicate_class_rejected(self):
        env = hierarchy()
        with pytest.raises(StaticError):
            env.add_class(ClassInfo("Eq", []))

    def test_unknown_superclass_rejected(self):
        env = ClassEnv()
        with pytest.raises(StaticError):
            env.add_class(ClassInfo("Ord", ["Eq"]))

    def test_method_in_two_classes_rejected(self):
        env = hierarchy()
        with pytest.raises(StaticError):
            env.add_class(ClassInfo("Other", [], methods=[method("==", 0)]))

    def test_method_owner(self):
        env = hierarchy()
        assert env.owner_of_method("==") == "Eq"
        assert env.owner_of_method("compare") == "Ord"
        assert env.owner_of_method("nope") is None

    def test_unknown_class_error(self):
        with pytest.raises(StaticError):
            hierarchy().class_info("Monoid")


class TestSuperclasses:
    def test_transitive(self):
        env = hierarchy()
        assert set(env.supers_transitive("Real")) == {"Num", "Ord", "Eq",
                                                      "Text"}

    def test_implies(self):
        env = hierarchy()
        assert env.implies("Ord", "Eq")
        assert env.implies("Real", "Text")
        assert env.implies("Eq", "Eq")
        assert not env.implies("Eq", "Ord")

    def test_superclass_path_direct(self):
        env = hierarchy()
        assert env.superclass_path("Ord", "Eq") == [("Ord", "Eq")]

    def test_superclass_path_two_hops(self):
        env = hierarchy()
        path = env.superclass_path("Real", "Text")
        assert path == [("Real", "Num"), ("Num", "Text")]

    def test_superclass_path_none(self):
        env = hierarchy()
        assert env.superclass_path("Eq", "Ord") is None

    def test_context_compaction(self):
        env = hierarchy()
        from repro.util.orderedset import OrderedSet
        ctx = OrderedSet(["Eq", "Text"])
        changed = env.add_constraint(ctx, "Num")
        assert changed
        assert list(ctx) == ["Num"]

    def test_no_change_when_implied(self):
        env = hierarchy()
        from repro.util.orderedset import OrderedSet
        ctx = OrderedSet(["Real"])
        assert not env.add_constraint(ctx, "Eq")
        assert list(ctx) == ["Real"]


class TestInstances:
    def test_duplicate_instance_rejected(self):
        env = hierarchy()
        env.add_instance(InstanceInfo("Eq", [("Int", ())], []))
        with pytest.raises(DuplicateInstanceError):
            env.add_instance(InstanceInfo("Eq", [("Int", ())], []))

    def test_instance_for_unknown_class_rejected(self):
        env = hierarchy()
        with pytest.raises(StaticError):
            env.add_instance(InstanceInfo("Monoid", [("Int", ())], []))

    def test_find_instance_context(self):
        env = hierarchy()
        env.add_instance(InstanceInfo("Eq", [("[]", (0,))], [STAR],
                                      [("Eq", (0,))]))
        assert env.find_instance_context("[]", "Eq") == [["Eq"]]

    def test_find_instance_context_missing(self):
        from repro.errors import NoInstanceError
        env = hierarchy()
        with pytest.raises(NoInstanceError):
            env.find_instance_context("Int", "Eq")

    def test_dict_param_preds_arg_major(self):
        info = InstanceInfo("Eq", [("T", (0, 1, 2))], [STAR, STAR, STAR],
                            [("Text", (2,)), ("Eq", (0,)), ("Ord", (0,))])
        assert info.preds == [("Eq", (0,)), ("Ord", (0,)), ("Text", (2,))]
        assert info.context == [["Eq", "Ord"], [], ["Text"]]
        assert info.n_dict_params == 3

    # A user type ``List`` gives the same dictionary name as the
    # built-in ``[]`` (``d$Eq$List``); its instance is its own all the
    # same, compiled and checked, and the clash of the two compiled
    # instances is an error, not one of them silently answering for
    # both (generated names are not yet injective: ROADMAP item 1).

    def test_instance_for_user_list_type_collides_loudly(self):
        with pytest.raises(LintShadowError) as err:
            compile_source(
                "data List a = Nil | Cons a (List a) deriving Eq\n"
                "main = (Cons 1 Nil == Cons 1 Nil, Cons 1 Nil == Cons 2 Nil)")
        assert "d$Eq$List" in str(err.value)

    def test_instance_for_user_list_type_is_checked(self):
        with pytest.raises(UnificationError) as err:
            compile_source(
                "data List a = Nil | Cons a (List a)\n"
                "instance Eq a => Eq (List a) where\n"
                "  x == y = 'c'\n"
                "main = Cons 1 Nil == Cons 1 Nil\n")
        assert (err.value.pos.line, err.value.pos.column) == (3, 3)


class TestNestedLayout:
    def test_slots_supers_then_methods(self):
        env = hierarchy(single_slot=False)
        slots = env.dict_slots("Ord")
        assert slots == [("super", "Ord", "Eq"),
                         ("method", "Ord", "compare"),
                         ("method", "Ord", "<")]

    def test_method_slot(self):
        env = hierarchy(single_slot=False)
        assert env.method_slot("Ord", "compare") == 1
        assert env.method_slot("Ord", "==") is None  # inherited

    def test_super_slot(self):
        env = hierarchy(single_slot=False)
        assert env.super_slot("Ord", "Eq") == 0

    def test_method_access_path_inherited(self):
        env = hierarchy(single_slot=False)
        hops, owner = env.method_access_path("Real", "show")
        assert hops == [("Real", "Num"), ("Num", "Text")]
        assert owner == "Text"

    def test_method_access_path_own(self):
        env = hierarchy(single_slot=False)
        hops, owner = env.method_access_path("Ord", "compare")
        assert hops == [] and owner == "Ord"

    def test_bare_dict_single_method_no_supers(self):
        env = hierarchy(single_slot=True)
        assert env.uses_bare_dict("Text")
        assert not env.uses_bare_dict("Eq")  # two methods
        assert not env.uses_bare_dict("Ord")  # super + methods

    def test_bare_dict_disabled(self):
        env = hierarchy(single_slot=False)
        assert not env.uses_bare_dict("Text")


class TestFlatLayout:
    def test_all_methods_at_top_level(self):
        env = hierarchy(layout=FLAT, single_slot=False)
        slots = env.dict_slots("Real")
        names = [name for (kind, _o, name) in slots]
        assert set(names) == {"==", "/=", "show", "compare", "<", "+", "toR"}
        assert all(kind == "method" for (kind, _o, _n) in slots)

    def test_own_methods_last(self):
        env = hierarchy(layout=FLAT, single_slot=False)
        slots = env.dict_slots("Ord")
        assert [n for (_k, _o, n) in slots[-2:]] == ["compare", "<"]

    def test_flat_method_slot_for_inherited(self):
        env = hierarchy(layout=FLAT, single_slot=False)
        i = env.flat_method_slot("Ord", "==")
        kind, owner, name = env.dict_slots("Ord")[i]
        assert name == "==" and owner == "Eq"

    def test_flat_selection_is_always_one_step(self):
        env = hierarchy(layout=FLAT, single_slot=False)
        hops, owner = env.method_access_path("Real", "show")
        assert hops == [] and owner == "Real"

    def test_flat_dict_bigger_than_nested(self):
        nested = hierarchy(layout=NESTED, single_slot=False)
        flat = hierarchy(layout=FLAT, single_slot=False)
        assert flat.dict_size("Real") > nested.dict_size("Real")

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            ClassEnv(layout="fancy")
