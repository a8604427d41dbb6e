"""Property-based tests (hypothesis) on the core invariants:

* unification really unifies (and is symmetric in failure);
* context propagation never loses constraints;
* compiled programs agree with Python reference semantics for
  arithmetic, comparison, sorting and list processing over random data;
* show/read round-trips on random values;
* the pattern-match compiler agrees with direct evaluation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.core.classes import ClassEnv, ClassInfo, InstanceInfo
from repro.core.kinds import STAR
from repro.core.types import (
    T_BOOL,
    T_CHAR,
    T_INT,
    TyApp,
    TyCon,
    TyVar,
    fn_type,
    list_type,
    prune,
    tuple_type,
)
from repro.core.unify import Unifier
from repro.errors import ReproError


# --------------------------------------------------------------------------
# Random semantic types
# --------------------------------------------------------------------------

def class_env():
    env = ClassEnv()
    env.add_class(ClassInfo("Eq", []))
    env.add_instance(InstanceInfo("Eq", [("Int", ())], []))
    env.add_instance(InstanceInfo("Eq", [("Char", ())], []))
    env.add_instance(InstanceInfo("Eq", [("Bool", ())], []))
    env.add_instance(InstanceInfo("Eq", [("[]", (0,))], [STAR],
                                  [("Eq", (0,))]))
    env.add_instance(InstanceInfo("Eq", [("(,)", (0, 1))], [STAR, STAR],
                                  [("Eq", (0,)), ("Eq", (1,))]))
    return env


def types(max_vars=3):
    base = st.sampled_from([T_INT, T_BOOL, T_CHAR])

    def extend(children):
        return st.one_of(
            st.builds(list_type, children),
            st.builds(lambda a, b: tuple_type([a, b]), children, children),
            st.builds(fn_type, children, children),
        )

    return st.recursive(base, extend, max_leaves=8)


def types_equal(a, b) -> bool:
    a, b = prune(a), prune(b)
    if isinstance(a, TyVar) or isinstance(b, TyVar):
        return a is b
    if isinstance(a, TyCon) and isinstance(b, TyCon):
        return a.name == b.name
    if isinstance(a, TyApp) and isinstance(b, TyApp):
        return types_equal(a.fn, b.fn) and types_equal(a.arg, b.arg)
    return False


class TestUnificationProperties:
    @settings(max_examples=100, deadline=None)
    @given(types())
    def test_unify_with_self(self, ty):
        Unifier(class_env()).unify(ty, ty)

    @settings(max_examples=100, deadline=None)
    @given(types())
    def test_variable_binds_to_anything(self, ty):
        v = TyVar()
        Unifier(class_env()).unify(v, ty)
        assert types_equal(prune(v), ty)

    @settings(max_examples=100, deadline=None)
    @given(types(), types())
    def test_unification_makes_types_equal_or_fails(self, a, b):
        u = Unifier(class_env())
        try:
            u.unify(a, b)
        except ReproError:
            return
        assert types_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(types(), types())
    def test_failure_is_symmetric(self, a, b):
        import copy
        u1 = Unifier(class_env())
        u2 = Unifier(class_env())
        a1, b1 = copy.deepcopy(a), copy.deepcopy(b)
        ok_ab = True
        try:
            u1.unify(a, b)
        except ReproError:
            ok_ab = False
        ok_ba = True
        try:
            u2.unify(b1, a1)
        except ReproError:
            ok_ba = False
        assert ok_ab == ok_ba

    @settings(max_examples=60, deadline=None)
    @given(types())
    def test_context_reduction_total_or_error(self, ty):
        """Propagating Eq over any type either fully reduces (leaving
        Eq only on variables) or raises NoInstanceError (functions)."""
        u = Unifier(class_env())
        v = TyVar()
        v.context.add("Eq")
        try:
            u.unify(v, ty)
        except ReproError:
            return
        # all residual context sits on variables only
        from repro.core.types import type_variables
        for var in type_variables(ty):
            assert set(var.context) <= {"Eq"}


# --------------------------------------------------------------------------
# Compiled-program semantics vs Python reference
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prog():
    return compile_source("")


small_ints = st.integers(min_value=-1000, max_value=1000)


class TestCompiledSemantics:
    @settings(max_examples=40, deadline=None)
    @given(small_ints, small_ints)
    def test_arithmetic(self, prog, a, b):
        assert prog.eval(f"({a}) + ({b})") == a + b
        assert prog.eval(f"({a}) * ({b})") == a * b
        assert prog.eval(f"({a}) - ({b})") == a - b

    @settings(max_examples=40, deadline=None)
    @given(small_ints, small_ints)
    def test_comparisons(self, prog, a, b):
        assert prog.eval(f"({a}) == ({b})") == (a == b)
        assert prog.eval(f"({a}) < ({b})") == (a < b)
        assert prog.eval(f"max ({a}) ({b})") == max(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(small_ints, max_size=15))
    def test_sort_matches_python(self, prog, xs):
        assert prog.eval(f"sort {haskell_list(xs)}") == sorted(xs)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(small_ints, max_size=15))
    def test_reverse_length_sum(self, prog, xs):
        lit = haskell_list(xs)
        assert prog.eval(f"reverse {lit}") == list(reversed(xs))
        assert prog.eval(f"length {lit}") == len(xs)
        assert prog.eval(f"sum {lit}") == sum(xs)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(small_ints, max_size=12), small_ints)
    def test_member_matches_python(self, prog, xs, x):
        assert prog.eval(f"member ({x}) {haskell_list(xs)}") == (x in xs)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(small_ints, max_size=10),
           st.lists(small_ints, max_size=10))
    def test_list_equality_is_structural(self, prog, xs, ys):
        assert prog.eval(
            f"{haskell_list(xs)} == {haskell_list(ys)}") == (xs == ys)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(small_ints, max_size=4), max_size=5))
    def test_nested_list_ordering(self, prog, xss):
        assert prog.eval(f"sort {haskell_nested(xss)}") == sorted(xss)


class TestShowReadRoundtrip:
    @settings(max_examples=30, deadline=None)
    @given(small_ints)
    def test_int_roundtrip(self, prog, n):
        assert prog.eval(f"(read (show ({n})) :: Int)") == n

    @settings(max_examples=25, deadline=None)
    @given(st.lists(small_ints, max_size=8))
    def test_list_roundtrip(self, prog, xs):
        lit = haskell_list(xs)
        assert prog.eval(f"(read (show {lit}) :: [Int])") == xs

    @settings(max_examples=25, deadline=None)
    @given(small_ints, small_ints)
    def test_pair_roundtrip(self, prog, a, b):
        assert prog.eval(
            f"(read (show (({a}), ({b}))) :: (Int, Int))") == (a, b)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(small_ints, st.booleans()), max_size=5))
    def test_mixed_roundtrip(self, prog, pairs):
        lit = "([" + ", ".join(
            f"(({a}), {str(b)})" for a, b in pairs) + "] :: [(Int, Bool)])"
        assert prog.eval(f"(read (show {lit}) :: [(Int, Bool)])") \
            == [(a, b) for a, b in pairs]


class TestPatternMatchingProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(small_ints, min_size=0, max_size=8), small_ints)
    def test_take_drop_partition(self, prog, xs, n):
        lit = haskell_list(xs)
        n = abs(n) % (len(xs) + 2)
        taken = prog.eval(f"take {n} {lit}")
        dropped = prog.eval(f"drop {n} {lit}")
        assert taken + dropped == xs

    @settings(max_examples=25, deadline=None)
    @given(st.lists(small_ints, max_size=8),
           st.lists(small_ints, max_size=8))
    def test_zip_unzip(self, prog, xs, ys):
        n = min(len(xs), len(ys))
        zipped = prog.eval(f"zip {haskell_list(xs)} {haskell_list(ys)}")
        assert zipped == list(zip(xs[:n], ys[:n]))


class TestDerivedInstanceProperties:
    """Random enumeration types: the derived Eq/Ord/Text/Enum/Bounded
    instances must agree with the constructor-order semantics."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_derived_semantics_on_random_enum(self, n_cons, data):
        names = [f"K{i}" for i in range(n_cons)]
        decl = (f"data E = {' | '.join(names)} "
                f"deriving (Eq, Ord, Text, Bounded, Enum)\n")
        i = data.draw(st.integers(0, n_cons - 1))
        j = data.draw(st.integers(0, n_cons - 1))
        program = compile_source(
            decl + f"main = ( {names[i]} == {names[j]}"
                   f"       , {names[i]} <= {names[j]}"
                   f"       , show {names[i]}"
                   f"       , fromEnum {names[j]}"
                   f"       , (read \"{names[i]}\" :: E) == {names[i]}"
                   f"       , show (maxBound :: E))")
        eq, le, shown, idx, reread, top = program.run("main")
        assert eq == (i == j)
        assert le == (i <= j)
        assert shown == names[i]
        assert idx == j
        assert reread is True
        assert top == names[-1]

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    def test_derived_sort_matches_tag_order(self, tags):
        decl = ("data E = K0 | K1 | K2 | K3 | K4 "
                "deriving (Eq, Ord, Text)\n")
        values = ", ".join(f"K{t}" for t in tags)
        program = compile_source(decl + f"main = show (sort [{values}])")
        expected = "[" + ", ".join(f"K{t}" for t in sorted(tags)) + "]"
        assert program.run("main") == expected


def haskell_list(xs) -> str:
    # Annotated so the element type stays unambiguous for empty lists —
    # an unannotated `sort []` is ambiguous, exactly as in Haskell.
    body = "[" + ", ".join(f"({x})" if x < 0 else str(x) for x in xs) + "]"
    return f"({body} :: [Int])"


def haskell_nested(xss) -> str:
    body = "[" + ", ".join(
        "[" + ", ".join(f"({x})" if x < 0 else str(x) for x in xs) + "]"
        for xs in xss) + "]"
    return f"({body} :: [[Int]])"
