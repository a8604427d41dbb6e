"""E9 — the cost of context reduction inside unification (§5, §9).

    "A minor increase in the cost of unification and the placement and
    resolution of placeholders make up the majority of the extra
    processing required for type classes."

Workload: unify ``Eq a => a`` against the d-fold nested list type
``[[...[Int]...]]``.  Context reduction must walk the instance chain
once per nesting level, so the step count is exactly linear in d — a
predictable, minor cost, which is the claim.
"""

import pytest

from benchmarks.conftest import record
from repro.core.classes import ClassEnv, ClassInfo, InstanceInfo
from repro.core.kinds import STAR
from repro.core.types import T_INT, TyVar, list_type
from repro.core.unify import Unifier


def env() -> ClassEnv:
    e = ClassEnv()
    e.add_class(ClassInfo("Eq", []))
    e.add_instance(InstanceInfo("Eq", [("Int", ())], []))
    e.add_instance(InstanceInfo("Eq", [("[]", (0,))], [STAR],
                                [("Eq", (0,))]))
    return e


def nested(depth: int):
    ty = T_INT
    for _ in range(depth):
        ty = list_type(ty)
    return ty


DEPTHS = [5, 20, 80]


@pytest.mark.parametrize("depth", DEPTHS)
def test_e9_reduction_scaling(benchmark, depth):
    class_env = env()

    def go():
        unifier = Unifier(class_env)
        var = TyVar()
        var.context.add("Eq")
        unifier.unify(var, nested(depth))
        return unifier

    unifier = benchmark(go)
    record("E9 context reduction", f"depth={depth}",
           reductions=unifier.context_reduction_count,
           unifications=unifier.unify_count)


def test_e9_shape():
    counts = []
    for depth in DEPTHS:
        unifier = Unifier(env())
        var = TyVar()
        var.context.add("Eq")
        unifier.unify(var, nested(depth))
        counts.append(unifier.context_reduction_count)
    # Exactly linear: one reduction per nesting level plus one for Int.
    for depth, count in zip(DEPTHS, counts):
        assert count == depth + 1
    record("E9 context reduction", "series",
           **{f"d{d}": c for d, c in zip(DEPTHS, counts)})


def test_e9_unconstrained_unification_pays_nothing(benchmark):
    """The flip side: unification without contexts does zero context
    reduction — the cost is only paid where overloading exists."""
    class_env = env()

    def go():
        unifier = Unifier(class_env)
        var = TyVar()
        unifier.unify(var, nested(60))
        return unifier

    unifier = benchmark(go)
    assert unifier.context_reduction_count == 0
    record("E9 context reduction", "no context, depth=60",
           reductions=unifier.context_reduction_count)
