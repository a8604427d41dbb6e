"""Context reduction: the one constraint-solving engine (docs/SOLVER.md).

The paper's section 5 reduces contexts with a recursive
``propagateClasses``/``propagateClassTycon`` pair.  *Type Classes and
Constraint Handling Rules* (Glynn, Stuckey & Sulzmann) reads class and
instance declarations as a CHR program whose solver *is* that
reduction:

* ``class C => D a`` is a *propagation* rule ``D a ==> C a``.  It fires
  through superclass compaction when a goal reaches an unbound variable
  (``ClassEnv.add_constraint`` drops a constraint a stored one implies
  and evicts stored constraints the new one implies).
* ``instance (C1 a1, ...) => C (T a1 ... ak)`` is a *simplification*
  rule ``C (T a1 ... ak) <=> C1 a1, ...``: a goal whose type is headed
  by ``T`` is replaced by the instance's context, one new goal per
  context constraint.

:class:`ReduceSolver` runs that program over an explicit **goal store**
— a stack of pending ``(class, type)`` goals — until the store is
empty.  Goals are pushed so that they fire in the recursive reduction's
depth-first order (coherence makes any fair order give the same
dictionaries; this one keeps errors and the unifier's counters in the
paper's order).  The loop needs no Python stack and is bounded by
``DEFAULT_SOLVER_FUEL`` (one unit per goal popped): exhaustion raises a
located :class:`~repro.errors.ResourceLimitError` like every other
budget.

Multi-parameter constraints never reach the engine: they stay on
placeholders and resolve through the instance table's one matcher
(:meth:`~repro.core.classes.ClassEnv.match_instance`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.types import TyCon, TyVar, prune, spine, type_str
from repro.errors import (
    NoInstanceError,
    ResourceLimitError,
    SourcePos,
    UnificationError,
)
from repro.limits import DEFAULT_SOLVER_FUEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.types import Type
    from repro.core.unify import Unifier


class ReduceSolver:
    """Section 5 context reduction over an explicit goal store."""

    def __init__(self, fuel: int = DEFAULT_SOLVER_FUEL) -> None:
        self.fuel = fuel

    def solve(self, unifier: "Unifier", classes: List[str], ty: "Type",
              pos: Optional[SourcePos]) -> None:
        """Discharge the constraints ``classes`` on ``ty``: attach them
        to unbound variables' contexts, reducing every constructor-
        headed goal through the instance table."""
        # LIFO with children pushed in reverse: goals fire in the
        # recursive reduction's depth-first preorder.
        store = [(cls, ty) for cls in reversed(classes)]
        fuel = self.fuel
        class_env = unifier.class_env
        while store:
            if fuel == 0:
                raise ResourceLimitError(
                    f"context reduction exhausted its rule-application "
                    f"budget ({self.fuel}); the constraint derivation does "
                    f"not terminate within the solver fuel", pos,
                    limit="solver_fuel")
            fuel -= 1
            cls, goal = store.pop()
            goal = prune(goal)
            if isinstance(goal, TyVar):
                unifier.attach_var_constraint(cls, goal, pos)
                continue
            # Constructor case (the paper's propagateClassTycon): the one
            # instance for (class, tycon) replaces the goal by its context.
            unifier.context_reduction_count += 1
            head, args = spine(goal)
            if not isinstance(head, TyCon):
                # No instances over partially known constructors, as in
                # Haskell 1.2.
                raise UnificationError(
                    f"cannot reduce context {cls} {type_str(goal)}: the "
                    f"type's head is not a known constructor", pos)
            info = class_env.get_instance(head.name, cls)
            if info is None:
                raise NoInstanceError(cls, type_str(goal), pos)
            contexts = info.context
            # For a well-kinded goal the spine length always equals the
            # instance's context-slot count, higher-kinded instances
            # included: the goal's kind pins how far the constructor is
            # applied.  Defensive check only (an ill-kinded goal could
            # arrive through a stale interface).
            if len(contexts) != len(args):
                raise UnificationError(
                    f"instance {cls} {head.name} expects {len(contexts)} "
                    f"type argument(s) but the constrained type "
                    f"{type_str(goal)} has {len(args)}", pos)
            body = [(c, arg) for class_set, arg in zip(contexts, args)
                    for c in class_set]
            store.extend(reversed(body))


__all__ = ["ReduceSolver"]
