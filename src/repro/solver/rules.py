"""Multi-parameter instance matching, and the static checks that keep
the instance rules well-behaved.

Read as CHR (Glynn/Stuckey/Sulzmann), a multi-parameter
``instance ctx => C p1 ... pn`` (each ``p`` a bare variable or a
depth-1 constructor application) is the simplification rule
``C p1 ... pn <=> ctx``.  Multi-parameter constraints never enter a
type variable's context, so the context-reduction engine
(:mod:`repro.solver`) never sees them: placeholder resolution matches
them structurally with :func:`match_mp_instance`.

Static checks (Bottu et al., *Coherence of Type Class Resolution*)
------------------------------------------------------------------

* **Overlap** (confluence): two simplification rules for one class must
  not both match some goal, or resolution would depend on rule order.
  Single-parameter heads are ``(class, tycon)``-unique already
  (``static.duplicate-instance``); for multi-parameter heads,
  :func:`check_mp_instance` rejects any pair of instances whose
  patterns unify position-wise — ``solver.overlap``.
* **Termination**: a rule must shrink its goal.  A head position headed
  by a constructor strictly decreases (contexts may only constrain the
  *variables* of the head), so the only dangerous shape is a rule whose
  every head position is a bare variable while its body is non-empty —
  rejected as ``solver.nonterminating``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SolverNonterminatingError, SolverOverlapError
from repro.core.classes import ClassEnv, MPInstanceInfo
from repro.core.types import TyCon, Type, prune, spine


# --------------------------------------------------------------------------
# Multi-parameter instance matching
# --------------------------------------------------------------------------

def match_mp_instance(class_env: ClassEnv, class_name: str,
                      types: List[Type]
                      ) -> Optional[Tuple[MPInstanceInfo, List[Type]]]:
    """The simplification rule matching ``class_name types``, with the
    types bound to the rule's head variables.

    Returns ``(instance, bindings)`` where ``bindings[i]`` is the type
    the instance's variable *i* matched, or ``None`` when no rule head
    matches.  The overlap check guarantees at most one rule matches, so
    first-match is exhaustive search.
    """
    for info in class_env.mp_instances_of(class_name):
        bindings: List[Optional[Type]] = [None] * info.n_vars
        ok = True
        for pattern, ty in zip(info.patterns, types):
            tycon, var_idxs = pattern
            ty = prune(ty)
            if tycon is None:
                bindings[var_idxs[0]] = ty
                continue
            head, args = spine(ty)
            if not isinstance(head, TyCon) or head.name != tycon \
                    or len(args) != len(var_idxs):
                ok = False
                break
            for idx, arg in zip(var_idxs, args):
                bindings[idx] = arg
        if ok:
            return info, [b for b in bindings if b is not None]
    return None


# --------------------------------------------------------------------------
# Static confluence / termination checks
# --------------------------------------------------------------------------

def _patterns_overlap(a: MPInstanceInfo, b: MPInstanceInfo) -> bool:
    """Whether some goal could match both heads.  Head variables are
    distinct per instance, so two positions unify iff either is a bare
    variable or both name the same constructor."""
    for (tycon_a, _), (tycon_b, _) in zip(a.patterns, b.patterns):
        if tycon_a is None or tycon_b is None:
            continue
        if tycon_a != tycon_b:
            return False
    return True


def check_mp_instance(class_env: ClassEnv, info: MPInstanceInfo) -> None:
    """Reject *info* if its simplification rule breaks confluence or
    termination of the instance rules (run before registration)."""
    if info.context and all(t is None for t, _ in info.patterns):
        raise SolverNonterminatingError(
            f"instance {info.class_name} {info.head_str()} does not "
            f"terminate: every head position is a bare type variable but "
            f"the instance context is non-empty, so the simplification "
            f"rule never shrinks its goal", info.pos)
    for existing in class_env.mp_instances_of(info.class_name):
        if _patterns_overlap(existing, info):
            raise SolverOverlapError(
                f"overlapping instances for class {info.class_name}: "
                f"head {info.head_str()} overlaps the earlier instance "
                f"head {existing.head_str()}; resolution would not be "
                f"confluent", info.pos)


__all__ = ["match_mp_instance", "check_mp_instance"]
