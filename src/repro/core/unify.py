"""Unification with context propagation, context reduction and
constraint provenance.

This is the paper's section 5, implemented to mirror its pseudocode::

    instantiateTyvar (tyvar, type)
        tyvar.value := type
        propagateClasses (tyvar.context, type)

    propagateClasses (classes, type)
        if tyvar(type) then type.context := union(classes, type.context)
        else for each c in classes
            propagateClassTycon (c, type)

    propagateClassTycon (class, type)
        s = findInstanceContext (type.tycon, class)
        for each classSet in s, typeArg in tycon.args
            propagateClasses (classSet, typeArg)

plus the refinements of sections 8.1 (superclass compaction when adding
constraints to a context) and 8.6 (read-only type variables, which may
be neither instantiated nor given a larger context — violating either
raises :class:`SignatureError` because the program demands more than the
user's signature allows).  The recursion of ``propagateClasses`` and
``propagateClassTycon`` runs as one fuel-bounded loop over an explicit
goal store, :class:`~repro.solver.ReduceSolver`, in the same order.

The :class:`Unifier` counts unifications and context-reduction steps so
that experiment E9 ("a minor increase in the cost of unification",
section 9) can be measured directly.

Provenance (see docs/SERVICE.md, "Multi-location diagnostics")
--------------------------------------------------------------

Every top-level ``unify`` call carries an :class:`Origin` — the source
span that generated the constraint plus the *reason* it exists
(``application``, ``annotation``, ``pattern``, ``defaulting``, ...).
Inside an inference *episode* (:meth:`Unifier.episode`) the unifier:

* logs each constraint as it arrives;
* records every destructive type-variable update on a mutation trail
  (see ``repro.core.types.set_trail``) so the episode can be undone;
* on a :class:`TypeCheckError`, rolls the substitution back and runs a
  deletion-based minimization over the logged constraint set — replay a
  candidate subset, check it still fails, undo, repeat — producing a
  minimal unsatisfiable core in the style of Stuckey/Sulzmann/Wazny's
  type-error diagnosis; the core's origins become the error's
  ``positions`` list.

The rollback also means a *failed* episode leaves the inferencer's
type state exactly as it found it — which is what lets a long-lived
compile service run inference on a shared forked inferencer without a
failed request poisoning later ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.errors import (
    OccursCheckError,
    Provenance,
    ResourceLimitError,
    SignatureError,
    SourcePos,
    TypeCheckError,
    UnificationError,
)
from repro.limits import DEFAULT_TYPE_DEPTH
from repro.core.classes import ClassEnv
from repro.core.types import (
    TyApp,
    TyCon,
    TyVar,
    Type,
    adjust_levels,
    occurs_in,
    prune,
    set_trail,
    type_str,
    undo_trail,
)
from repro.solver import ReduceSolver

#: Constraint-set minimization cap: sets larger than this are not
#: minimized (deletion-based minimization is quadratic in replays); the
#: failing constraint's own origin is reported instead, and the miss is
#: counted as ``provenance.minimize-capped``.  An ill-typed program of
#: perfbench's ``compile`` workload logs 2–6 constraints.
DEFAULT_MINIMIZE_CAP = 300


@dataclass(frozen=True)
class Origin:
    """Where a constraint came from: a source span plus the reason the
    inferencer generated it."""

    pos: Optional[SourcePos]
    reason: str = "unification"


class Constraint:
    """One logged top-level constraint, replayable for minimization."""

    __slots__ = ("t1", "t2", "origin")

    def __init__(self, t1: Type, t2: Type, origin: Origin) -> None:
        self.t1 = t1
        self.t2 = t2
        self.origin = origin

    def __repr__(self) -> str:
        return (f"Constraint({type_str(self.t1)} ~ {type_str(self.t2)}, "
                f"{self.origin.reason})")


class Unifier:
    """Unification engine bound to one class environment."""

    def __init__(self, class_env: ClassEnv,
                 max_depth: int = DEFAULT_TYPE_DEPTH,
                 provenance: bool = True,
                 minimize_cap: int = DEFAULT_MINIMIZE_CAP) -> None:
        self.class_env = class_env
        self.max_depth = max_depth
        #: the context-reduction engine behind propagate_classes
        self.solver = ReduceSolver()
        #: minimization budget (DEFAULT_MINIMIZE_CAP)
        self.minimize_cap = minimize_cap
        #: how often a type error's constraint set exceeded the cap and
        #: skipped minimization (the provenance.minimize-capped counter)
        self.minimize_capped_count = 0
        self.unify_count = 0
        self.context_reduction_count = 0
        self.constraint_propagations = 0
        #: constraint provenance + episode rollback on/off
        #: (options.constraint_provenance)
        self.provenance = provenance
        #: mutation trail; a list only while inside an episode
        self._trail: Optional[list] = None
        #: constraints logged by the episodes currently on the stack
        self._log: List[Constraint] = []
        self._episode_depth = 0
        #: True while replaying constraints for minimization (suppresses
        #: logging and failing-constraint capture)
        self._minimizing = False
        #: the constraint whose replay raised, when known
        self._failing: Optional[Constraint] = None
        #: last real span seen at a public entry point — the fallback
        #: for callers that pass pos=None, so unify-path errors always
        #: carry *some* position
        self._nearest_pos: Optional[SourcePos] = None

    # ----------------------------------------------------------- episodes

    @contextmanager
    def episode(self) -> Iterator[None]:
        """Run one inference unit with provenance tracking.

        On a :class:`TypeCheckError` the episode's constraint set is
        minimized into the error's ``positions``, then every type-
        variable mutation the episode made is undone and its log
        truncated; on success (outermost exit) the trail and log are
        simply dropped.  Episodes nest: an inner failure explains and
        rolls back its own slice, and the outer episode then rolls back
        the rest without re-explaining (``_explained`` guard).
        """
        if not self.provenance:
            yield
            return
        if self._episode_depth == 0:
            self._trail = []
            # Positions from a previous unit must not leak into this
            # one's nearest-span fallback (a long-lived service checks
            # many unrelated programs on one forked inferencer).
            self._nearest_pos = None
        self._episode_depth += 1
        trail = self._trail
        assert trail is not None
        trail_mark = len(trail)
        log_mark = len(self._log)
        prev = set_trail(trail)
        try:
            yield
        except TypeCheckError as exc:
            if not getattr(exc, "_explained", False):
                exc._explained = True
                self._explain(exc, trail_mark, log_mark)
            undo_trail(trail, trail_mark)
            del self._log[log_mark:]
            raise
        except Exception:
            # Non-type errors (resource budgets, static errors raised
            # mid-inference) get no constraint analysis, but the
            # episode's substitutions are still rolled back so a shared
            # inferencer is not left half-mutated.
            undo_trail(trail, trail_mark)
            del self._log[log_mark:]
            raise
        finally:
            set_trail(prev)
            self._episode_depth -= 1
            if self._episode_depth == 0:
                self._trail = None
                self._log.clear()
                self._failing = None

    # ------------------------------------------------------------- unify

    def unify(self, t1: Type, t2: Type, pos: Optional[SourcePos] = None,
              reason: str = "unification") -> None:
        """Make *t1* and *t2* equal, or raise.

        Structural decomposition runs on an explicit worklist (one pop
        per pair, preserving the recursive version's depth-first order
        and ``unify_count``), so arbitrarily deep types cannot overflow
        the Python stack; the worklist itself is budgeted by
        ``max_type_depth``.
        """
        if pos is None:
            pos = self._nearest_pos
        else:
            self._nearest_pos = pos
        constraint: Optional[Constraint] = None
        if self._trail is not None and not self._minimizing:
            constraint = Constraint(t1, t2, Origin(pos, reason))
            self._log.append(constraint)
        try:
            self._unify(t1, t2, pos)
        except TypeCheckError:
            if constraint is not None and self._failing is None:
                self._failing = constraint
            raise

    def try_unify(self, t1: Type, t2: Type, pos: Optional[SourcePos] = None,
                  reason: str = "defaulting") -> bool:
        """Attempt a unification; True on success.

        With a trail active (inside an episode) a failed attempt is
        rolled back completely and its constraint dropped from the log,
        so speculation — defaulting tries each candidate type in turn —
        neither leaves partial substitutions behind nor plants a
        constraint that would misdirect a later minimization."""
        trail = self._trail
        trail_mark = len(trail) if trail is not None else 0
        log_mark = len(self._log)
        failing = self._failing
        try:
            self.unify(t1, t2, pos, reason)
            return True
        except TypeCheckError:
            if trail is not None:
                undo_trail(trail, trail_mark)
            del self._log[log_mark:]
            self._failing = failing
            return False

    def _unify(self, t1: Type, t2: Type, pos: Optional[SourcePos]) -> None:
        max_depth = self.max_depth
        stack = [(t1, t2)]
        while stack:
            if max_depth and len(stack) > max_depth:
                raise ResourceLimitError(
                    f"unification worklist exceeded max_type_depth "
                    f"({max_depth}); raise it for very large types",
                    pos,
                    limit="max_type_depth",
                )
            t1, t2 = stack.pop()
            self.unify_count += 1
            t1 = prune(t1)
            t2 = prune(t2)
            if t1 is t2:
                continue
            if isinstance(t1, TyVar):
                if isinstance(t2, TyVar):
                    self._link_vars(t1, t2, pos)
                    continue
                self.instantiate_tyvar(t1, t2, pos)
                continue
            if isinstance(t2, TyVar):
                self.instantiate_tyvar(t2, t1, pos)
                continue
            if isinstance(t1, TyCon) and isinstance(t2, TyCon):
                if t1.name == t2.name:
                    continue
                raise UnificationError(
                    f"cannot unify {type_str(t1)} with {type_str(t2)}", pos)
            if isinstance(t1, TyApp) and isinstance(t2, TyApp):
                # Push arg first so the fn pair is popped (and unified)
                # first, matching the old recursive order.
                stack.append((t1.arg, t2.arg))
                stack.append((t1.fn, t2.fn))
                continue
            raise UnificationError(
                f"cannot unify {type_str(t1)} with {type_str(t2)}", pos)

    def _link_vars(self, a: TyVar, b: TyVar, pos: Optional[SourcePos]) -> None:
        """Unify two distinct unbound variables."""
        # Prefer to keep a read-only variable as the representative, so
        # that instantiating the other side is what gets checked.
        if a.read_only and b.read_only:
            raise SignatureError(
                "type signature is too general: it requires two signature "
                "variables to be identical", pos)
        if a.read_only:
            a, b = b, a  # instantiate the flexible one (now 'a')
        # a := b ; push a's context onto b, keep the shallower level.
        trail = self._trail
        if b.level > a.level:
            if trail is not None:
                trail.append(("level", b, b.level))
            b.level = a.level
        if trail is not None:
            trail.append(("value", a, a.value))
        a.value = b
        if a.context:
            self.propagate_classes(list(a.context), b, pos)

    def instantiate_tyvar(self, tyvar: TyVar, ty: Type,
                          pos: Optional[SourcePos] = None) -> None:
        """The paper's ``instantiateTyvar`` with occurs/level/read-only
        checks added."""
        if pos is None:
            pos = self._nearest_pos
        if tyvar.read_only:
            raise SignatureError(
                f"type signature is too general: signature variable "
                f"'{tyvar.name}' would have to be {type_str(ty)}", pos)
        if occurs_in(tyvar, ty):
            raise OccursCheckError(
                f"cannot construct the infinite type "
                f"{tyvar.name} = {type_str(ty)}", pos)
        adjust_levels(tyvar.level, ty)
        if self._trail is not None:
            self._trail.append(("value", tyvar, tyvar.value))
        tyvar.value = ty
        if tyvar.context:
            self.propagate_classes(list(tyvar.context), ty, pos)

    # ------------------------------------------------ context propagation

    def propagate_classes(self, classes: Iterable[str], ty: Type,
                          pos: Optional[SourcePos] = None) -> None:
        """The paper's ``propagateClasses`` and ``propagateClassTycon``:
        context reduction by :class:`~repro.solver.ReduceSolver`."""
        if pos is None:
            pos = self._nearest_pos
        self.solver.solve(self, list(classes), ty, pos)

    def attach_var_constraint(self, cls: str, ty: TyVar,
                              pos: Optional[SourcePos]) -> None:
        """Attach one class constraint to an unbound type variable —
        context reduction's variable case.  Read-only variables
        (section 8.6) may not grow their context; flexible ones take
        the constraint with superclass compaction, trail-snapshotted so
        a failing episode rolls it back."""
        self.constraint_propagations += 1
        if ty.read_only:
            if self.class_env.context_implied_by(ty.context, cls) is None:
                raise SignatureError(
                    f"the inferred context requires {cls} "
                    f"{ty.name}, which the type signature does "
                    f"not provide", pos)
            return
        # Snapshot the context before superclass compaction mutates it
        # (add_constraint both removes and adds).
        if self._trail is not None:
            self._trail.append(("context", ty.context, tuple(ty.context)))
        self.class_env.add_constraint(ty.context, cls)

    # ------------------------------------------------------- minimization

    def _explain(self, exc: TypeCheckError, trail_mark: int,
                 log_mark: int) -> None:
        """Attach a minimal unsatisfiable core's spans to *exc*.

        Best-effort by design: any anomaly during minimization falls
        back to the failing constraint's own origin (or the error's
        primary position) — diagnostics must never turn a type error
        into a crash or mask it with a different one.
        """
        constraints = self._log[log_mark:]
        failing = self._failing
        counts = (self.unify_count, self.context_reduction_count,
                  self.constraint_propagations)
        try:
            core = self._minimize(constraints, trail_mark, failing)
        except Exception:
            core = [failing] if failing is not None else []
        finally:
            self._minimizing = False
            # Replays must not skew the E9 instrumentation counters.
            (self.unify_count, self.context_reduction_count,
             self.constraint_propagations) = counts
        positions: List[Provenance] = []
        seen = set()
        for c in core:
            origin = c.origin
            if origin.pos is None:
                continue
            key = (origin.pos, origin.reason)
            if key in seen:
                continue
            seen.add(key)
            positions.append(Provenance(origin.pos, origin.reason))
        if not positions and exc.pos is not None:
            # Failures outside the replayable constraint set (placeholder
            # resolution, ambiguity) still report their own site.
            positions.append(Provenance(exc.pos, "error-site"))
        exc.positions = positions
        #: corpus instrumentation: how much smaller the minimal set is
        exc.constraint_pool_size = len(constraints)
        exc.unsat_core_size = len(core)

    def _minimize(self, constraints: List[Constraint], trail_mark: int,
                  failing: Optional[Constraint]) -> List[Constraint]:
        """Deletion-based minimization: drop one constraint at a time,
        keep the drop whenever the remainder still fails to replay."""
        trail = self._trail
        if trail is None or not constraints:
            return [failing] if failing is not None else []
        undo_trail(trail, trail_mark)
        fallback = [failing] if failing is not None else constraints[-1:]
        if len(constraints) > self.minimize_cap:
            self.minimize_capped_count += 1
            return fallback
        self._minimizing = True
        if not self._unsat(constraints, trail_mark):
            # The failure is not reproducible from the logged set alone
            # (e.g. it came from placeholder resolution, not unify).
            return fallback
        core = list(constraints)
        i = 0
        while i < len(core):
            trial = core[:i] + core[i + 1:]
            if self._unsat(trial, trail_mark):
                core = trial
            else:
                i += 1
        return core

    def _unsat(self, subset: List[Constraint], trail_mark: int) -> bool:
        """Replay *subset* from the rolled-back state; True when it
        still raises.  Always restores the rolled-back state."""
        assert self._trail is not None
        try:
            for c in subset:
                self._unify(c.t1, c.t2, c.origin.pos)
        except TypeCheckError:
            return True
        else:
            return False
        finally:
            undo_trail(self._trail, trail_mark)
