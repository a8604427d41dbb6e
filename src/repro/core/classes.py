"""The class environment: static analysis results for classes and
instances (section 4 of the paper).

Every instance declaration is represented, as the paper prescribes, by
a 4-tuple::

    (data type, class, dictionary, context)

the ``context`` being "a list of class constraints, one class
constraint for each argument to the data type defined by the instance".
:class:`InstanceInfo` is the one instance record for classes of every
arity — one head pattern per class parameter, a context of ``(class,
variables)`` entries — and the 4-tuple is its arity-1 view.  All
instances live in one table; read as CHR (Glynn, Stuckey & Sulzmann),
each is a simplification rule, checked for overlap and termination when
it is registered and matched by one matcher (docs/SOLVER.md).

The environment also owns the *dictionary layout* (section 8.1):

* **nested** layout (default): a dictionary for class C is a tuple
  ``(super-dict_1, ..., super-dict_k, method_1, ..., method_m)``; a
  method of a superclass is reached by chasing embedded dictionaries;
* **flattened** layout: the tuple holds every method of C *and* of all
  its transitive superclasses at top level — "this slows down
  dictionary construction but speeds up selection operations";
* the **single-slot** optimisation: a class whose dictionary would have
  exactly one slot dispenses with the tuple entirely (the paper's
  ``d-Eq-List = eqList``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    DuplicateInstanceError,
    NoInstanceError,
    SolverNonterminatingError,
    SolverOverlapError,
    SourcePos,
    StaticError,
)
from repro.core.kinds import STAR, Kind
from repro.core.types import Scheme, TyCon, Type
from repro.util.names import dict_var_name
from repro.util.orderedset import OrderedSet


@dataclass
class MethodInfo:
    """One method of a class.

    ``scheme`` is the method's full type scheme; by construction its
    quantified variable 0 is the class variable and ``preds[0]`` is the
    class constraint on it.  Any further predicates are *extra*
    overloading of the method beyond the class variable (section 8.5).
    """

    name: str
    scheme: Scheme
    index: int  # position among the class's own methods, declaration order
    has_default: bool = False

    @property
    def extra_preds_count(self) -> int:
        return len(self.scheme.preds) - 1


@dataclass
class ClassInfo:
    name: str
    superclasses: List[str]
    #: the inferred kind of the class variable — ``*`` for ``Eq``,
    #: ``* -> *`` for ``Functor`` (docs/CLASSES.md); multi-parameter
    #: classes keep every parameter at ``*``
    tyvar_kind: Kind = STAR
    methods: List[MethodInfo] = field(default_factory=list)
    pos: Optional[SourcePos] = None
    #: number of class parameters; > 1 only for multi-parameter classes
    #: (docs/SOLVER.md)
    arity: int = 1

    def method(self, name: str) -> Optional[MethodInfo]:
        for m in self.methods:
            if m.name == name:
                return m
        return None

    @property
    def param_kinds(self) -> List[Kind]:
        """Kind of each class parameter.  Only single-parameter classes
        may have a non-``*`` (inferred) kind."""
        if self.arity == 1:
            return [self.tyvar_kind]
        return [STAR] * self.arity


class MethodSet(frozenset):
    """A frozenset of method names that pickles its elements sorted.

    Plain sets pickle in hash-iteration order, which varies with the
    per-process hash seed — that order would leak into ``.ri`` interface
    files and make otherwise-identical builds byte-unstable across
    processes.  Equality and membership are inherited unchanged."""

    def __reduce__(self):
        return (self.__class__, (sorted(self),))


@dataclass
class InstanceInfo:
    """One instance declaration ``instance ctx => C p1 ... pn``, for a
    class of any arity.

    ``heads`` holds one pattern per class parameter: ``(tycon, vars)``
    for a type constructor applied to instance variables, or
    ``(None, (v,))`` for a bare variable (multi-parameter classes
    only).  The instance variables are distinct across the whole head,
    numbered ``0 .. len(var_kinds) - 1`` in order of first occurrence;
    ``var_kinds`` records their kinds.  ``preds`` is the context: one
    ``(class, vars)`` entry per parameter of the dictionary constructor,
    grouped stably by (first) head variable.

    At arity 1 this is the paper's §4 4-tuple ``(data type, class,
    dictionary, context)``: :attr:`tycon_name`, :attr:`class_name`,
    :attr:`dict_name` and the per-argument :attr:`context` read it off.
    """

    class_name: str
    heads: List[Tuple[Optional[str], Tuple[int, ...]]]
    var_kinds: List[Kind]
    preds: List[Tuple[str, Tuple[int, ...]]] = field(default_factory=list)
    pos: Optional[SourcePos] = None
    #: methods the instance declaration itself binds (others fall back
    #: to the class default, section 8.2)
    defined_methods: frozenset = MethodSet()
    #: the head as generated names and messages spell it: one component
    #: per class parameter, the type constructor or ``_`` for a bare
    #: variable (``Int Float``, ``_ []``); at arity 1, the type
    #: constructor.  With the class it identifies the instance.
    head_name: str = field(init=False)
    #: the dictionary variable (``d$Eq$List``), named after the head;
    #: not unique, since ``[]`` and a user type ``List`` both give it
    dict_name: str = field(init=False)
    #: the §4 per-argument context: the classes constraining each
    #: argument of the instance's type constructor
    context: List[List[str]] = field(init=False)

    def __post_init__(self) -> None:
        # Dictionary-parameter order: at arity 1, the paper's
        # per-argument order.
        self.preds = sorted(self.preds, key=lambda pred: pred[1][0])
        self.head_name = " ".join(tycon if tycon is not None else "_"
                                  for tycon, _ in self.heads)
        self.dict_name = dict_var_name(self.class_name, self.head_name)
        self.context = [[cls for cls, var_idxs in self.preds
                         if var_idxs[0] == i]
                        for i in range(len(self.var_kinds))]

    @property
    def arity(self) -> int:
        return len(self.heads)

    @property
    def n_dict_params(self) -> int:
        return len(self.preds)

    def head_str(self) -> str:
        """The head's parameter patterns, head variables named ``a0``,
        ``a1``, ...: ``Int ([] a0)``."""
        parts = []
        for tycon, var_idxs in self.heads:
            args = [f"a{i}" for i in var_idxs]
            if tycon is None:
                parts.append(args[0])
            elif not args:
                parts.append(tycon)
            else:
                parts.append("(" + " ".join([tycon] + args) + ")")
        return " ".join(parts)

    def pred_strs(self) -> List[str]:
        """One rendered constraint per dictionary parameter, in
        :meth:`head_str`'s variable names."""
        return [" ".join([cls] + [f"a{i}" for i in var_idxs])
                for cls, var_idxs in self.preds]

    # ------------------------------------------- the arity-1 (§4) view

    @property
    def tycon_name(self) -> Optional[str]:
        return self.heads[0][0]

    @property
    def head_arg_kinds(self) -> List[Kind]:
        """Kind of each head variable: the leading argument kinds of
        the instance's type constructor.  For a higher-kinded instance
        at a *partial* application (``instance Functor (Either a)``)
        this covers only the applied arguments."""
        return self.var_kinds


#: Dictionary layout selector for :class:`ClassEnv`.
NESTED = "nested"
FLAT = "flat"


class ClassEnv:
    """All classes and instances of a program, plus layout decisions."""

    def __init__(self, layout: str = NESTED,
                 single_slot_opt: bool = True) -> None:
        if layout not in (NESTED, FLAT):
            raise ValueError(f"unknown dictionary layout {layout!r}")
        self.layout = layout
        self.single_slot_opt = single_slot_opt
        self.classes: Dict[str, ClassInfo] = {}
        #: every instance, keyed by ``(head_name, class)``; at arity 1
        #: the head name is the type constructor, so the paper's
        #: ``(tycon, class)`` lookup is one get
        self.instances: Dict[Tuple[str, str], InstanceInfo] = {}
        self.method_owner: Dict[str, str] = {}
        #: default types for ambiguity resolution (section 6.3 case 4)
        self.default_types: List[str] = ["Int", "Float"]
        #: memoized transitive-superclass sets; safe without
        #: invalidation because superclasses must be declared before
        #: use, so a class's ancestor set is fixed at declaration time
        self._supers_cache: Dict[str, Tuple[List[str], frozenset]] = {}

    # ------------------------------------------------------------- classes

    def add_class(self, info: ClassInfo) -> None:
        if info.name in self.classes:
            raise StaticError(f"class {info.name} declared twice", info.pos)
        for sup in info.superclasses:
            if sup not in self.classes:
                raise StaticError(
                    f"superclass {sup} of {info.name} is not declared "
                    f"(classes must be declared before use)", info.pos)
        self.classes[info.name] = info
        for method in info.methods:
            if method.name in self.method_owner:
                raise StaticError(
                    f"method {method.name} declared in two classes "
                    f"({self.method_owner[method.name]} and {info.name})",
                    info.pos)
            self.method_owner[method.name] = info.name

    def class_info(self, name: str) -> ClassInfo:
        info = self.classes.get(name)
        if info is None:
            raise StaticError(f"unknown class {name}")
        return info

    def is_class(self, name: str) -> bool:
        return name in self.classes

    def owner_of_method(self, method: str) -> Optional[str]:
        return self.method_owner.get(method)

    def _ancestors(self, name: str) -> Tuple[List[str], frozenset]:
        """Memoized ``(bfs_order, member_set)`` of *name*'s transitive
        superclasses.  Computed once per class: superclasses must be
        declared before their subclasses, so the set can never change
        after *name* itself is declared."""
        cached = self._supers_cache.get(name)
        if cached is not None:
            return cached
        out: List[str] = []
        seen = {name}
        frontier = list(self.class_info(name).superclasses)
        while frontier:
            sup = frontier.pop(0)
            if sup in seen:
                continue
            seen.add(sup)
            out.append(sup)
            frontier.extend(self.class_info(sup).superclasses)
        cached = (out, frozenset(out))
        self._supers_cache[name] = cached
        return cached

    def supers_transitive(self, name: str) -> List[str]:
        """Every (transitive) superclass of *name*, excluding *name*,
        in deterministic BFS order."""
        return list(self._ancestors(name)[0])

    def implies(self, cls: str, target: str) -> bool:
        """True when a ``cls`` constraint makes a ``target`` constraint
        redundant (equal, or ``target`` is a superclass of ``cls``)."""
        return cls == target or target in self._ancestors(cls)[1]

    def superclass_path(self, have: str, need: str) -> Optional[List[Tuple[str, str]]]:
        """A chain of direct-superclass hops from *have* to *need*.

        Each element ``(c, s)`` means: from a dictionary for ``c``,
        extract the embedded dictionary for its direct superclass ``s``.
        Returns ``None`` if *need* is not reachable.
        """
        if have == need:
            return []
        # BFS over direct superclass edges.
        frontier: List[Tuple[str, List[Tuple[str, str]]]] = [(have, [])]
        seen = {have}
        while frontier:
            current, path = frontier.pop(0)
            for sup in self.class_info(current).superclasses:
                if sup in seen:
                    continue
                new_path = path + [(current, sup)]
                if sup == need:
                    return new_path
                seen.add(sup)
                frontier.append((sup, new_path))
        return None

    # ------------------------------------------------------------ contexts

    def add_constraint(self, context: OrderedSet, cls: str) -> bool:
        """Add *cls* to a type variable's context with superclass
        compaction (section 8.1: "contexts implied by the superclass
        relation can be removed").

        Returns True if the context changed.
        """
        for existing in context:
            if self.implies(existing, cls):
                return False
        removed = [c for c in list(context) if self.implies(cls, c)]
        for c in removed:
            context.discard(c)
        context.add(cls)
        return True

    def context_implied_by(self, context: OrderedSet, cls: str) -> Optional[str]:
        """The member of *context* that implies *cls*, if any."""
        for existing in context:
            if self.implies(existing, cls):
                return existing
        return None

    # ----------------------------------------------------------- instances

    def add_instance(self, info: InstanceInfo) -> None:
        """Register *info* once its simplification rule (the CHR reading
        of docs/SOLVER.md) keeps the rules confluent and terminating.

        * **Overlap**: no other rule of the class may match a goal
          *info* matches (Bottu et al.); at arity 1 that is the paper's
          one instance per ``(class, tycon)`` pair.
        * **Termination**: the rule must shrink its goal.  A position
          headed by a constructor strictly decreases (contexts constrain
          only head variables), so the one dangerous shape is an
          all-variable head with a non-empty context.
        """
        clash = self.overlapping_instance(info)
        if clash is not None:
            if info.arity == 1:
                raise DuplicateInstanceError(
                    f"duplicate instance {info.class_name} for type "
                    f"{info.tycon_name}: only one instance declaration per "
                    f"(class, data type) pair is allowed", info.pos)
            raise SolverOverlapError(
                f"overlapping instances for class {info.class_name}: "
                f"head {info.head_str()} overlaps the earlier instance "
                f"head {clash.head_str()}; resolution would not be "
                f"confluent", info.pos)
        if info.class_name not in self.classes:
            raise StaticError(
                f"instance declaration for unknown class {info.class_name}",
                info.pos)
        if info.preds and all(tycon is None for tycon, _ in info.heads):
            raise SolverNonterminatingError(
                f"instance {info.class_name} {info.head_str()} does not "
                f"terminate: every head position is a bare type variable but "
                f"the instance context is non-empty, so the simplification "
                f"rule never shrinks its goal", info.pos)
        self.instances[(info.head_name, info.class_name)] = info

    def overlapping_instance(self, info: InstanceInfo
                             ) -> Optional[InstanceInfo]:
        """A registered instance of *info*'s class whose head unifies
        with *info*'s.  Head variables are distinct per instance, so two
        heads unify iff at every position either is a bare variable or
        both name the same constructor."""
        same = self.instances.get((info.head_name, info.class_name))
        if same is not None or info.arity == 1:
            return same
        for other in self.instances_of_class(info.class_name):
            if all(mine is None or theirs is None or mine == theirs
                   for (mine, _), (theirs, _) in zip(info.heads,
                                                     other.heads)):
                return other
        return None

    def get_instance(self, tycon_name: str, class_name: str) -> Optional[InstanceInfo]:
        return self.instances.get((tycon_name, class_name))

    def find_instance_context(self, tycon_name: str, class_name: str,
                              type_str: str = "",
                              pos: Optional[SourcePos] = None) -> List[List[str]]:
        """The paper's ``findInstanceContext``: the per-argument context
        of the instance linking *tycon_name* and *class_name*; raises
        :class:`NoInstanceError` when no such instance exists."""
        info = self.get_instance(tycon_name, class_name)
        if info is None:
            raise NoInstanceError(class_name, type_str or tycon_name, pos)
        return info.context

    def instances_of_class(self, class_name: str) -> List[InstanceInfo]:
        return [info for (_, cls), info in self.instances.items()
                if cls == class_name]

    def match_instance(self, class_name: str, goals: List[Type],
                       spines: List[Tuple[Type, List[Type]]]
                       ) -> Optional[Tuple[InstanceInfo, List[Type]]]:
        """The instance whose head matches the goal ``class_name
        goals``, with the type each instance variable matched (§6.3
        case 2, at every arity).  The goals are pruned and *spines*
        holds the :func:`~repro.core.types.spine` of each.

        Matching is pure binding: head variables are distinct.  The
        overlap check lets at most one instance match, so the first
        match is the answer.  At arity 1 the one candidate is the
        ``(tycon, class)`` entry, whose head is the constructor over
        variables ``0 .. k-1``: the goal's arguments are the bindings.
        Above it, a head position matches only where it names the
        goal's constructor or is a bare variable (``_``), so the
        candidates are the entries for those head names: at most
        ``2 ** arity`` gets, never a scan.
        """
        if len(goals) == 1:
            head, args = spines[0]
            info = self.instances.get((head.name, class_name)) \
                if isinstance(head, TyCon) else None
            if info is None or len(args) != len(info.var_kinds):
                return None
            return info, args
        options = [(head.name, "_") if isinstance(head, TyCon) else ("_",)
                   for head, _ in spines]
        for names in product(*options):
            info = self.instances.get((" ".join(names), class_name))
            if info is None:
                continue
            bindings: List[Type] = [None] * len(info.var_kinds)  # type: ignore[list-item]
            for (tycon, var_idxs), goal, (head, args) in zip(
                    info.heads, goals, spines):
                if tycon is None:
                    bindings[var_idxs[0]] = goal
                    continue
                if not isinstance(head, TyCon) or head.name != tycon \
                        or len(args) != len(var_idxs):
                    break
                for idx, arg in zip(var_idxs, args):
                    bindings[idx] = arg
            else:
                return info, bindings
        return None

    # -------------------------------------------------------------- layout

    def dict_slots(self, class_name: str) -> List[Tuple[str, str, str]]:
        """The slot descriptors of a dictionary for *class_name*.

        Each descriptor is ``(kind, owner_class, name)`` where kind is
        ``"super"`` (an embedded superclass dictionary; nested layout
        only) or ``"method"``.  For the flattened layout, inherited
        methods appear directly with their *owner* class recorded so the
        construction code knows where each implementation comes from.
        """
        info = self.class_info(class_name)
        slots: List[Tuple[str, str, str]] = []
        if self.layout == NESTED:
            for sup in info.superclasses:
                slots.append(("super", class_name, sup))
            for method in info.methods:
                slots.append(("method", class_name, method.name))
        else:
            # Flattened: every transitive superclass's methods, deepest
            # classes first so a class's own methods come last (a
            # deterministic, documented order).
            for sup in reversed(self.supers_transitive(class_name)):
                for method in self.class_info(sup).methods:
                    slots.append(("method", sup, method.name))
            for method in info.methods:
                slots.append(("method", class_name, method.name))
        return slots

    def dict_size(self, class_name: str) -> int:
        return len(self.dict_slots(class_name))

    def uses_bare_dict(self, class_name: str) -> bool:
        """True when the class's dictionary is a bare value rather than
        a tuple (single-slot optimisation)."""
        return self.single_slot_opt and self.dict_size(class_name) == 1

    def method_slot(self, class_name: str, method: str) -> Optional[int]:
        """The tuple index of *method* in a *class_name* dictionary, or
        ``None`` if the method lives in an embedded superclass dict
        (nested layout)."""
        for i, (kind, _owner, name) in enumerate(self.dict_slots(class_name)):
            if kind == "method" and name == method:
                return i
        return None

    def super_slot(self, class_name: str, super_name: str) -> Optional[int]:
        """The tuple index of the embedded *super_name* dictionary
        (nested layout only)."""
        for i, (kind, _owner, name) in enumerate(self.dict_slots(class_name)):
            if kind == "super" and name == super_name:
                return i
        return None

    def method_access_path(self, class_name: str,
                           method: str) -> Tuple[List[Tuple[str, str]], str]:
        """How to reach *method* starting from a *class_name* dictionary.

        Returns ``(super_hops, owner)``: follow each ``(c, s)`` hop by
        extracting the superclass dictionary, then select the method
        from the final *owner* class's dictionary.  In the flattened
        layout there are never any hops.
        """
        owner = self.method_owner.get(method)
        if owner is None:
            raise StaticError(f"unknown method {method}")
        if self.layout == FLAT:
            return [], class_name
        if self.class_info(class_name).method(method) is not None:
            return [], class_name
        path = self.superclass_path(class_name, owner)
        if path is None:
            raise StaticError(
                f"method {method} of class {owner} is not reachable from "
                f"class {class_name}")
        return path, owner

    def flat_method_slot(self, class_name: str, method: str) -> int:
        """Slot of *method* in the flattened *class_name* dictionary,
        regardless of which class declared the method."""
        assert self.layout == FLAT
        for i, (kind, _owner, name) in enumerate(self.dict_slots(class_name)):
            if kind == "method" and name == method:
                return i
        raise StaticError(
            f"method {method} not present in flattened dictionary for "
            f"{class_name}")
