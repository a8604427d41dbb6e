"""The class environment: static analysis results for classes and
instances (section 4 of the paper).

Every instance declaration is represented, as the paper prescribes, by
a 4-tuple::

    (data type, class, dictionary, context)

Here :class:`InstanceInfo` carries exactly those fields — the
``context`` being "a list of class constraints, one class constraint
for each argument to the data type defined by the instance".

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
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    DuplicateInstanceError,
    NoInstanceError,
    SourcePos,
    StaticError,
)
from repro.core.kinds import STAR, Kind
from repro.core.types import Scheme
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
    """The paper's ``(data type, class, dictionary, context)`` 4-tuple."""

    tycon_name: str
    class_name: str
    dict_name: str
    context: List[List[str]]  # one class list per type-constructor argument
    pos: Optional[SourcePos] = None
    #: methods the instance declaration itself binds (others fall back
    #: to the class default, section 8.2)
    defined_methods: frozenset = MethodSet()
    #: kind of each head variable — the leading argument kinds of the
    #: instance's type constructor.  For a higher-kinded instance at a
    #: *partial* application (``instance Functor (Either a)``) this
    #: covers only the applied arguments; kind-``*`` instances list
    #: ``*`` per argument.  Empty for pre-v4 interfaces (then every
    #: head variable has kind ``*``).
    head_arg_kinds: List[Kind] = field(default_factory=list)

    @property
    def n_dict_params(self) -> int:
        return sum(len(cs) for cs in self.context)

    def dict_param_preds(self) -> List[Tuple[int, str]]:
        """Ordered ``(arg_index, class)`` pairs, one per dictionary
        parameter of the instance's dictionary constructor."""
        out: List[Tuple[int, str]] = []
        for i, classes in enumerate(self.context):
            for cls in classes:
                out.append((i, cls))
        return out


@dataclass
class MPInstanceInfo:
    """One instance of a multi-parameter class.

    ``patterns`` holds one depth-1 pattern per class parameter:
    ``(tycon_name, var_indices)`` where ``tycon_name`` is ``None`` for a
    bare-variable position (then ``var_indices`` is the single variable)
    and otherwise names a constructor applied to the listed instance
    variables.  Variables are numbered 0..n_vars-1 in order of first
    occurrence across the head; ``var_kinds`` records their kinds.

    ``context`` lists the instance's dictionary parameters in
    declaration order: ``("sp", cls, var_idx)`` for a single-parameter
    constraint on one head variable, ``("mp", cls, (i1, ..., ik))`` for
    a multi-parameter constraint over several.
    """

    class_name: str
    patterns: List[Tuple[Optional[str], Tuple[int, ...]]]
    n_vars: int
    var_kinds: List[Kind]
    context: List[Tuple]
    dict_name: str
    pos: Optional[SourcePos] = None
    defined_methods: frozenset = MethodSet()

    @property
    def n_dict_params(self) -> int:
        return len(self.context)

    def head_str(self) -> str:
        """The head's parameter patterns, head variables named ``a0``,
        ``a1``, ...: ``Int ([] a0)``."""
        parts = []
        for tycon, var_idxs in self.patterns:
            args = [f"a{i}" for i in var_idxs]
            if tycon is None:
                parts.append(args[0])
            elif not args:
                parts.append(tycon)
            else:
                parts.append("(" + " ".join([tycon] + args) + ")")
        return " ".join(parts)

    def context_strs(self) -> List[str]:
        """One rendered constraint per dictionary parameter, in
        :meth:`head_str`'s variable names."""
        out = []
        for shape, cls, var_idxs in self.context:
            if shape == "sp":
                var_idxs = (var_idxs,)
            out.append(" ".join([cls] + [f"a{i}" for i in var_idxs]))
        return out


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
        self.instances: Dict[Tuple[str, str], InstanceInfo] = {}
        #: instances of multi-parameter classes, by class name — kept
        #: apart from the paper's per-tycon table because their heads
        #: are pattern tuples, not a single constructor
        self.mp_instances: Dict[str, List[MPInstanceInfo]] = {}
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
        key = (info.tycon_name, info.class_name)
        if key in self.instances:
            raise DuplicateInstanceError(
                f"duplicate instance {info.class_name} for type "
                f"{info.tycon_name}: only one instance declaration per "
                f"(class, data type) pair is allowed", info.pos)
        if info.class_name not in self.classes:
            raise StaticError(
                f"instance declaration for unknown class {info.class_name}",
                info.pos)
        self.instances[key] = info

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

    def add_mp_instance(self, info: MPInstanceInfo) -> None:
        """Register a multi-parameter instance.  Overlap/termination
        checks run before registration (repro.solver.rules); this only
        stores the validated rule."""
        self.mp_instances.setdefault(info.class_name, []).append(info)

    def mp_instances_of(self, class_name: str) -> List[MPInstanceInfo]:
        return self.mp_instances.get(class_name, [])

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
