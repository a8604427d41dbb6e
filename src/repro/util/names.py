"""Fresh-name generation.

Dictionary conversion manufactures many new identifiers — dictionary
parameters (``d1``, ``d2`` ...), dictionary variables for instances
(``d$Eq$List``), selectors, specialized clones — and they must never
collide with user identifiers.  Generated names therefore contain a
``$`` character, which the lexer rejects in source programs, making the
generated namespace disjoint from the user namespace by construction.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional


class NameSupply:
    """A supply of fresh identifiers, grouped by prefix.

    Each prefix has its own counter so that the names stay short and
    readable in dumped core (``d$1``, ``d$2`` rather than a single global
    counter interleaving every kind of name).  *counters* resumes a
    supply where :meth:`counters` of another left off.
    """

    def __init__(self, counters: Optional[Mapping[str, int]] = None) -> None:
        self._counters: Dict[str, int] = dict(counters or {})

    def counters(self) -> Dict[str, int]:
        """A copy of every prefix's count so far."""
        return dict(self._counters)

    def fresh(self, prefix: str) -> str:
        """Return a fresh name ``<prefix>$<n>``."""
        n = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = n
        return f"{prefix}${n}"

    def reset(self) -> None:
        self._counters.clear()


def dict_var_name(class_name: str, head_name: str) -> str:
    """The dictionary variable for ``instance ... => C (T ...)`` (section 4).

    The paper writes these as ``d-Eq-List``; we use ``d$Eq$List`` so the
    name survives our lexer's identifier rules when pretty printed and
    re-parsed in tests.  *head_name* is the instance's
    :attr:`~repro.core.classes.InstanceInfo.head_name`: the type
    constructor, or one space-separated component per parameter of a
    multi-parameter class (``d$Convert$Int$Float``).
    """
    return f"d${class_name}${_tidy_head(head_name)}"


def method_impl_name(class_name: str, head_name: str, method: str) -> str:
    """The per-instance implementation function for one method.

    When the overloading of a method is resolved at compile time, the
    checker calls this function directly instead of going through the
    dictionary ("the type specific version of the method is called
    directly", section 4).
    """
    return f"impl${class_name}${_tidy_head(head_name)}${_tidy(method)}"


def selector_name(class_name: str, method: str) -> str:
    """The selector extracting *method* from a dictionary for *class_name*."""
    return f"sel${class_name}${_tidy(method)}"


def superclass_selector_name(class_name: str, super_name: str) -> str:
    """The selector extracting the *super_name* dictionary embedded in a
    *class_name* dictionary (section 8.1)."""
    return f"sup${class_name}${super_name}"


def default_method_name(class_name: str, method: str) -> str:
    """The compiled default implementation of *method* (section 8.2)."""
    return f"dflt${class_name}${_tidy(method)}"


def specialized_name(function: str, signature: str) -> str:
    """The name of a type-specific clone (section 9)."""
    return f"{function}@{signature}"


_SYMBOL_NAMES = {
    "=": "eq",
    "<": "lt",
    ">": "gt",
    "+": "plus",
    "-": "minus",
    "*": "times",
    "/": "div",
    "&": "amp",
    "|": "bar",
    "!": "bang",
    ":": "colon",
    ".": "dot",
    "^": "caret",
    "%": "pct",
    "~": "tilde",
    "@": "at",
    "#": "hash",
    "?": "what",
}


def _tidy_head(head_name: str) -> str:
    return "$".join(_tidy(part) for part in head_name.split(" "))


def _tidy(name: str) -> str:
    """Make an operator or type name safe inside a generated identifier."""
    if name and (name[0].isalpha() or name[0] == "_" or name[0] == "$"):
        return name.replace("[]", "List")
    if name == "[]":
        return "List"
    if name == "->":
        return "Arrow"
    if name.startswith("(,"):
        return f"Tuple{name.count(',') + 1}"
    return "_".join(_SYMBOL_NAMES.get(ch, f"x{ord(ch):x}") for ch in name)
