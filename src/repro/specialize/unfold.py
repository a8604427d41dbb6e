"""Unfoldings: exportable core bodies for cross-module specialisation.

A module interface (§8.6) deliberately hides bodies — that is what
makes rebuilds cut off on body-only edits.  But §9 specialisation needs
the body of the function it clones, so each interface additionally
carries the bodies of its *specialisable* bindings: the overloaded
user functions plus the generated instance-method implementations and
compiled defaults (``dict_arity > 0`` and a lambda shape the cloner can
shed dictionary parameters from).  Dictionary constructors and
selectors need no unfolding — their bindings are regenerated in every
link from the replayed interfaces.

Unfoldings ride in the pickled payload but stay **out of the surface
fingerprint**: a body edit still leaves dependents' compiles cut off
(they compile against schemes, not bodies).  They get their own
digest, :func:`unfold_fingerprint`, over a canonical pretty-printed
rendering — two interfaces with equal ``unfold_fp`` specialise
identically, which is what the link cache keys on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.coreir.syntax import CLam, CoreBinding

#: binding kinds whose bodies are worth shipping — the same set the
#: specializer will clone (repro.transform.specialize.Specializer)
SPECIALIZABLE_KINDS = ("user", "impl", "default")


@dataclass
class Unfolding:
    """The serialized body of one specialisable binding."""

    name: str
    #: the binding's kind ("user" | "impl" | "default")
    kind: str
    #: leading lambda parameters that are dictionary parameters
    dict_arity: int
    #: class constrained by each dictionary parameter (may be None)
    dict_classes: Optional[Tuple[str, ...]]
    #: the full core body (a ``CLam`` taking the dictionaries first)
    expr: object

    def render(self) -> str:
        """Canonical text for fingerprinting — position-free and
        deterministic (the pretty-printer has no source positions to
        leak)."""
        from repro.coreir.pretty import pp_core
        classes = ",".join(self.dict_classes) if self.dict_classes else ""
        return (f"{self.name} [{self.kind}/{self.dict_arity}/{classes}] "
                f"= {pp_core(self.expr)}")


def specializable(binding: CoreBinding) -> bool:
    """Would the specializer clone this binding at a constant
    dictionary vector?  (Mirror of the guard in
    ``Specializer.rewrite``/``clone_of``.)"""
    return (binding.dict_arity > 0
            and binding.kind in SPECIALIZABLE_KINDS
            and isinstance(binding.expr, CLam)
            and len(binding.expr.params) >= binding.dict_arity)


def collect_unfoldings(core: Sequence[CoreBinding]
                       ) -> Dict[str, Unfolding]:
    """The unfoldings a module's own translated core exports.

    Every specialisable binding is included — generated implementations
    and defaults as well as non-exported user helpers, because a clone
    of an exported function cascades into whatever it calls."""
    out: Dict[str, Unfolding] = {}
    for binding in core:
        if specializable(binding):
            out[binding.name] = Unfolding(
                name=binding.name,
                kind=binding.kind,
                dict_arity=binding.dict_arity,
                dict_classes=binding.dict_classes,
                expr=binding.expr,
            )
    return out


def unfold_fingerprint(unfoldings: Dict[str, Unfolding]) -> str:
    """Digest of the canonical renderings, order-free.  Changes exactly
    when some specialisable body (or its dictionary signature)
    changes — the link-level analogue of the interface surface
    fingerprint."""
    h = hashlib.sha256()
    h.update(b"repro-unfoldings\x00")
    for name in sorted(unfoldings):
        # surrogatepass: a string literal may hold a lone surrogate
        h.update(unfoldings[name].render().encode("utf-8",
                                                  "surrogatepass"))
        h.update(b"\x00")
    return h.hexdigest()
