"""Serialized module interfaces — the ``.ri`` files of §8.6.

An interface is everything an importing module needs to compile
against a module *without its source*: the exported value schemes
(whose printed context order fixes dictionary parameter order, §8.6),
the declared data types and constructors, classes with their method
schemes, the instances (at arity 1 the §4 4-tuples ``(type, class,
dictionary, context)``; multi-parameter instances too), type synonyms,
and operator fixities.

Each interface carries a **content fingerprint**: a digest of a
canonical, position-free rendering of the exported surface.  The
fingerprint deliberately ignores everything else — binding bodies,
comments, whitespace — so an edit that does not change a module's
exported surface leaves its fingerprint unchanged and rebuilds of its
dependents are *cut off* (they hit the compile cache, whose key is the
dep-interface fingerprints, not the dep sources).

Since format version 2 an interface also ships **unfoldings** — the
core bodies of its specialisable bindings
(:mod:`repro.specialize.unfold`) — so the link-time cross-module
specializer can clone imported overloaded functions.  Unfoldings stay
out of the surface fingerprint (body edits must not trigger dependent
recompiles); they carry their own digest, ``unfold_fp``, which the
link-level caches key on.

On disk an interface is a magic string, a format-version byte and a
pickle written by the C pickler with its memo off (``fast`` mode): every
shared sub-object is written out in full, so the bytes depend on the
interface's content alone (:func:`_canonical_dumps`).  That is the same
encoding, byte for byte, as the pure-Python pickler writes with its
memo disabled, at about a tenth of the cost;
``tests/test_interface_bytes.py`` pins the bytes.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.classes import ClassInfo, InstanceInfo
from repro.core.kinds import kind_str
from repro.core.static import DataConInfo, DataTypeInfo
from repro.core.types import Scheme
from repro.errors import StaleInterfaceError
from repro.lang import ast
from repro.service.cache import FORMAT_VERSION

#: the format version of ``.ri`` files, shared with the compile cache's
#: disk tier; a version-skewed file on disk is treated as absent and
#: rebuilt.
#: v1: surface only; v2: + unfoldings (cross-module specialisation);
#: v3: Pred grew a ``types`` slot (multi-parameter constraints);
#: v4: class kinds may exceed ``*`` and InstanceInfo grew
#: ``head_arg_kinds`` (higher-kinded instances at partial application);
#: v5: one InstanceInfo for every class arity (head patterns, variable
#: kinds, ``(class, variables)`` context) — multi-parameter instances
#: are exported too.
INTERFACE_VERSION = FORMAT_VERSION

_MAGIC = b"repro-ri"

#: file extension for interface files
INTERFACE_SUFFIX = ".ri"


@dataclass
class ModuleInterface:
    """The compiled surface of one module."""

    module: str
    source_sha: str
    imports: List[str]
    #: exported value bindings (explicit export lists filter these;
    #: re-exported imports included)
    schemes: Dict[str, Scheme]
    #: kinds of the type constructors this module declares
    kinds: Dict[str, Any]
    #: canonical TyCon objects for the declared constructors
    tycons: Dict[str, Any]
    data_types: Dict[str, DataTypeInfo]
    data_cons: Dict[str, DataConInfo]
    synonyms: Dict[str, Tuple[List[str], ast.SType]]
    classes: Dict[str, ClassInfo]
    instances: List[InstanceInfo]
    fixities: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    fingerprint: str = ""
    #: serialized bodies of the module's specialisable bindings
    #: (``name -> repro.specialize.unfold.Unfolding``); NOT part of the
    #: surface fingerprint — see the module docstring
    unfoldings: Dict[str, Any] = field(default_factory=dict)
    #: digest of the unfoldings (repro.specialize.unfold_fingerprint)
    unfold_fp: str = ""

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = self._compute_fingerprint()
        if not self.unfold_fp and self.unfoldings:
            from repro.specialize.unfold import unfold_fingerprint
            self.unfold_fp = unfold_fingerprint(self.unfoldings)

    def __getstate__(self) -> Dict[str, Any]:
        # The memo of interface_bytes stays out of every pickle: the
        # .ri file itself and the compile cache's disk tier.
        state = dict(self.__dict__)
        state.pop("_ri_bytes", None)
        return state

    # ------------------------------------------------------- fingerprint

    def _compute_fingerprint(self) -> str:
        return hashlib.sha256(self.render().encode("utf-8")).hexdigest()

    def render(self) -> str:
        """The canonical textual interface — §8.6's "interface file"
        listing, deterministic and position-free.  The fingerprint is a
        digest of exactly this text."""
        lines: List[str] = [f"module {self.module}"]
        for name, (prec, assoc) in sorted(self.fixities.items()):
            word = {"l": "infixl", "r": "infixr", "n": "infix"}[assoc]
            lines.append(f"{word} {prec} {name}")
        for name, (params, rhs) in sorted(self.synonyms.items()):
            head = " ".join([name] + list(params))
            lines.append(f"type {head} = {_sty_str(rhs)}")
        for name, info in sorted(self.data_types.items()):
            lines.append(f"data {name} :: {kind_str(info.kind)}")
            for con in info.constructors:
                lines.append(f"  {con.name} :: {con.scheme}  -- tag {con.tag}")
        for name, info in sorted(self.classes.items()):
            supers = ", ".join(info.superclasses)
            lines.append(f"class ({supers}) => {name} "
                         f":: {kind_str(info.tyvar_kind)}")
            for method in info.methods:
                dflt = " (has default)" if method.has_default else ""
                lines.append(f"  {method.name} :: {method.scheme}{dflt}")
        for inst in sorted(self.instances,
                           key=lambda i: (i.class_name, i.head_name)):
            kinds = ",".join(kind_str(k) for k in inst.var_kinds)
            if inst.arity == 1:
                # The §4 4-tuple, per-argument context.
                ctx = ";".join(",".join(cs) for cs in inst.context)
                head = inst.tycon_name
            else:
                ctx = ",".join(inst.pred_strs())
                head = inst.head_str()
            lines.append(f"instance {inst.class_name} {head} "
                         f"= {inst.dict_name} [{ctx}] @ [{kinds}]")
        for name, scheme in sorted(self.schemes.items()):
            lines.append(f"{name} :: {scheme}")
        return "\n".join(lines)


def _sty_str(ty: ast.SType) -> str:
    """Position-free rendering of type syntax (synonym right-hand
    sides are kept as syntax; the dataclass repr would drag source
    positions into the fingerprint)."""
    if isinstance(ty, ast.STyVar):
        return ty.name
    if isinstance(ty, ast.STyCon):
        return ty.name
    if isinstance(ty, ast.STyApp):
        return f"({_sty_str(ty.fn)} {_sty_str(ty.arg)})"
    return repr(ty)


# ---------------------------------------------------------------------------
# Disk format
# ---------------------------------------------------------------------------


def interface_path(out_dir: str, module: str) -> str:
    return os.path.join(out_dir, module + INTERFACE_SUFFIX)


def _canonical_dumps(obj: Any) -> bytes:
    """Pickle *obj* with the memo off, so the bytes are a pure
    function of its content.

    The default pickler emits back-references for objects it has seen,
    making the bytes depend on which sub-objects happen to be shared in
    memory — and sharing differs between a module compiled against
    the interfaces of a fresh build (schemes built against live
    canonical env objects) and one compiled against interfaces loaded
    from the compile cache's disk tier (unpickled copies).  A rebuild
    writes the same ``.ri`` bytes either way, so the on-disk format
    must not see the difference.  ``fast`` mode turns the C pickler's
    memo off: every occurrence of a sub-object serializes by value.
    Interfaces are acyclic trees; the cost of dropping the memo is a
    little duplication, not safety."""
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return buf.getvalue()


def interface_bytes(iface: ModuleInterface) -> bytes:
    """The exact contents of *iface*'s ``.ri`` file: magic, version
    byte and memo-free pickle (see :func:`_canonical_dumps` for why the
    bytes must be a function of content alone).  Pickled once per
    interface object, which is never mutated once built: a rebuild
    compares its cache hits' files without pickling them again."""
    payload = getattr(iface, "_ri_bytes", None)
    if payload is None:
        payload = _MAGIC + bytes([INTERFACE_VERSION]) + \
            _canonical_dumps(iface)
        iface._ri_bytes = payload
    return payload


def save_interface(iface: ModuleInterface, path: str) -> None:
    """Write *iface* (:func:`interface_bytes`) to *path* atomically."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    payload = interface_bytes(iface)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_interface(path: str) -> ModuleInterface:
    """Read an interface file, checking magic and version.  Anything
    unusable — an unreadable file, wrong magic, an older or newer
    format version, a truncated or unpicklable payload — raises
    :class:`~repro.errors.StaleInterfaceError` (a
    :class:`~repro.errors.ModuleError`)."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise StaleInterfaceError(f"cannot read '{path}': {exc}")
    if not blob.startswith(_MAGIC) or len(blob) <= len(_MAGIC):
        raise StaleInterfaceError(f"'{path}' is not an interface file")
    version = blob[len(_MAGIC)]
    if version != INTERFACE_VERSION:
        raise StaleInterfaceError(
            f"interface file '{path}' has version {version}, expected "
            f"{INTERFACE_VERSION}; rebuild it")
    try:
        iface = pickle.loads(blob[len(_MAGIC) + 1:])
    except Exception as exc:  # noqa: BLE001 — any pickle failure is staleness
        raise StaleInterfaceError(
            f"interface file '{path}' is unreadable "
            f"({type(exc).__name__}: {exc}); rebuild it")
    if not isinstance(iface, ModuleInterface):
        raise StaleInterfaceError(
            f"'{path}' does not contain a module interface")
    return iface
