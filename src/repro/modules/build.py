"""Separate compilation, caching and linking.

The heart of the module subsystem.  Each module compiles as an
independent :class:`~repro.pipeline.PassManager` run on a fork of the
prelude snapshot: its imports' *interfaces* (never their sources) are
applied to the forked environments, the module's own source runs
through the front-end passes up to ``translate``, and everything the
run added beyond the snapshot becomes a :class:`ModuleArtifact` —
interface, unoptimised core, schemes, warnings, per-phase timings.

Artifacts are content-addressed: the cache key covers the module
source, the compilation-relevant options, the prelude fingerprint and
the interface fingerprints of the module's *transitive* imports.
Interface fingerprints digest only the exported surface, so a
body-only edit leaves its dependents' keys unchanged — rebuilds are
*cut off* and an edit recompiles O(dependents), not O(modules).

The link step replays every interface onto one fresh fork (with
provenance, so a duplicate instance is reported naming **both**
defining modules — the global coherence check of §4), concatenates the
module cores in topological order after the prelude core, and runs the
back half of the pipeline (selectors + the §8/§9 transforms) over the
whole program, producing a :class:`~repro.driver.CompiledProgram`
indistinguishable from a whole-program compile of the concatenated
sources.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.infer import Inferencer, SchemeEntry
from repro.core.static import StaticEnv
from repro.coreir.syntax import CoreBinding
from repro.errors import (
    DuplicateInstanceLinkError,
    LinkError,
    ModuleError,
    ReproError,
)
from repro.lang.parser import Fixity
from repro.modules.interface import (
    ModuleInterface,
    interface_bytes,
    interface_path,
    load_interface,  # noqa: F401 — perfbench's tracer wraps it here
    save_interface,
)
from repro.modules.resolve import ModuleGraph, ModuleSource, discover_modules
from repro.options import CompilerOptions, options_fingerprint
from repro.pipeline import TRANSLATE, CompileContext, default_pass_manager
from repro.service.cache import CompileCache, resolve_cache_dir, source_hash
from repro.service.snapshot import PreludeSnapshot, get_default_snapshot

_GENERATED_MARK = "$"

#: *jobs* echoed by a build that passes none; a build compiles on the
#: calling thread whatever its *jobs*
DEFAULT_JOBS = 4


def _generated(name: str) -> bool:
    """Compiler-generated top level (dictionaries, method impls,
    defaults) — never part of a module's importable surface."""
    return _GENERATED_MARK in name


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


def module_cache_key(source: str, options: CompilerOptions,
                     prelude_fp: str,
                     dep_fingerprints: Sequence[Tuple[str, str]]) -> str:
    """Content address of one module compilation: the source, every
    compilation-relevant option, the prelude, and the interface
    fingerprint of every module in the import *closure*.  Deep
    interface changes reach all transitive dependents through the
    closure; body-only edits change no fingerprint and are cut off."""
    return _module_key(source, options_fingerprint(options), prelude_fp,
                       dep_fingerprints)


def _module_key(source: str, options_fp: str, prelude_fp: str,
                dep_fingerprints: Sequence[Tuple[str, str]]) -> str:
    """:func:`module_cache_key` with the options already fingerprinted
    (a builder fingerprints them once, not once per module)."""
    h = hashlib.sha256()
    h.update(b"module-artifact\x00")
    h.update(source_hash(source).encode("ascii"))
    h.update(b"\x00")
    h.update(options_fp.encode("ascii"))
    h.update(b"\x00")
    h.update(prelude_fp.encode("ascii"))
    for name, fp in sorted(dep_fingerprints):
        h.update(b"\x00")
        h.update(name.encode("utf-8"))
        h.update(b"=")
        h.update(fp.encode("ascii"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Interface application
# ---------------------------------------------------------------------------


class _Provenance:
    """Which module contributed each type-level entity — the memory
    that lets conflicts name *both* sides.  Entities already present in
    the forked environments before any interface is applied belong to
    the prelude."""

    def __init__(self) -> None:
        self.types: Dict[str, str] = {}
        self.classes: Dict[str, str] = {}
        self.synonyms: Dict[str, str] = {}
        self.instances: Dict[Tuple[str, str], str] = {}
        self.methods: Dict[str, str] = {}

    def owner(self, table: Dict[str, str], name: str) -> str:
        return table.get(name, "the prelude")


def _apply_interface(static_env: StaticEnv, inferencer: Inferencer,
                     iface: ModuleInterface, prov: _Provenance) -> None:
    """Install one interface's type-level surface into forked
    environments: kinds, type constructors, data types + constructors,
    synonyms, classes (with method ownership) and instances.  Value
    schemes are *not* bound here — visibility of values follows the
    import declarations, handled by the caller; types, classes and
    instances are global across the import closure (instances must be,
    for coherence)."""
    ce = static_env.class_env
    for name, kind in iface.kinds.items():
        if name not in static_env.kind_env.kinds:
            static_env.kind_env.bind(name, kind)
    for name, tycon in iface.tycons.items():
        static_env._tycons.setdefault(name, tycon)
    for name, info in iface.data_types.items():
        if name in static_env.data_types:
            raise LinkError(
                f"data type '{name}' is defined in "
                f"{_in_module(prov.owner(prov.types, name))} and again in "
                f"module '{iface.module}'")
        static_env.data_types[name] = info
        prov.types[name] = iface.module
        for con in info.constructors:
            if con.name in static_env.data_cons:
                raise LinkError(
                    f"data constructor '{con.name}' is defined in "
                    f"{_in_module(prov.owner(prov.types, con.name))} and "
                    f"again in module '{iface.module}'")
            static_env.data_cons[con.name] = con
            prov.types[con.name] = iface.module
    for name, synonym in iface.synonyms.items():
        if name in static_env.synonyms:
            raise LinkError(
                f"type synonym '{name}' is defined in "
                f"{_in_module(prov.owner(prov.synonyms, name))} and again "
                f"in module '{iface.module}'")
        static_env.synonyms[name] = synonym
        prov.synonyms[name] = iface.module
    for name, cinfo in iface.classes.items():
        if name in ce.classes:
            raise LinkError(
                f"class '{name}' is defined in "
                f"{_in_module(prov.owner(prov.classes, name))} and again "
                f"in module '{iface.module}'")
        ce.classes[name] = cinfo
        prov.classes[name] = iface.module
        for method in cinfo.methods:
            if method.name in ce.method_owner:
                other = ce.method_owner[method.name]
                raise LinkError(
                    f"class method '{method.name}' of class '{name}' "
                    f"(module '{iface.module}') collides with the method "
                    f"of class '{other}' defined in "
                    f"{_in_module(prov.owner(prov.methods, method.name))}")
            ce.method_owner[method.name] = name
            prov.methods[method.name] = iface.module
    for inst in iface.instances:
        clash = ce.overlapping_instance(inst)
        if clash is not None:
            raise DuplicateInstanceLinkError(
                inst.class_name, inst.head_name,
                prov.instances.get((clash.head_name, clash.class_name),
                                   "the prelude"),
                iface.module, inst.pos)
        key = (inst.head_name, inst.class_name)
        ce.instances[key] = inst
        prov.instances[key] = iface.module


def _in_module(owner: str) -> str:
    return owner if owner == "the prelude" else f"module '{owner}'"


def _extern_names(dep_interfaces: Sequence[ModuleInterface],
                  visible: Dict[str, Tuple[Any, str]],
                  class_env: Any) -> Tuple[str, ...]:
    """Every name a module's core may reference that lives in another
    module's core: the imported values, plus the generated bindings
    behind imported classes and instances — dictionary constructors,
    per-method implementations, and compiled default methods.  The
    core lint treats these as in scope (they are bound at link time)."""
    from repro.util.names import default_method_name, method_impl_name
    names = set(visible)
    for iface in dep_interfaces:
        for cls_name, cinfo in iface.classes.items():
            for m in cinfo.methods:
                names.add(default_method_name(cls_name, m.name))
        for inst in iface.instances:
            names.add(inst.dict_name)
            cinfo = class_env.classes.get(inst.class_name)
            if cinfo is not None:
                for m in cinfo.methods:
                    names.add(method_impl_name(
                        inst.class_name, inst.head_name, m.name))
    return tuple(sorted(names))


def _visible_values(msrc: ModuleSource,
                    ifaces: Dict[str, ModuleInterface]
                    ) -> Dict[str, Tuple[Any, str]]:
    """The value bindings *msrc*'s import declarations bring into
    scope: ``name -> (scheme, providing module)``.  An explicit import
    list filters (and is checked against) the provider's exports; a
    bare import takes them all.  The same name from two providers is an
    error unless it is the same entity re-exported (identical printed
    scheme — the diamond-import case)."""
    visible: Dict[str, Tuple[Any, str]] = {}
    for imp in msrc.imports:
        iface = ifaces[imp.module]
        if imp.names is not None:
            for name in imp.names:
                if name not in iface.schemes:
                    raise ModuleError(
                        f"module '{imp.module}' does not export '{name}'",
                        imp.pos)
            names = imp.names
        else:
            names = sorted(iface.schemes)
        for name in names:
            scheme = iface.schemes[name]
            prev = visible.get(name)
            if prev is not None and prev[1] != imp.module:
                if str(prev[0]) != str(scheme):
                    raise ModuleError(
                        f"ambiguous import: '{name}' comes from both "
                        f"module '{prev[1]}' and module '{imp.module}'",
                        imp.pos)
                continue  # the same entity via a diamond — keep the first
            visible[name] = (scheme, imp.module)
    return visible


# ---------------------------------------------------------------------------
# Per-module compilation
# ---------------------------------------------------------------------------


@dataclass
class ModuleArtifact:
    """Everything one module compilation produced.  Immutable once
    built (the cache hands the same artifact to concurrent builds)."""

    interface: ModuleInterface
    #: the module's own translated core (unoptimised, selector-free),
    #: prelude and imports excluded
    core: Tuple[CoreBinding, ...]
    #: every scheme the module's compile added — exported or not,
    #: user-written or generated — rebound at link time
    schemes: Dict[str, Any]
    #: the module's own user-visible top-level names (link-time
    #: duplicate detection)
    own_names: Tuple[str, ...]
    warnings: Tuple[Any, ...] = ()
    #: per-pass wall time of the compile that built this artifact
    phases: Dict[str, Any] = field(default_factory=dict)


def compile_module(msrc: ModuleSource,
                   dep_interfaces: Sequence[ModuleInterface],
                   options: Optional[CompilerOptions] = None,
                   snapshot: Optional[PreludeSnapshot] = None
                   ) -> ModuleArtifact:
    """Compile one module against its imports' interfaces alone.

    *dep_interfaces* must be the module's transitive import closure in
    topological order (:meth:`ModuleGraph.closure`); the sources behind
    those interfaces are never consulted.
    """
    if snapshot is None:
        snapshot = get_default_snapshot(options)
    if options is None:
        options = snapshot.options
    static_env, inferencer = snapshot.fork()
    prov = _Provenance()
    ifaces = {iface.module: iface for iface in dep_interfaces}
    for iface in dep_interfaces:
        _apply_interface(static_env, inferencer, iface, prov)
    visible = _visible_values(msrc, ifaces)
    for name, (scheme, _origin) in visible.items():
        inferencer.env.bind(name, SchemeEntry(scheme))
    inferencer.install_methods()

    fixities: Dict[str, Fixity] = {}
    for iface in dep_interfaces:
        for op, (prec, assoc) in iface.fixities.items():
            fixities[op] = Fixity(prec, assoc)

    base_schemes = set(inferencer.schemes)
    base_warnings = len(inferencer.warnings)
    base_types = set(static_env.data_types)
    base_cons = set(static_env.data_cons)
    base_synonyms = set(static_env.synonyms)
    base_classes = set(static_env.class_env.classes)
    base_instances = set(static_env.class_env.instances)
    base_kinds = set(static_env.kind_env.kinds)
    base_tycons = set(static_env._tycons)

    ctx = CompileContext.forked(options, [(msrc.source, msrc.filename)],
                                static_env, inferencer,
                                prefix_core=snapshot.core_bindings,
                                n_prefix_bindings=snapshot.n_bindings)
    ctx.fixities = fixities or None
    ctx.imports_resolved = True
    ctx.extern_names = _extern_names(dep_interfaces, visible,
                                     static_env.class_env)
    default_pass_manager().run(ctx, stop_after=TRANSLATE)

    program = ctx.units[0].program
    own_core = tuple(ctx.core.bindings[len(snapshot.core_bindings):])
    own_schemes = {name: scheme
                   for name, scheme in inferencer.schemes.items()
                   if name not in base_schemes}
    own_names = tuple(n for n in own_schemes if not _generated(n))
    for name in own_names:
        if name in visible:
            raise ModuleError(
                f"module '{msrc.name}' defines '{name}', which it also "
                f"imports from module '{visible[name][1]}'; rename one or "
                f"drop it from the import list")

    data_types = {n: static_env.data_types[n]
                  for n in static_env.data_types if n not in base_types}
    data_cons = {n: static_env.data_cons[n]
                 for n in static_env.data_cons if n not in base_cons}
    synonyms = {n: static_env.synonyms[n]
                for n in static_env.synonyms if n not in base_synonyms}
    classes = {n: static_env.class_env.classes[n]
               for n in static_env.class_env.classes if n not in base_classes}
    instances = [info
                 for key, info in static_env.class_env.instances.items()
                 if key not in base_instances]
    kinds = {n: static_env.kind_env.kinds[n]
             for n in static_env.kind_env.kinds if n not in base_kinds}
    tycons = {n: static_env._tycons[n]
              for n in static_env._tycons if n not in base_tycons}

    exported = _exported_schemes(msrc, program, own_schemes, visible,
                                 data_types, data_cons, classes, synonyms)
    from repro.specialize.unfold import collect_unfoldings
    iface = ModuleInterface(
        module=msrc.name,
        source_sha=source_hash(msrc.source),
        imports=list(dict.fromkeys(msrc.import_names)),
        schemes=exported,
        kinds=kinds,
        tycons=tycons,
        data_types=data_types,
        data_cons=data_cons,
        synonyms=synonyms,
        classes=classes,
        instances=instances,
        fixities=dict(program.fixities) if program is not None else {},
        unfoldings=collect_unfoldings(own_core),
    )
    return ModuleArtifact(
        interface=iface,
        core=own_core,
        schemes=own_schemes,
        own_names=own_names,
        warnings=tuple(inferencer.warnings[base_warnings:]),
        phases=ctx.trace.as_dict(),
    )


def _exported_schemes(msrc: ModuleSource, program: Any,
                      own_schemes: Dict[str, Any],
                      visible: Dict[str, Tuple[Any, str]],
                      data_types: Dict[str, Any],
                      data_cons: Dict[str, Any],
                      classes: Dict[str, Any],
                      synonyms: Dict[str, Any]) -> Dict[str, Any]:
    """The value schemes *msrc* exports.  Without an export list, every
    user-visible own binding; with one, exactly the listed names —
    which may re-export imports.  Types, constructors and classes are
    always exported (and instances are global), so a name in the export
    list may also denote one of those."""
    exports = program.exports if program is not None else msrc.exports
    if exports is None:
        return {name: scheme for name, scheme in own_schemes.items()
                if not _generated(name)}
    out: Dict[str, Any] = {}
    for name in exports:
        if name in own_schemes and not _generated(name):
            out[name] = own_schemes[name]
        elif name in visible:
            out[name] = visible[name][0]  # re-export
        elif name in data_types or name in data_cons or \
                name in classes or name in synonyms:
            continue  # type-level entities are exported unconditionally
        else:
            raise ModuleError(
                f"module '{msrc.name}' exports '{name}' but neither "
                f"defines nor imports it")
    return out


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------


@dataclass
class OrphanInstanceWarning:
    """An instance declared in a module defining neither the class nor
    a data type of its head — legal (the link-time coherence check
    still holds) but fragile, so the link reports it."""

    class_name: str
    tycon_name: str
    module: str

    def __str__(self) -> str:
        return (f"orphan instance {self.class_name} {self.tycon_name} in "
                f"module '{self.module}' (the module defines neither the "
                f"class nor the data type)")


def link_modules(artifacts: Sequence[ModuleArtifact],
                 options: Optional[CompilerOptions] = None,
                 snapshot: Optional[PreludeSnapshot] = None):
    """Merge compiled modules into one runnable program.

    *artifacts* must be in topological order (imports first).  Every
    interface is replayed onto a fresh snapshot fork with provenance
    tracking — this is the global coherence check: a (class, type)
    instance pair reaching the link from two modules raises
    :class:`~repro.errors.DuplicateInstanceLinkError` naming both.
    The module cores are concatenated after the prelude core and the
    whole-program half of the pipeline (selectors, §8/§9 transforms)
    runs over the result, so the linked program's optimised core is the
    one a whole-program compile of the concatenated sources produces.
    """
    if snapshot is None:
        snapshot = get_default_snapshot(options)
    if options is None:
        options = snapshot.options
    static_env, inferencer = snapshot.fork()
    prov = _Provenance()
    value_origin: Dict[str, str] = {}
    warnings: List[Any] = []
    core: List[CoreBinding] = list(snapshot.core_bindings)
    #: top-level binding -> defining module, for the cross-module
    #: specializer (names not in the map belong to the prelude)
    origins: Dict[str, str] = {}
    unfoldings: Dict[str, Any] = {}
    for art in artifacts:
        iface = art.interface
        _apply_interface(static_env, inferencer, iface, prov)
        for name in art.own_names:
            if name in value_origin:
                raise LinkError(
                    f"top-level binding '{name}' is defined in module "
                    f"'{value_origin[name]}' and again in module "
                    f"'{iface.module}'")
            value_origin[name] = iface.module
        for name, scheme in art.schemes.items():
            inferencer.env.bind(name, SchemeEntry(scheme))
            inferencer.schemes[name] = scheme
        for inst in iface.instances:
            if inst.class_name not in iface.classes and not any(
                    tycon in iface.data_types for tycon, _ in inst.heads):
                warnings.append(OrphanInstanceWarning(
                    inst.class_name, inst.head_name, iface.module))
        warnings.extend(art.warnings)
        core.extend(art.core)
        for binding in art.core:
            origins[binding.name] = iface.module
        unfoldings.update(iface.unfoldings)
    inferencer.install_methods()
    inferencer.warnings.extend(warnings)
    ctx = CompileContext.forked(options, [], static_env, inferencer,
                                prefix_core=tuple(core),
                                n_prefix_bindings=snapshot.n_bindings,
                                transformed=snapshot.transformed())
    ctx.imports_resolved = True
    ctx.module_origins = origins
    ctx.unfoldings = unfoldings
    default_pass_manager().run(ctx)
    from repro.driver import program_from_context
    return program_from_context(ctx)


# ---------------------------------------------------------------------------
# The builder: cache + link
# ---------------------------------------------------------------------------


@dataclass
class BuildResult:
    """Outcome of one :meth:`ModuleBuilder.build`."""

    #: the linked program (None when linking was skipped)
    program: Optional[Any]
    graph: ModuleGraph
    #: per-module stats: ``{cached, ms, fingerprint[, phases]}``
    modules: Dict[str, Dict[str, Any]]
    order: List[str]
    #: compile-cache counters at the end of the build
    cache: Dict[str, Any]
    seconds: float
    #: the *jobs* the build was given, echoed: it sets nothing, since
    #: every build compiles on the calling thread
    jobs: int

    @property
    def n_cached(self) -> int:
        return sum(1 for s in self.modules.values() if s["cached"])

    @property
    def n_compiled(self) -> int:
        return len(self.modules) - self.n_cached

    def stats(self) -> Dict[str, Any]:
        """JSON-ready summary (the CLI's ``--stats-json`` and the
        server's ``build`` reply)."""
        return {
            "modules": {name: dict(info)
                        for name, info in self.modules.items()},
            "order": list(self.order),
            "n_modules": len(self.order),
            "n_compiled": self.n_compiled,
            "n_cached": self.n_cached,
            "jobs": self.jobs,
            "ms": round(self.seconds * 1e3, 3),
            "cache": dict(self.cache),
        }


@dataclass
class CheckResult:
    """Outcome of one :meth:`ModuleBuilder.check` — type-checking
    without a linked program, tolerant of per-module failures."""

    graph: ModuleGraph
    #: per-module stats: ``{status, ms, ...}`` where status is one of
    #: ``checked`` (fresh compile), ``cached`` (artifact cache hit),
    #: ``error`` (diagnostic recorded) or ``skipped`` (an import
    #: failed, so the module could not be checked)
    modules: Dict[str, Dict[str, Any]]
    order: List[str]
    #: ``(module name, error)`` for every module that failed
    diagnostics: List[Tuple[str, ReproError]]
    cache: Dict[str, Any]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def _count(self, status: str) -> int:
        return sum(1 for s in self.modules.values()
                   if s["status"] == status)

    def stats(self) -> Dict[str, Any]:
        """JSON-ready summary (the CLI's ``--stats-json`` and the
        server's ``check`` reply)."""
        return {
            "ok": self.ok,
            "modules": {name: dict(info)
                        for name, info in self.modules.items()},
            "order": list(self.order),
            "n_modules": len(self.order),
            "n_checked": self._count("checked"),
            "n_cached": self._count("cached"),
            "n_errors": self._count("error"),
            "n_skipped": self._count("skipped"),
            "ms": round(self.seconds * 1e3, 3),
            "cache": dict(self.cache),
        }


class ModuleBuilder:
    """Builds module graphs: looks up or compiles each module on the
    calling thread, in topological order, through the
    content-addressed artifact cache, writes interface files, links.

    Thread safe per build; a builder may be reused across builds and
    its cache then provides incrementality — after an edit, only the
    edited module and the dependents whose closure fingerprints moved
    miss the cache.
    """

    def __init__(self, options: Optional[CompilerOptions] = None,
                 snapshot: Optional[PreludeSnapshot] = None,
                 cache: Optional[CompileCache] = None) -> None:
        if options is None:
            options = snapshot.options if snapshot is not None \
                else CompilerOptions()
        self.options = options
        self._options_fp = options_fingerprint(options)
        self.snapshot = snapshot if snapshot is not None \
            else get_default_snapshot(options)
        if cache is None:
            cache = CompileCache(
                capacity=max(options.cache_size, 1),
                disk_dir=resolve_cache_dir(options),
                disk_budget=options.cache_disk_budget)
        self.cache = cache

    # ------------------------------------------------------------- building

    def build(self, graph: ModuleGraph, jobs: Optional[int] = None,
              out_dir: Optional[str] = None,
              link: bool = True) -> BuildResult:
        """Compile every module in *graph* (cache permitting), then
        link.  *out_dir* receives ``.ri`` interface files as modules
        finish.

        Every module is looked up and compiled on the calling thread,
        in topological order; the first failure is raised.  *jobs* is
        accepted and echoed in :attr:`BuildResult.jobs`, and sets
        nothing else (docs/MODULES.md gives the measurements behind
        one thread).
        """
        t0 = time.perf_counter()
        if jobs is None:
            jobs = DEFAULT_JOBS
        jobs = max(1, int(jobs))
        interfaces: Dict[str, ModuleInterface] = {}
        artifacts: List[ModuleArtifact] = []
        stats: Dict[str, Dict[str, Any]] = {}
        for name in graph.order:
            art, info = self._build_module(graph.modules[name],
                                           graph.closure(name),
                                           interfaces, out_dir)
            if not info["cached"]:
                info["phases"] = art.phases
            artifacts.append(art)
            stats[name] = info

        program = None
        if link:
            program = link_modules(artifacts, self.options, self.snapshot)
        return BuildResult(program=program, graph=graph, modules=stats,
                           order=list(graph.order),
                           cache=self.cache.snapshot(),
                           seconds=time.perf_counter() - t0, jobs=jobs)

    def _build_module(self, msrc: ModuleSource, closure: Sequence[str],
                      interfaces: Dict[str, ModuleInterface],
                      out_dir: Optional[str]
                      ) -> Tuple[ModuleArtifact, Dict[str, Any]]:
        """One module of a build or a check: its artifact from the
        cache, or compiled against the *interfaces* of its import
        *closure* on a miss (a compile error propagates), and its
        stats ``{cached, ms, fingerprint, source_sha, unfold_fp}``.
        Records the interface in *interfaces* and writes its ``.ri``
        file to *out_dir*."""
        key = self._key(msrc, closure, interfaces)
        t = time.perf_counter()
        art = self.cache.get(key)
        cached = art is not None
        if not cached:
            art = compile_module(msrc, [interfaces[dep] for dep in closure],
                                 self.options, self.snapshot)
            self.cache.put(key, art)
        interfaces[msrc.name] = art.interface
        info: Dict[str, Any] = {
            "cached": cached,
            "ms": _ms_since(t),
            "fingerprint": art.interface.fingerprint,
            "source_sha": art.interface.source_sha,
            "unfold_fp": art.interface.unfold_fp,
        }
        if out_dir:
            self._write_interface(out_dir, msrc.name, art.interface)
        return art, info

    @staticmethod
    def _write_interface(out_dir: str, name: str,
                         interface: ModuleInterface) -> None:
        path = interface_path(out_dir, name)
        # The file is compared byte for byte with what would be written,
        # never unpickled: an identical one is left alone (stable mtimes
        # for downstream build tools), and any other (an older format
        # version, corruption, another interface) is overwritten.
        payload = interface_bytes(interface)
        try:
            with open(path, "rb") as handle:
                if handle.read() == payload:
                    return
        except OSError:
            pass
        save_interface(interface, path)

    # ------------------------------------------------------------- checking

    def check(self, graph: ModuleGraph,
              out_dir: Optional[str] = None) -> CheckResult:
        """Type-check every module in *graph* without linking or
        evaluating anything.

        Unlike :meth:`build` (fail-fast: the first error aborts the
        whole build) the check loop is *tolerant*: a module that fails
        to compile is recorded as a diagnostic, its dependents are
        marked ``skipped`` (their imports have no interface to apply),
        and every module whose imports are intact is still checked —
        one request reports all independent errors at once.

        Cache reuse is exactly :meth:`build`'s: the artifact key
        covers the source, the options, the prelude and the transitive
        interface fingerprints, so a warm re-check after a body-only
        edit re-infers the edited module alone — its dependents' keys
        are cut off at the unchanged interface fingerprint and hit the
        cache.
        """
        t0 = time.perf_counter()
        interfaces: Dict[str, ModuleInterface] = {}
        stats: Dict[str, Dict[str, Any]] = {}
        diagnostics: List[Tuple[str, ReproError]] = []
        broken: set = set()  # failed or skipped modules

        for name in graph.order:
            closure = graph.closure(name)
            blocked_on = sorted(dep for dep in closure if dep in broken)
            if blocked_on:
                broken.add(name)
                stats[name] = {"status": "skipped",
                               "blocked_on": blocked_on}
                continue
            t = time.perf_counter()
            try:
                _art, info = self._build_module(graph.modules[name],
                                                closure, interfaces,
                                                out_dir)
            except ReproError as exc:
                broken.add(name)
                diagnostics.append((name, exc))
                stats[name] = {"status": "error", "code": exc.code,
                               "ms": _ms_since(t)}
                continue
            stats[name] = {"status": "cached" if info["cached"]
                           else "checked", **info}

        return CheckResult(graph=graph, modules=stats,
                           order=list(graph.order),
                           diagnostics=diagnostics,
                           cache=self.cache.snapshot(),
                           seconds=time.perf_counter() - t0)

    def _key(self, msrc: ModuleSource, closure: Sequence[str],
             interfaces: Dict[str, ModuleInterface]) -> str:
        """:func:`module_cache_key` for *msrc* under this builder."""
        return _module_key(
            msrc.source, self._options_fp, self.snapshot.fingerprint,
            [(dep, interfaces[dep].fingerprint) for dep in closure])


def _ms_since(t: float) -> float:
    return round((time.perf_counter() - t) * 1e3, 3)


def build_modules(paths: Sequence[str],
                  options: Optional[CompilerOptions] = None,
                  out_dir: Optional[str] = None,
                  snapshot: Optional[PreludeSnapshot] = None,
                  cache: Optional[CompileCache] = None,
                  link: bool = True) -> BuildResult:
    """Discover, build and link the modules under *paths* — the one
    call behind ``repro build``.  Raises :class:`ReproError` subclasses
    for every user-facing failure (resolution, compilation, linking)."""
    graph = discover_modules(paths)
    builder = ModuleBuilder(options=options, snapshot=snapshot, cache=cache)
    return builder.build(graph, out_dir=out_dir, link=link)


def check_modules(paths: Sequence[str],
                  options: Optional[CompilerOptions] = None,
                  out_dir: Optional[str] = None,
                  snapshot: Optional[PreludeSnapshot] = None,
                  cache: Optional[CompileCache] = None) -> CheckResult:
    """Discover and type-check the modules under *paths* without
    linking — the call behind ``repro check`` in module mode and the
    server's ``check`` verb.  Per-module compile errors are collected
    in the result, not raised; only *resolution* failures (unreadable
    path, import cycle, missing module) raise."""
    graph = discover_modules(paths)
    builder = ModuleBuilder(options=options, snapshot=snapshot, cache=cache)
    return builder.check(graph, out_dir=out_dir)


__all__ = [
    "BuildResult",
    "CheckResult",
    "check_modules",
    "ModuleArtifact",
    "ModuleBuilder",
    "OrphanInstanceWarning",
    "ReproError",
    "build_modules",
    "compile_module",
    "link_modules",
    "module_cache_key",
]
