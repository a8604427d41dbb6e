"""Module system with separate compilation (paper §8.6 made real).

A *module* is one source file with an optional ``module M where``
header and leading ``import`` declarations.  The subsystem splits
compilation of a multi-module program into:

* :mod:`repro.modules.resolve` — discover module sources, scan their
  headers, and form the import DAG (cycles are rejected);
* :mod:`repro.modules.interface` — the serialized ``.ri`` interface: a
  module's exported schemes, types, classes, instance 4-tuples and a
  content fingerprint.  A module compiles against its imports'
  interfaces alone, never their sources;
* :mod:`repro.modules.build` — per-module compilation on a prelude
  snapshot fork, content-addressed caching keyed on (source, options,
  dep-interface fingerprints), topological-order builds on the calling
  thread, and the link step that merges instance environments with a
  coherence check.
"""

from repro.modules.build import (
    BuildResult,
    ModuleArtifact,
    ModuleBuilder,
    build_modules,
    compile_module,
    link_modules,
    module_cache_key,
)
from repro.modules.interface import (
    INTERFACE_VERSION,
    ModuleInterface,
    load_interface,
    save_interface,
)
from repro.modules.resolve import (
    ModuleGraph,
    ModuleSource,
    discover_modules,
    resolve_graph,
    scan_module_source,
)

__all__ = [
    "BuildResult",
    "INTERFACE_VERSION",
    "ModuleArtifact",
    "ModuleBuilder",
    "ModuleGraph",
    "ModuleInterface",
    "ModuleSource",
    "build_modules",
    "compile_module",
    "discover_modules",
    "link_modules",
    "load_interface",
    "module_cache_key",
    "resolve_graph",
    "save_interface",
    "scan_module_source",
]
