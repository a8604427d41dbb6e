"""Module discovery and the import DAG.

The resolver does a *header scan* of each source — real lexer, real
parser productions, but only as far as the ``module``/``import``
prefix — so dependency analysis never depends on fixities or other
cross-module context the full parse needs.  The body is parsed later,
by the per-module compile, with imported fixities in hand.  A
successful scan is memoized on a digest of the text, so a rebuild
lexes only the modules whose text changed.

The import graph must be a DAG: strongly connected components of size
greater than one (and self-imports) are rejected with a located
:class:`~repro.errors.ModuleCycleError`, reusing
:func:`repro.util.graph.strongly_connected_components`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ModuleCycleError, ModuleError, UnknownModuleError
from repro.lang import ast
from repro.lang.lexer import lex
from repro.lang.parser import Parser
from repro.limits import DEFAULT_PARSE_DEPTH
from repro.util.graph import Digraph, strongly_connected_components

#: extension of module source files
MODULE_SUFFIX = ".mhs"


@dataclass
class ModuleSource:
    """One module's source text plus its scanned header."""

    name: str
    filename: str
    source: str
    imports: List[ast.ImportDecl] = field(default_factory=list)
    exports: Optional[List[str]] = None

    @property
    def import_names(self) -> List[str]:
        return [imp.module for imp in self.imports]


#: header scans kept process-wide (see :func:`scan_module_source`);
#: at the cap the oldest entry makes room
_HEADER_MEMO_CAP = 4096
_header_memo: Dict[Tuple[bytes, str, Optional[str], int],
                   Tuple[str, Tuple[ast.ImportDecl, ...],
                         Optional[Tuple[str, ...]]]] = {}
_header_lock = threading.Lock()


def scan_module_source(source: str, filename: str = "<input>",
                       name: Optional[str] = None,
                       max_depth: int = DEFAULT_PARSE_DEPTH) -> ModuleSource:
    """Scan the ``module``/``import`` prefix of *source*.

    The module's name comes from the header when present, else from
    *name*, else from the file name's stem.  A header that contradicts
    the file name is rejected — the resolver maps names to files, so
    they must agree.

    A successful scan is memoized under a SHA-256 of the text with
    *filename*, *name* and *max_depth* (positions name the file), in
    one table that concurrent resolutions share.  A failing text is
    never memoized: it is scanned again, and its error (a lex error
    anywhere in the body, say) raised, every time.  Each call returns
    fresh lists, so a caller may mutate what it gets.
    """
    # surrogatepass: a lone surrogate must reach the lexer, not fail here
    digest = hashlib.sha256(
        source.encode("utf-8", "surrogatepass")).digest()
    key = (digest, filename, name, max_depth)
    header = _header_memo.get(key)
    if header is None:
        header = _scan_header(source, filename, name, max_depth)
        with _header_lock:
            if len(_header_memo) >= _HEADER_MEMO_CAP:
                del _header_memo[next(iter(_header_memo))]
            _header_memo[key] = header
    module_name, imports, exports = header
    return ModuleSource(
        module_name, filename, source,
        [ast.ImportDecl(imp.module,
                        None if imp.names is None else list(imp.names),
                        imp.pos)
         for imp in imports],
        None if exports is None else list(exports))


def _scan_header(source: str, filename: str, name: Optional[str],
                 max_depth: int
                 ) -> Tuple[str, Tuple[ast.ImportDecl, ...],
                            Optional[Tuple[str, ...]]]:
    """The uncached scan: ``(module name, imports, exports)``."""
    tokens = lex(source, filename)
    parser = Parser(tokens, source, max_depth=max_depth)
    module_name: Optional[str] = None
    exports: Optional[List[str]] = None
    if parser.peek().is_keyword("module"):
        module_name, exports = parser.parse_module_header()
    imports: List[ast.ImportDecl] = []
    if parser.peek().is_special("{"):
        parser.advance()
        parser.skip_semis()
        while parser.peek().is_keyword("import"):
            imports.append(parser.parse_import_decl())
            if parser.peek().is_special(";"):
                parser.skip_semis()
            else:
                break
    stem = _stem(filename)
    if module_name is None:
        module_name = name or stem
        if not _valid_module_name(module_name):
            raise ModuleError(
                f"cannot derive a module name from '{filename}': add a "
                f"'module M where' header or name the file like the "
                f"module (Name{MODULE_SUFFIX})")
    elif name is not None and name != module_name:
        raise ModuleError(
            f"module header says '{module_name}' but the build request "
            f"names it '{name}'")
    elif stem is not None and stem != module_name:
        raise ModuleError(
            f"module '{module_name}' is defined in '{filename}'; the "
            f"file must be named {module_name}{MODULE_SUFFIX} so imports "
            f"can find it")
    return (module_name, tuple(imports),
            None if exports is None else tuple(exports))


def _stem(filename: str) -> Optional[str]:
    """The file-name stem when *filename* looks like a real module file
    (``Foo.mhs`` -> ``Foo``); None for synthetic names like ``<input>``."""
    base = os.path.basename(filename)
    if not base.endswith(MODULE_SUFFIX):
        return None
    return base[:-len(MODULE_SUFFIX)]


def _valid_module_name(name: Optional[str]) -> bool:
    return bool(name) and name[0].isupper() and \
        all(c.isalnum() or c in "_'" for c in name)


class ModuleGraph:
    """The import DAG over a set of modules, topologically ordered."""

    def __init__(self, modules: Dict[str, ModuleSource],
                 order: List[str]) -> None:
        #: module name -> source, insertion-ordered by discovery
        self.modules = modules
        #: topological order: every module after all of its imports
        self.order = order
        self.deps: Dict[str, List[str]] = {
            name: list(dict.fromkeys(src.import_names))
            for name, src in modules.items()}
        self.dependents: Dict[str, List[str]] = {name: [] for name in modules}
        for name, deps in self.deps.items():
            for dep in deps:
                self.dependents[dep].append(name)

    def closure(self, name: str) -> List[str]:
        """The transitive imports of *name* (not including itself), in
        topological order — the interfaces a compile of *name* sees."""
        seen = set()
        stack = list(self.deps[name])
        while stack:
            dep = stack.pop()
            if dep in seen:
                continue
            seen.add(dep)
            stack.extend(self.deps[dep])
        return [m for m in self.order if m in seen]

    def dependents_closure(self, name: str) -> List[str]:
        """Every module that (transitively) imports *name*."""
        seen = set()
        stack = list(self.dependents[name])
        while stack:
            dep = stack.pop()
            if dep in seen:
                continue
            seen.add(dep)
            stack.extend(self.dependents[dep])
        return [m for m in self.order if m in seen]


def resolve_graph(sources: Sequence[ModuleSource]) -> ModuleGraph:
    """Form the import DAG, rejecting duplicates, unknown imports,
    self-imports and cycles with located errors."""
    modules: Dict[str, ModuleSource] = {}
    for src in sources:
        other = modules.get(src.name)
        if other is not None:
            raise ModuleError(
                f"module '{src.name}' is defined twice: in "
                f"'{other.filename}' and '{src.filename}'")
        modules[src.name] = src
    graph = Digraph()
    for name in modules:
        graph.add_node(name)
    for name, src in modules.items():
        for imp in src.imports:
            if imp.module not in modules:
                raise UnknownModuleError(
                    f"import of unknown module '{imp.module}' (known "
                    f"modules: {', '.join(sorted(modules)) or 'none'})",
                    imp.pos)
            if imp.module == name:
                raise ModuleCycleError([name], imp.pos)
            graph.add_edge(name, imp.module)
    order: List[str] = []
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            cycle = sorted(component)
            pos = None
            for member in cycle:
                for imp in modules[member].imports:
                    if imp.module in component:
                        pos = imp.pos
                        break
                if pos is not None:
                    break
            raise ModuleCycleError(cycle, pos)
        order.append(component[0])
    return ModuleGraph(modules, order)


def discover_modules(paths: Sequence[str],
                     max_depth: int = DEFAULT_PARSE_DEPTH) -> ModuleGraph:
    """Scan *paths* (directories searched recursively for ``*.mhs``
    files, or explicit files) into a resolved module graph."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for fname in sorted(names):
                    if fname.endswith(MODULE_SUFFIX):
                        files.append(os.path.join(root, fname))
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise ModuleError(f"no such file or directory: '{path}'")
    if not files:
        raise ModuleError(
            f"no module sources found under {', '.join(paths)} "
            f"(module files end in {MODULE_SUFFIX})")
    sources = []
    for fname in dict.fromkeys(files):
        with open(fname, "r", encoding="utf-8") as handle:
            text = handle.read()
        sources.append(scan_module_source(text, fname, max_depth=max_depth))
    return resolve_graph(sources)


def scan_inline_modules(
        specs: Sequence[Union[Tuple[Optional[str], str], Dict[str, str]]],
        max_depth: int = DEFAULT_PARSE_DEPTH) -> ModuleGraph:
    """Resolve modules supplied as in-memory sources (the server's
    ``build`` verb): each spec is ``{"source": ..., "filename"?: ...,
    "name"?: ...}`` or a ``(name, source)`` pair."""
    sources = []
    for spec in specs:
        if isinstance(spec, dict):
            name = spec.get("name")
            text = spec.get("source", "")
            filename = spec.get("filename") or \
                (f"<{name}>" if name else "<module>")
        else:
            name, text = spec
            filename = f"<{name}>" if name else "<module>"
        sources.append(scan_module_source(text, filename, name=name,
                                          max_depth=max_depth))
    return resolve_graph(sources)
