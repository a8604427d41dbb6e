"""Module-system tests: resolution, interfaces, separate compilation,
linking, incrementality, the CLI and the server verb.

The load-bearing property is *equivalence*: a program split into
modules, compiled separately against interface files and linked, must
produce the same schemes and the same evaluation results as a
whole-program compile of the concatenated sources (module/import
syntax stripped).  Everything else — cut-off incremental rebuilds, the
coherence check, visibility — is layered on top of that guarantee.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.driver import compile_source
from repro.errors import (
    DuplicateInstanceLinkError,
    LexError,
    LinkError,
    ModuleCycleError,
    ModuleError,
    ReproError,
    SourcePos,
    StaticError,
    UnknownModuleError,
)
from repro.modules import (
    ModuleBuilder,
    build_modules,
    compile_module,
    load_interface,
    module_cache_key,
    resolve_graph,
    save_interface,
    scan_module_source,
)
from repro.modules.interface import (
    INTERFACE_VERSION,
    interface_bytes,
    interface_path,
)
from repro.modules.resolve import scan_inline_modules
from repro.options import CompilerOptions
from repro.service.snapshot import get_default_snapshot

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODTREE = os.path.join(REPO_ROOT, "examples", "modtree")


def graph_of(*pairs):
    return scan_inline_modules(list(pairs))


def strip_headers(source: str) -> str:
    return "\n".join(
        line for line in source.splitlines()
        if not line.startswith("module ") and not line.startswith("import "))


def whole_program(graph) -> str:
    return "\n".join(strip_headers(graph.modules[name].source)
                     for name in graph.order)


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

class TestScan:
    def test_header_names_module(self):
        src = scan_module_source("module Foo where\nx = 1", "<test>")
        assert src.name == "Foo"
        assert src.exports is None
        assert src.import_names == []

    def test_header_with_exports_and_imports(self):
        src = scan_module_source(
            "module Foo (x, y) where\nimport Bar\nimport Baz (f, g)\nx = 1",
            "<test>")
        assert src.exports == ["x", "y"]
        assert src.import_names == ["Bar", "Baz"]
        assert src.imports[1].names == ["f", "g"]

    def test_name_from_filename_stem(self):
        src = scan_module_source("x = 1", "/some/dir/Util.mhs")
        assert src.name == "Util"

    def test_headerless_synthetic_needs_name(self):
        with pytest.raises(ModuleError):
            scan_module_source("x = 1", "<test>")

    def test_header_file_stem_conflict(self):
        with pytest.raises(ModuleError, match="must be named"):
            scan_module_source("module Foo where\nx = 1", "/d/Bar.mhs")

    def test_header_request_name_conflict(self):
        with pytest.raises(ModuleError, match="build request"):
            scan_module_source("module Foo where\nx = 1", "<t>", name="Bar")

    def test_body_lex_error_raised_on_every_scan(self):
        # Only successful scans are memoized: a text whose body does
        # not lex fails the same way on the second resolution too.
        spec = ("A", "module A where\nx = 1\ny = \"abc\n")
        errors = []
        for _ in range(2):
            with pytest.raises(LexError) as exc:
                scan_inline_modules([spec])
            errors.append((str(exc.value), exc.value.pos))
        assert errors[0] == errors[1]
        assert errors[0][1] == SourcePos(3, 5, "<A>")

    def test_import_positions_name_each_file(self):
        text = "module Foo where\nimport Bar\nx = 1"
        first = scan_module_source(text, "/one/Foo.mhs")
        second = scan_module_source(text, "/two/Foo.mhs")
        assert first.imports[0].pos == SourcePos(2, 1, "/one/Foo.mhs")
        assert second.imports[0].pos == SourcePos(2, 1, "/two/Foo.mhs")

    def test_concurrent_scans_share_the_memo(self, monkeypatch):
        # Server resolutions scan on several threads at once.  With a
        # small cap nearly every insert evicts; a lost update would
        # raise, return a wrong header or leave the table over its cap.
        from repro.modules import resolve
        monkeypatch.setattr(resolve, "_HEADER_MEMO_CAP", 8)
        monkeypatch.setattr(resolve, "_header_memo", {})
        texts = [f"module M{i} where\nimport Base\nx = {i}\n"
                 for i in range(24)]
        errors = []

        def work(k):
            try:
                for step in range(40):
                    i = (k * 5 + step) % len(texts)
                    src = resolve.scan_module_source(texts[i], "<t>")
                    assert src.name == f"M{i}"
                    assert src.import_names == ["Base"]
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(resolve._header_memo) <= 8

    def test_scan_results_do_not_share_lists(self):
        text = "module Foo (x) where\nimport Bar (f)\nx = 1"
        first = scan_module_source(text, "<Foo>")
        first.imports[0].names.append("g")
        first.imports.append(first.imports[0])
        first.exports.append("y")
        second = scan_module_source(text, "<Foo>")
        assert second.import_names == ["Bar"]
        assert second.imports[0].names == ["f"]
        assert second.exports == ["x"]


class TestResolve:
    def test_topological_order(self):
        g = graph_of(("C", "module C where\nimport B\nc = b"),
                     ("A", "module A where\na = 1"),
                     ("B", "module B where\nimport A\nb = a"))
        assert g.order == ["A", "B", "C"]
        assert g.closure("C") == ["A", "B"]
        assert g.dependents_closure("A") == ["B", "C"]

    def test_unknown_import_is_located(self):
        with pytest.raises(UnknownModuleError) as exc:
            graph_of(("A", "module A where\nimport Nowhere\na = 1"))
        assert exc.value.code == "module.unknown"
        assert exc.value.pos is not None

    def test_self_import_rejected(self):
        with pytest.raises(ModuleCycleError) as exc:
            graph_of(("A", "module A where\nimport A\na = 1"))
        assert exc.value.code == "module.cycle"

    def test_cycle_rejected_with_located_error(self):
        with pytest.raises(ModuleCycleError) as exc:
            graph_of(("A", "module A where\nimport B\na = 1"),
                     ("B", "module B where\nimport A\nb = 2"))
        assert "A" in str(exc.value) and "B" in str(exc.value)
        assert exc.value.pos is not None

    def test_duplicate_module_rejected(self):
        with pytest.raises(ModuleError, match="defined twice"):
            resolve_graph([scan_module_source("module A where\nx = 1", "<1>"),
                           scan_module_source("module A where\ny = 2", "<2>")])


# ---------------------------------------------------------------------------
# Single-file compiles reject imports (nothing to resolve against)
# ---------------------------------------------------------------------------

class TestSingleFileImports:
    def test_import_raises_located_module_unknown(self):
        with pytest.raises(UnknownModuleError) as exc:
            compile_source("module A where\nimport B\nmain = 1")
        assert exc.value.code == "module.unknown"
        assert exc.value.pos.line == 2

    def test_bare_module_header_is_fine(self):
        program = compile_source("module Main where\nmain = 41 + 1")
        assert program.run("main") == 42


# ---------------------------------------------------------------------------
# Interfaces
# ---------------------------------------------------------------------------

class TestInterfaces:
    SRC = ("module Lib where\n"
           "data Box a = MkBox a deriving (Eq, Text)\n"
           "unbox :: Box a -> a\n"
           "unbox (MkBox x) = x\n"
           "boxed :: Box Int\n"
           "boxed = MkBox 7\n")

    def build_lib(self):
        msrc = scan_module_source(self.SRC, "<Lib>")
        return compile_module(msrc, [])

    def test_round_trip_preserves_fingerprint_and_render(self, tmp_path):
        art = self.build_lib()
        path = interface_path(str(tmp_path), "Lib")
        save_interface(art.interface, path)
        loaded = load_interface(path)
        assert loaded.module == "Lib"
        assert loaded.fingerprint == art.interface.fingerprint
        assert loaded.render() == art.interface.render()
        assert {n: str(s) for n, s in loaded.schemes.items()} \
            == {n: str(s) for n, s in art.interface.schemes.items()}

    def test_recompile_against_loaded_interface_is_identical(self, tmp_path):
        """Satellite 3: serialize -> deserialize -> compile a dependent
        against the loaded interface; schemes and fingerprints must
        match both the in-memory route and whole-program compilation."""
        art = self.build_lib()
        path = interface_path(str(tmp_path), "Lib")
        save_interface(art.interface, path)
        loaded = load_interface(path)

        dep_src = ("module App where\n"
                   "import Lib\n"
                   "app :: Int\n"
                   "app = unbox boxed + unbox (MkBox 3)\n")
        msrc = scan_module_source(dep_src, "<App>")
        via_memory = compile_module(msrc, [art.interface])
        via_disk = compile_module(msrc, [loaded])
        assert via_disk.interface.fingerprint \
            == via_memory.interface.fingerprint
        assert {n: str(s) for n, s in via_disk.schemes.items()} \
            == {n: str(s) for n, s in via_memory.schemes.items()}

        whole = compile_source(strip_headers(self.SRC)
                               + "\n" + strip_headers(dep_src))
        assert str(whole.schemes["app"]) \
            == str(via_disk.interface.schemes["app"])

    def test_payload_memo_stays_out_of_pickles(self, tmp_path):
        # interface_bytes keeps the .ri payload on the interface; the
        # file, cache entries and worker pipes never carry it.
        import pickle
        iface = self.build_lib().interface
        before = pickle.dumps(iface)
        payload = interface_bytes(iface)
        assert pickle.dumps(iface) == before
        path = interface_path(str(tmp_path), "Lib")
        save_interface(iface, path)
        with open(path, "rb") as handle:
            assert handle.read() == payload
        assert interface_bytes(load_interface(path)) == payload

    def test_fingerprint_ignores_bodies_tracks_surface(self):
        base = self.build_lib().interface.fingerprint
        body_edit = self.SRC.replace("unbox (MkBox x) = x",
                                     "unbox (MkBox x) = id x")
        art2 = compile_module(scan_module_source(body_edit, "<Lib>"), [])
        assert art2.interface.fingerprint == base
        surface_edit = self.SRC + "more :: Int\nmore = 1\n"
        art3 = compile_module(scan_module_source(surface_edit, "<Lib>"), [])
        assert art3.interface.fingerprint != base

    def test_version_skew_rejected(self, tmp_path):
        art = self.build_lib()
        path = interface_path(str(tmp_path), "Lib")
        save_interface(art.interface, path)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[8] = INTERFACE_VERSION + 1  # the version byte
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(ModuleError, match="version"):
            load_interface(path)

    def test_not_an_interface_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ri")
        with open(path, "wb") as handle:
            handle.write(b"not an interface")
        with pytest.raises(ModuleError):
            load_interface(path)


# ---------------------------------------------------------------------------
# Separate compilation == whole-program compilation
# ---------------------------------------------------------------------------

#: multi-module corpora: (name, modules, entry, expected user names)
EQUIVALENCE_CORPUS = [
    ("values", [
        ("A", "module A where\nbase :: Int\nbase = 10\n"),
        ("B", "module B where\nimport A\nuseB x = base + x\n"),
        ("Main", "module Main where\nimport B\nmain = useB 5\n"),
    ], "main"),
    ("class_instance_split", [
        ("Cls", "module Cls where\nclass Sized a where\n  size :: a -> Int\n"),
        ("Ty", "module Ty where\ndata Tree = Leaf | Node Tree Tree\n"),
        ("Inst", "module Inst where\nimport Cls\nimport Ty\n"
                 "instance Sized Tree where\n"
                 "  size Leaf = 1\n"
                 "  size (Node l r) = 1 + size l + size r\n"),
        ("Main", "module Main where\nimport Cls\nimport Ty\nimport Inst\n"
                 "main = size (Node (Node Leaf Leaf) Leaf)\n"),
    ], "main"),
    ("superclass_across_modules", [
        ("S", "module S where\nclass Semi a where\n  combine :: a -> a -> a\n"),
        ("M", "module M where\nimport S\n"
              "class Semi a => Mon a where\n  unit :: a\n"
              "fold1 :: Mon a => [a] -> a\nfold1 = foldr combine unit\n"),
        ("I", "module I where\nimport S\nimport M\n"
              "data Sum = Sum Int deriving (Eq, Text)\n"
              "instance Semi Sum where\n"
              "  combine (Sum a) (Sum b) = Sum (a + b)\n"
              "instance Mon Sum where\n  unit = Sum 0\n"),
        ("Main", "module Main where\nimport M (fold1)\nimport I\n"
                 "main = show (fold1 [Sum 1, Sum 2, Sum 3])\n"),
    ], "main"),
    ("overloading_and_deriving", [
        ("N", "module N where\n"
              "data Parity = Even | Odd deriving (Eq, Ord, Text)\n"
              "parity :: Int -> Parity\n"
              "parity n = if n `mod` 2 == 0 then Even else Odd\n"),
        ("Main", "module Main where\nimport N\n"
                 "main = (parity 4, parity 7, Even < Odd, show Odd)\n"),
    ], "main"),
]


@pytest.mark.parametrize("name,modules,entry", EQUIVALENCE_CORPUS,
                         ids=[c[0] for c in EQUIVALENCE_CORPUS])
def test_separate_equals_whole_program(name, modules, entry):
    graph = graph_of(*modules)
    result = ModuleBuilder().build(graph)
    whole = compile_source(whole_program(graph))
    linked = result.program
    assert linked.run(entry) == whole.run(entry)
    user = {n for n in whole.schemes if "$" not in n and "@" not in n}
    for binding in sorted(user):
        assert str(linked.schemes[binding]) == str(whole.schemes[binding]), \
            binding


def test_linked_program_supports_eval_and_typeof():
    graph = graph_of(
        ("A", "module A where\ntwice :: Int -> Int\ntwice x = x + x\n"),
        ("Main", "module Main where\nimport A\nmain = twice 21\n"))
    program = ModuleBuilder().build(graph).program
    assert program.run("main") == 42
    assert program.eval("twice 4") == 8
    assert "Int" in program.type_of("twice 1")


# ---------------------------------------------------------------------------
# Link-time coherence and conflicts
# ---------------------------------------------------------------------------

CLS = "module Cls where\nclass Pretty a where\n  pretty :: a -> String\n"
TY = "module Ty where\ndata Thing = Thing\n"
INST_A = ("module InstA where\nimport Cls\nimport Ty\n"
          "instance Pretty Thing where\n  pretty t = \"a\"\n")
INST_B = ("module InstB where\nimport Cls\nimport Ty\n"
          "instance Pretty Thing where\n  pretty t = \"b\"\n")


class TestLinkCoherence:
    def test_duplicate_instance_names_both_modules(self):
        graph = graph_of(("Cls", CLS), ("Ty", TY),
                         ("InstA", INST_A), ("InstB", INST_B),
                         ("Main", "module Main where\nimport Cls\n"
                                  "import Ty\nimport InstA\nmain = 1\n"))
        with pytest.raises(DuplicateInstanceLinkError) as exc:
            ModuleBuilder().build(graph)
        message = str(exc.value)
        assert "InstA" in message and "InstB" in message
        assert exc.value.code == "module.link.duplicate-instance"

    def test_duplicate_instance_caught_at_compile_when_imported(self):
        # A module importing both instance modules sees the clash while
        # *it* compiles — same error, earlier.
        graph = graph_of(("Cls", CLS), ("Ty", TY),
                         ("InstA", INST_A), ("InstB", INST_B),
                         ("Main", "module Main where\nimport InstA\n"
                                  "import InstB\nmain = 1\n"))
        with pytest.raises(DuplicateInstanceLinkError):
            ModuleBuilder().build(graph)

    def test_duplicate_value_names_both_modules(self):
        graph = graph_of(("A", "module A where\nshared = 1\n"),
                         ("B", "module B where\nshared = 2\n"),
                         ("Main", "module Main where\nimport A\nmain = 1\n"))
        with pytest.raises(LinkError) as exc:
            ModuleBuilder().build(graph)
        assert "'A'" in str(exc.value) and "'B'" in str(exc.value)

    def test_duplicate_data_type_names_both_modules(self):
        graph = graph_of(("A", "module A where\ndata T = MkA\n"),
                         ("B", "module B where\ndata T = MkB\n"))
        with pytest.raises(LinkError) as exc:
            ModuleBuilder().build(graph)
        assert "'A'" in str(exc.value) and "'B'" in str(exc.value)

    def test_orphan_instance_warned(self):
        graph = graph_of(("Cls", CLS), ("Ty", TY), ("InstA", INST_A),
                         ("Main", "module Main where\nimport Cls\n"
                                  "import Ty\nimport InstA\n"
                                  "main = pretty Thing\n"))
        program = ModuleBuilder().build(graph).program
        assert any("orphan instance" in str(w) for w in program.warnings)
        assert program.run("main") == "a"


CONV = ("module Conv where\nclass Convert a b where\n"
        "  convert :: a -> b\n")
CONV_INT_FLOAT = ("instance Convert Int Float where\n"
                  "  convert x = fromIntegral x\n")


class TestMultiParamInstancesAcrossModules:
    """A multi-parameter instance travels in its module's interface and
    meets the link's coherence check like any other instance."""

    def test_imported_instance_resolves(self):
        graph = graph_of(("Conv", CONV + CONV_INT_FLOAT),
                         ("Main", "module Main where\nimport Conv\n"
                                  "main :: Float\n"
                                  "main = convert (3 :: Int)\n"))
        program = ModuleBuilder(CompilerOptions(lint=True)).build(
            graph).program
        assert program.run("main") == 3.0

    def test_interface_round_trips_the_instance(self, tmp_path):
        art = compile_module(
            scan_module_source(CONV + CONV_INT_FLOAT, "<Conv>"), [])
        assert "instance Convert Int Float = d$Convert$Int$Float [] @ []" \
            in art.interface.render().splitlines()
        path = interface_path(str(tmp_path), "Conv")
        save_interface(art.interface, path)
        loaded = load_interface(path)
        assert [i.head_str() for i in loaded.instances] == ["Int Float"]
        assert loaded.fingerprint == art.interface.fingerprint

    def test_duplicate_instance_names_both_modules(self):
        graph = graph_of(
            ("Conv", CONV),
            ("A", "module A where\nimport Conv\n" + CONV_INT_FLOAT),
            ("B", "module B where\nimport Conv\n" + CONV_INT_FLOAT),
            ("Main", "module Main where\nimport A\nimport B\nmain = 1\n"))
        with pytest.raises(DuplicateInstanceLinkError) as exc:
            ModuleBuilder().build(graph)
        message = str(exc.value)
        assert "'A'" in message and "'B'" in message
        assert exc.value.code == "module.link.duplicate-instance"

    def test_overlapping_heads_are_a_link_error(self):
        # Not the same head, but one goal (Convert Int Float) would
        # match both: the link sees every rule, not only equal keys.
        graph = graph_of(
            ("Conv", CONV),
            ("A", "module A where\nimport Conv\n"
                  "instance Convert Int b where\n"
                  "  convert x = error \"any\"\n"),
            ("B", "module B where\nimport Conv\n" + CONV_INT_FLOAT),
            ("Main", "module Main where\nimport A\nmain = 1\n"))
        with pytest.raises(DuplicateInstanceLinkError) as exc:
            ModuleBuilder().build(graph)
        assert "'A'" in str(exc.value) and "'B'" in str(exc.value)


# ---------------------------------------------------------------------------
# Visibility: import lists, re-exports, shadowing
# ---------------------------------------------------------------------------

class TestVisibility:
    LIB = "module Lib where\nf :: Int\nf = 1\ng :: Int\ng = 2\n"

    def test_local_binding_is_not_exported(self):
        # A module without an export list exports its top-level
        # bindings only: a use of a let-bound helper is a compile
        # error located in the importing module.
        graph = graph_of(
            ("A", "module A where\n"
                  "f x = let helper = x + 1 in helper * 2\n"),
            ("Main", "module Main where\nimport A\nmain = helper\n"))
        with pytest.raises(ReproError, match="helper") as exc:
            ModuleBuilder().build(graph)
        assert exc.value.pos.filename == "<Main>"

    def test_explicit_list_filters(self):
        graph = graph_of(("Lib", self.LIB),
                         ("Main", "module Main where\nimport Lib (f)\n"
                                  "main = g\n"))
        with pytest.raises(ReproError):
            ModuleBuilder().build(graph)

    def test_import_of_unexported_name_is_located(self):
        graph = graph_of(("Lib", self.LIB),
                         ("Main", "module Main where\n"
                                  "import Lib (nope)\nmain = 1\n"))
        with pytest.raises(ModuleError, match="does not export 'nope'") \
                as exc:
            ModuleBuilder().build(graph)
        assert exc.value.pos is not None

    def test_export_list_limits_surface(self):
        graph = graph_of(("Lib", "module Lib (f) where\n"
                                 "f :: Int\nf = secret\n"
                                 "secret :: Int\nsecret = 9\n"),
                         ("Main", "module Main where\nimport Lib\n"
                                  "main = f\n"))
        result = ModuleBuilder().build(graph)
        assert result.program.run("main") == 9
        # the interface exports f only — secret stays private
        art = compile_module(
            scan_module_source(graph.modules["Lib"].source, "<Lib>"), [])
        assert set(art.interface.schemes) == {"f"}
        hidden = graph_of(
            ("Lib", "module Lib (f) where\nf :: Int\nf = secret\n"
                    "secret :: Int\nsecret = 9\n"),
            ("Main", "module Main where\nimport Lib\nmain = secret\n"))
        with pytest.raises(ReproError):
            ModuleBuilder().build(hidden)

    def test_export_of_unknown_name_rejected(self):
        graph = graph_of(("Lib", "module Lib (ghost) where\nf = 1\n"))
        with pytest.raises(ModuleError, match="ghost"):
            ModuleBuilder().build(graph)

    def test_reexport_through_export_list(self):
        graph = graph_of(
            ("A", "module A where\norigin :: Int\norigin = 5\n"),
            ("B", "module B (origin, bee) where\nimport A\n"
                  "bee :: Int\nbee = origin + 1\n"),
            ("Main", "module Main where\nimport B\n"
                     "main = origin + bee\n"))
        assert ModuleBuilder().build(graph).program.run("main") == 11

    def test_diamond_reexport_is_unambiguous(self):
        graph = graph_of(
            ("A", "module A where\nshared :: Int\nshared = 3\n"),
            ("B1", "module B1 (shared) where\nimport A\n"),
            ("B2", "module B2 (shared) where\nimport A\n"),
            ("Main", "module Main where\nimport B1\nimport B2\n"
                     "main = shared\n"))
        assert ModuleBuilder().build(graph).program.run("main") == 3

    def test_conflicting_imports_rejected(self):
        graph = graph_of(
            ("A", "module A where\nclash :: Int\nclash = 1\n"),
            ("B", "module B where\nclash :: [Char]\nclash = \"b\"\n"),
            ("Main", "module Main where\nimport A\nimport B\n"
                     "main = clash\n"))
        with pytest.raises(ModuleError, match="ambiguous import"):
            ModuleBuilder().build(graph)

    def test_shadowing_an_import_rejected(self):
        graph = graph_of(
            ("A", "module A where\nf :: Int\nf = 1\n"),
            ("Main", "module Main where\nimport A\nf = 2\nmain = f\n"))
        with pytest.raises(ModuleError, match="also\\s+imports"):
            ModuleBuilder().build(graph)

    def test_redefining_a_prelude_value_rejected(self):
        graph = graph_of(
            ("A", "module A where\nmap f xs = 42\n"),
            ("Main", "module Main where\nimport A\n"
                     "main = concatMap (\\x -> [x, x]) [1, 2, 3]\n"))
        with pytest.raises(StaticError, match="prelude defines map") as exc:
            ModuleBuilder().build(graph)
        assert exc.value.pos.filename == "<A>"
        assert (exc.value.pos.line, exc.value.pos.column) == (2, 1)

    def test_fixity_travels_in_interface(self):
        graph = graph_of(
            ("Ops", "module Ops where\ninfixr 6 <->\n"
                    "(<->) :: Int -> Int -> Int\nx <-> y = x - y\n"),
            ("Main", "module Main where\nimport Ops\n"
                     "main = 10 <-> 3 <-> 2\n"))
        # right-associative: 10 - (3 - 2) = 9 (left would give 5)
        assert ModuleBuilder().build(graph).program.run("main") == 9


# ---------------------------------------------------------------------------
# Incremental rebuilds and the cache
# ---------------------------------------------------------------------------

def tree(base="base x = x + 1\n"):
    return graph_of(
        ("A", "module A where\n" + base),
        ("B", "module B where\nimport A\nuseB x = base x * 2\n"),
        ("C", "module C where\nimport A\nuseC x = base x * 3\n"),
        ("Main", "module Main where\nimport B\nimport C\n"
                 "main = useB 1 + useC 1\n"))


class TestIncremental:
    def test_warm_rebuild_hits_everything(self):
        builder = ModuleBuilder()
        first = builder.build(tree())
        assert first.n_compiled == 4 and first.n_cached == 0
        second = builder.build(tree())
        assert second.n_cached == 4 and second.n_compiled == 0
        assert second.program.run("main") == 10

    def test_body_edit_recompiles_one(self):
        builder = ModuleBuilder()
        first = builder.build(tree())
        edited = builder.build(tree("base x = x + 1 + 0\n"))
        assert [n for n, s in edited.modules.items() if not s["cached"]] \
            == ["A"]
        assert edited.modules["A"]["fingerprint"] \
            == first.modules["A"]["fingerprint"]
        assert edited.program.run("main") == 10

    def test_surface_edit_recompiles_dependents(self):
        builder = ModuleBuilder()
        builder.build(tree())
        edited = builder.build(tree("base x = x + 1\nnew :: Int\nnew = 0\n"))
        assert edited.n_compiled == 4  # A + every transitive dependent

    def test_cache_key_tracks_closure_fingerprints(self):
        opts = CompilerOptions()
        fp = get_default_snapshot(opts).fingerprint
        a = module_cache_key("src", opts, fp, [("A", "f1")])
        b = module_cache_key("src", opts, fp, [("A", "f2")])
        c = module_cache_key("src", opts, fp, [("A", "f1")])
        assert a != b and a == c

    def test_cache_key_bytes_pinned(self):
        # Disk caches and the server's build keys outlive a process:
        # the key bytes must not drift.
        opts = CompilerOptions(solver="reduce", lint=False)
        assert module_cache_key(
            "module A where\nx = 1\n", opts, "p" * 64,
            [("B", "f" * 64), ("A", "0" * 64)]) \
            == "e04ae8479aff9da8d873f914a6b4bc93ae35497ce81978559c46f7fa858e1744"

    def test_builder_keys_are_module_cache_keys(self):
        builder = ModuleBuilder()
        graph = tree()
        built = builder.build(graph)
        fp = builder.snapshot.fingerprint
        expected = {module_cache_key(
            graph.modules[name].source, builder.options, fp,
            [(dep, built.modules[dep]["fingerprint"])
             for dep in graph.closure(name)]) for name in graph.order}
        assert expected <= set(builder.cache._entries)

    def test_artifacts_survive_disk_cache(self, tmp_path):
        opts = CompilerOptions()
        opts.cache_dir = str(tmp_path)
        first = ModuleBuilder(opts).build(tree())
        assert first.n_compiled == 4
        # A brand-new builder (fresh memory tier) hits the disk tier.
        second = ModuleBuilder(opts).build(tree())
        assert second.n_cached == 4
        assert second.program.run("main") == 10
        assert second.cache["disk_hits"] == 4

    def test_parallel_build_equals_serial(self):
        serial = ModuleBuilder().build(tree(), jobs=1)
        parallel = ModuleBuilder().build(tree(), jobs=4)
        assert serial.program.run("main") == parallel.program.run("main")
        assert {n: str(s) for n, s in serial.program.schemes.items()} \
            == {n: str(s) for n, s in parallel.program.schemes.items()}

    def test_parallel_failure_propagates(self):
        graph = graph_of(("A", "module A where\na = undefinedName\n"),
                         ("B", "module B where\nb = 1\n"))
        with pytest.raises(ReproError):
            ModuleBuilder().build(graph, jobs=4)

    def test_local_build_starts_no_thread(self, monkeypatch):
        from repro.modules import build as build_module
        seen = []
        real = build_module.compile_module

        def spy(*args, **kwargs):
            seen.append((threading.current_thread(),
                         [t.name for t in threading.enumerate()]))
            return real(*args, **kwargs)

        monkeypatch.setattr(build_module, "compile_module", spy)
        result = ModuleBuilder().build(tree(), jobs=4)
        after = [t.name for t in threading.enumerate()]
        assert result.jobs == 4 and len(seen) == 4
        assert all(thread is threading.current_thread()
                   for thread, _alive in seen)
        for names in [alive for _thread, alive in seen] + [after]:
            assert not any(n.startswith("repro-build") for n in names)

    def test_first_failure_in_topological_order_is_raised(self):
        # A, first in topological order, takes longer to fail than B.
        slow = "".join(f"v{i} = {i} + 1\n" for i in range(60))
        graph = graph_of(
            ("A", "module A where\n" + slow + "a = missingInA\n"),
            ("B", "module B where\nb = missingInB\n"))
        assert graph.order == ["A", "B"]
        with pytest.raises(ReproError, match="missingInA"):
            ModuleBuilder().build(graph, jobs=4)


# ---------------------------------------------------------------------------
# The example tree, the CLI, the server verb
# ---------------------------------------------------------------------------

EXPECTED_MODTREE = "<Nat 6, Nat 3>; total 29; largest 12"


class TestExampleTree:
    def test_modtree_builds_and_runs(self, tmp_path):
        result = build_modules([MODTREE], out_dir=str(tmp_path))
        assert len(result.order) >= 10
        assert result.program.run("main") == EXPECTED_MODTREE
        for name in result.order:
            assert os.path.exists(interface_path(str(tmp_path), name))

    def test_modtree_interfaces_round_trip(self, tmp_path):
        result = build_modules([MODTREE], out_dir=str(tmp_path))
        for name in result.order:
            loaded = load_interface(interface_path(str(tmp_path), name))
            assert loaded.fingerprint == result.modules[name]["fingerprint"]


class TestCLI:
    def test_build_command_runs_entry(self, capsys):
        from repro.cli import main
        code = main(["build", MODTREE, "--run"])
        out = capsys.readouterr()
        assert code == 0
        assert EXPECTED_MODTREE in out.out
        assert "13 modules" in out.err

    def test_build_command_stats_json(self, tmp_path, capsys):
        from repro.cli import main
        stats_file = str(tmp_path / "stats.json")
        code = main(["build", MODTREE, "--stats-json", stats_file])
        capsys.readouterr()
        assert code == 0
        with open(stats_file, "r", encoding="utf-8") as handle:
            stats = json.load(handle)
        assert stats["n_modules"] == 13
        assert set(stats["modules"]) == set(stats["order"])

    def test_build_command_reports_errors(self, tmp_path, capsys):
        bad = tmp_path / "A.mhs"
        bad.write_text("module A where\nimport A\nx = 1\n")
        from repro.cli import main
        code = main(["build", str(tmp_path)])
        out = capsys.readouterr()
        assert code == 1
        assert "import cycle" in out.err


class TestServerBuildVerb:
    @pytest.fixture(scope="class")
    def service(self):
        from repro.service.server import CompileService
        return CompileService()

    MODS = [
        {"name": "A", "source": "module A where\nbase :: Int\nbase = 20\n"},
        {"name": "Main",
         "source": "module Main where\nimport A\nmain = base + 1\n"},
    ]

    def test_build_then_eval_by_handle(self, service):
        response = service.handle({"id": 1, "op": "build",
                                   "modules": self.MODS})
        assert response["ok"], response
        result = response["result"]
        assert result["build"]["n_modules"] == 2
        assert result["schemes"]["main"] == "Int"
        follow = service.handle({"id": 2, "op": "eval",
                                 "program": result["program"],
                                 "expr": "main"})
        assert follow["ok"] and follow["result"]["value"] == "21"

    def test_second_build_is_cached(self, service):
        response = service.handle({"id": 3, "op": "build",
                                   "modules": self.MODS})
        assert response["result"]["build"]["n_cached"] == 2

    def test_cycle_error_envelope(self, service):
        response = service.handle({"id": 4, "op": "build", "modules": [
            {"name": "A", "source": "module A where\nimport B\nx = 1\n"},
            {"name": "B", "source": "module B where\nimport A\ny = 2\n"}]})
        assert not response["ok"]
        assert response["error"]["code"] == "module.cycle"
        assert response["error"]["pos"] is not None

    def test_malformed_build_requests(self, service):
        for request in ({"op": "build"},
                        {"op": "build", "modules": []},
                        {"op": "build", "modules": [{"name": "A"}]},
                        {"op": "build", "modules": self.MODS, "jobs": "x"}):
            response = service.handle(dict(request, id=9))
            assert not response["ok"]
            assert response["error"]["code"] == "protocol"
