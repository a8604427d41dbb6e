"""Cross-module specialization tests: interface unfoldings, link-time
clone generation, budget accounting, stale-interface recovery, the
dispatch-free compiled backend and the server's linked-build keying.

The tentpole property: a call to an overloaded function that crosses a
module boundary at a constant dictionary vector is cloned at link time
from the callee's *interface unfolding* — the serialized core body the
exporting module published — so the linked program carries no dynamic
dispatch on that path, while the exporting module's surface
fingerprint (the incremental-rebuild cut-off) never moves.
"""

from __future__ import annotations

import os

import pytest

from repro.driver import compile_source
from repro.errors import (
    ModuleError,
    SpecializeBudgetWarning,
    StaleInterfaceError,
)
from repro.modules import (
    ModuleBuilder,
    build_modules,
    compile_module,
    load_interface,
    save_interface,
    scan_module_source,
)
from repro.modules.build import link_modules
from repro.modules.interface import INTERFACE_VERSION, interface_path
from repro.modules.resolve import scan_inline_modules
from repro.options import CompilerOptions

# A library module exporting an overloaded function, and a main module
# calling it at a single concrete overloading.  The cross-module call
# ``sumElems [1..4]`` is the specialization root: its dictionary
# argument is the constant ``d$Num$Int``.
LIB_SRC = ("module A where\n"
           "sumElems :: Num a => [a] -> a\n"
           "sumElems [] = 0\n"
           "sumElems (x:xs) = x + sumElems xs\n")

MAIN_SRC = ("module Main where\n"
            "import A\n"
            "main :: Int\n"
            "main = sumElems [1, 2, 3, 4]\n")

EXPECTED = 10


def graph_of(*pairs):
    return scan_inline_modules(list(pairs))


def build(options=None, **fields):
    if options is None:
        options = CompilerOptions(**fields) if fields else None
    return ModuleBuilder(options).build(
        graph_of(("A", LIB_SRC), ("Main", MAIN_SRC)))


def clone_bindings(program):
    return [b for b in program.core.bindings if "@" in b.name]


# ---------------------------------------------------------------------------
# Unfoldings in interfaces
# ---------------------------------------------------------------------------

class TestUnfoldings:
    def lib(self, source=LIB_SRC):
        return compile_module(scan_module_source(source, "<A>"), [])

    def test_interface_carries_unfoldings(self):
        iface = self.lib().interface
        assert "sumElems" in iface.unfoldings
        unf = iface.unfoldings["sumElems"]
        assert unf.dict_arity == 1
        assert unf.kind == "user"
        assert iface.unfold_fp

    def test_unspecializable_bindings_have_no_unfolding(self):
        src = LIB_SRC + "plain :: Int\nplain = 5\n"
        iface = self.lib(src).interface
        assert "plain" not in iface.unfoldings  # dict_arity == 0

    def test_body_edit_moves_unfold_fp_not_fingerprint(self):
        base = self.lib().interface
        edited = self.lib(LIB_SRC.replace(
            "x + sumElems xs", "sumElems xs + x")).interface
        # The rebuild cut-off survives: dependents do not recompile...
        assert edited.fingerprint == base.fingerprint
        # ...but the link knows the inlinable body changed.
        assert edited.unfold_fp != base.unfold_fp

    def test_unfoldings_survive_disk_round_trip(self, tmp_path):
        art = self.lib()
        path = interface_path(str(tmp_path), "A")
        save_interface(art.interface, path)
        loaded = load_interface(path)
        assert set(loaded.unfoldings) == set(art.interface.unfoldings)
        assert loaded.unfold_fp == art.interface.unfold_fp


# ---------------------------------------------------------------------------
# Link-time clone generation
# ---------------------------------------------------------------------------

class TestLinkTimeClones:
    def test_cross_module_call_is_cloned_with_provenance(self):
        program = build().program
        assert program.run("main") == EXPECTED
        clones = [b for b in clone_bindings(program)
                  if b.name.startswith("sumElems@")]
        assert clones, [b.name for b in program.core.bindings]
        prov = clones[0].provenance
        assert prov is not None
        assert "clone of sumElems" in prov
        assert "module 'A'" in prov

    def test_clone_counters_reach_compile_stats(self):
        program = build().program
        counters = program.compile_stats.phases.counters(
            "specialize-xmodule")
        assert counters["clones"] >= 1
        assert counters["from_unfoldings"] >= 1

    def test_single_file_compile_never_runs_the_pass(self):
        program = compile_source("main = 1 + (2 :: Int)")
        assert "specialize-xmodule" \
            not in program.compile_stats.phases.names()

    def test_disabled_by_option(self):
        program = build(specialize_xmodule=False).program
        assert program.run("main") == EXPECTED
        assert not [b for b in clone_bindings(program)
                    if b.name.startswith("sumElems@")]

    def test_unfoldings_are_load_bearing(self):
        # A dependency whose interface publishes no unfoldings cannot
        # be cloned across the boundary: the linked program falls back
        # to dictionary passing, and still computes the same value.
        art_a = compile_module(scan_module_source(LIB_SRC, "<A>"), [])
        art_a.interface.unfoldings.clear()
        art_main = compile_module(
            scan_module_source(MAIN_SRC, "<Main>"), [art_a.interface])
        program = link_modules([art_a, art_main])
        assert program.run("main") == EXPECTED
        assert not [b for b in clone_bindings(program)
                    if b.name.startswith("sumElems@")]

    def test_local_binder_shadowing_a_prelude_name_is_not_a_root(self):
        # The let-bound ``insert`` is generalised: its call passes the
        # constant Ord Int dictionary, as a call of the prelude's
        # ``insert`` would.  Module and prelude origins differ, but the
        # call names the local function and must stay one.
        src = ("module Main where\n"
               "f :: Int -> [Int]\n"
               "f n = let insert x ys = if x <= x then x : ys else ys\n"
               "      in insert n [1]\n"
               "main = f 5\n")
        program = ModuleBuilder().build(graph_of(("Main", src))).program
        assert program.run("main") == [5, 1]
        assert not [b for b in clone_bindings(program)
                    if b.name.startswith("insert@")]

    def test_specialized_equals_dictionary_build_linted(self):
        # Observational equivalence under the core lint: the clone
        # rewrite changes the core, never the meaning.
        fast = build(CompilerOptions(lint=True))
        slow = build(CompilerOptions(lint=True, specialize_xmodule=False))
        assert fast.program.run("main") == slow.program.run("main")


class TestBudget:
    def test_exhausted_budget_warns_and_counts(self):
        result = build(CompilerOptions(specialize_budget=0))
        program = result.program
        assert program.run("main") == EXPECTED  # dictionary fallback
        warnings = [w for w in program.warnings
                    if isinstance(w, SpecializeBudgetWarning)]
        assert warnings
        assert warnings[0].code == "spec.budget-exhausted"
        assert "specialize_budget" in str(warnings[0])
        counters = program.compile_stats.phases.counters(
            "specialize-xmodule")
        assert counters.get("budget_exhausted") == 1

    def test_default_budget_emits_no_warning(self):
        program = build().program
        assert not [w for w in program.warnings
                    if isinstance(w, SpecializeBudgetWarning)]


# ---------------------------------------------------------------------------
# Key hygiene: deterministic clone names, identity-safe memoisation
# ---------------------------------------------------------------------------

class TestKeyHygiene:
    WIDE = "d$C$T(" + ",".join(["d$Num$Int"] * 12) + ")"
    OTHER = "d$D$T(" + ",".join(["d$Ord$Int"] * 12) + ")"

    def test_short_keys_pass_through(self):
        from repro.transform.specialize import _short_key
        assert _short_key("d$Num$Int") == "Num$Int"
        # Only the ``d$`` that begins a dictionary name goes, not the
        # one a class name ending in ``d`` runs into.
        assert _short_key("d$Ord$Int") == "Ord$Int"
        assert _short_key("d$Ord$List(d$Ord$Int)") == "Ord$List(Ord$Int)"
        assert (_short_key("d$Eq$Tuple2(d$Ord$Int,d$Bounded$Bool)")
                == "Eq$Tuple2(Ord$Int,Bounded$Bool)")

    def test_wide_key_alias_is_a_content_hash(self):
        # The alias must be a pure function of the key — no process-
        # global counter — so clone names and provenance are identical
        # across processes and build orders.
        import re
        from repro.transform.specialize import _short_key
        assert len(self.WIDE) > 48
        alias = _short_key(self.WIDE)
        assert re.fullmatch(r"k[0-9a-f]{10}", alias)
        assert _short_key(self.WIDE) == alias
        assert _short_key(self.OTHER) != alias
        # ...and first-seen order does not leak into the alias.
        assert _short_key(self.WIDE) == alias

    def test_key_memo_rejects_recycled_ids(self):
        # The memo is keyed by id(), which CPython reuses once an
        # expression is freed; an entry must pin its key object and a
        # lookup must re-check identity, or a different expression
        # landing on a recycled id would be served a stale key (a
        # silent miscompilation).  Simulate the id collision directly.
        from repro.coreir.syntax import CoreProgram, CVar
        from repro.transform.specialize import Specializer
        spec = Specializer(CoreProgram([]))
        stale_owner, probe = CVar("x"), CVar("y")
        spec._key_memo[id(probe)] = (stale_owner, ("stale$key", 1))
        assert spec._key_info(probe) is None  # a CVar is no const dict
        assert spec._key_memo[id(probe)][0] is probe


# ---------------------------------------------------------------------------
# Stale interface files
# ---------------------------------------------------------------------------

class TestStaleInterfaces:
    def _save_lib(self, tmp_path):
        art = compile_module(scan_module_source(LIB_SRC, "<A>"), [])
        path = interface_path(str(tmp_path), "A")
        save_interface(art.interface, path)
        return path

    def _corrupt_version(self, path):
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[8] = INTERFACE_VERSION + 1  # the version byte
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

    def test_version_skew_raises_typed_error(self, tmp_path):
        path = self._save_lib(tmp_path)
        self._corrupt_version(path)
        with pytest.raises(StaleInterfaceError) as exc:
            load_interface(path)
        assert exc.value.code == "module.interface.stale"
        assert isinstance(exc.value, ModuleError)

    def test_unusable_files_raise_typed_error(self, tmp_path):
        missing = str(tmp_path / "Nope.ri")
        junk = str(tmp_path / "junk.ri")
        with open(junk, "wb") as handle:
            handle.write(b"not an interface at all")
        skewed = self._save_lib(tmp_path)
        self._corrupt_version(skewed)
        for path in (missing, junk, skewed):
            with pytest.raises(StaleInterfaceError) as exc:
                load_interface(path)
            assert exc.value.code == "module.interface.stale"

    def _write_tree(self, tmp_path):
        src_dir = tmp_path / "src"
        src_dir.mkdir()
        (src_dir / "A.mhs").write_text(LIB_SRC, encoding="utf-8")
        (src_dir / "Main.mhs").write_text(MAIN_SRC, encoding="utf-8")
        return str(src_dir)

    def test_old_format_ri_triggers_clean_rebuild(self, tmp_path):
        # A build over a .ri written by a previous interface format
        # must rebuild, not crash with a pickle or shape error.
        src_dir = self._write_tree(tmp_path)
        out_dir = str(tmp_path / "out")
        first = build_modules([src_dir], out_dir=out_dir)
        assert first.program.run("main") == EXPECTED
        ri = interface_path(out_dir, "A")
        self._corrupt_version(ri)
        second = build_modules([src_dir], out_dir=out_dir)
        assert second.program.run("main") == EXPECTED
        # ...and the stale file was replaced with the current format.
        with open(ri, "rb") as handle:
            blob = handle.read()
        assert blob[8] == INTERFACE_VERSION
        assert load_interface(ri).module == "A"

    def test_unchanged_interface_is_not_rewritten(self, tmp_path):
        src_dir = self._write_tree(tmp_path)
        out_dir = str(tmp_path / "out")
        build_modules([src_dir], out_dir=out_dir)
        ri = interface_path(out_dir, "A")
        ancient = 1_000_000_000
        os.utime(ri, (ancient, ancient))
        build_modules([src_dir], out_dir=out_dir)
        assert os.stat(ri).st_mtime == ancient  # write skipped


# ---------------------------------------------------------------------------
# Dispatch-free compiled backend
# ---------------------------------------------------------------------------

class TestPygenDispatchFree:
    def test_specialized_build_compiles_dispatch_free(self):
        program = build().program
        compiled = program.to_python(["main"])
        assert compiled.run("main") == EXPECTED
        assert compiled.counters.dict_constructions == 0
        assert compiled.counters.dict_selections == 0

    def test_dictionary_build_is_not(self):
        # The control: without link-time clones the same program pays
        # for dictionaries at runtime, so the zero above is the
        # specializer's doing, not the backend's.
        program = build(specialize_xmodule=False).program
        compiled = program.to_python(["main"])
        assert compiled.run("main") == EXPECTED
        assert compiled.counters.dict_constructions \
            + compiled.counters.dict_selections > 0


# ---------------------------------------------------------------------------
# Server: linked builds are keyed on bodies, not just surfaces
# ---------------------------------------------------------------------------

class TestServerBuild:
    @pytest.fixture()
    def client(self):
        from repro.service.server import (
            CompileServer,
            CompileService,
            ServiceClient,
        )
        options = CompilerOptions(request_timeout=30.0)
        srv = CompileServer(service=CompileService(options))
        port = srv.start()
        try:
            with ServiceClient("127.0.0.1", port) as c:
                yield c
        finally:
            srv.stop()

    MODULES = [{"name": "A", "source": LIB_SRC},
               {"name": "Main", "source": MAIN_SRC}]

    def test_build_reports_specialization(self, client):
        r = client.request("build", modules=self.MODULES)
        assert r["ok"], r
        spec = r["result"].get("specialization", {})
        assert spec.get("specialize-xmodule", {}).get("clones", 0) >= 1
        key = r["result"]["program"]
        e = client.request("eval", program=key, expr="main")
        assert e["ok"] and e["result"]["value"] == str(EXPECTED)

    def test_body_edit_does_not_hit_stale_link_cache(self, client):
        # Regression: the link cache used to key on surface
        # fingerprints alone, so a body-only edit (surface stable by
        # design) served the previous linked program.
        r1 = client.request("build", modules=self.MODULES)
        edited = [{"name": "A",
                   "source": LIB_SRC.replace("x + sumElems xs",
                                             "x + x + sumElems xs")},
                  self.MODULES[1]]
        r2 = client.request("build", modules=edited)
        assert r1["ok"] and r2["ok"]
        assert r1["result"]["program"] != r2["result"]["program"]
        e = client.request("eval", program=r2["result"]["program"],
                           expr="main")
        assert e["ok"] and e["result"]["value"] == "20"
