"""Prelude snapshot tests: the warm path must agree with one-shot
compilation — same schemes, core binding order, stats and results, and
the same prelude and selector core after every pass — with forks fully
isolated from one another and the snapshot itself never changing."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import NAIVE, OPTIMIZED, CompilerOptions, compile_source
from repro.coreir.pretty import pp_binding
from repro.errors import ReproError
from repro.modules.build import build_modules
from repro.service.cache import CompileCache
from repro.service.snapshot import (
    PreludeSnapshot,
    clear_default_snapshots,
    compile_with_snapshot,
    get_default_snapshot,
    prelude_fingerprint,
)

from tests.test_pass_golden import ROOT, core_digest, corpus, option_sets
from tests.test_pipeline import PROGRAMS

PROGRAM = """
class Shape a where
  area :: a -> Int

data Circle = Circle Int
data Square = Square Int

instance Shape Circle where
  area (Circle r) = 3 * r * r

instance Shape Square where
  area (Square s) = s * s

total :: Shape a => [a] -> Int
total xs = sum (map area xs)

main = total [Circle 2, Circle 3] + total [Square 3] + length [1, 2, 3]
"""


@pytest.fixture(scope="module")
def snapshot():
    return PreludeSnapshot.build(CompilerOptions())


class TestEquivalence:
    def test_same_schemes(self, snapshot):
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert set(cold.schemes) == set(warm.schemes)
        for name, scheme in cold.schemes.items():
            assert str(scheme) == str(warm.schemes[name]), name

    def test_same_core_binding_order(self, snapshot):
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert [b.name for b in cold.core.bindings] \
            == [b.name for b in warm.core.bindings]

    def test_same_result(self, snapshot):
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert cold.run("main") == warm.run("main") == (12 + 27) + 9 + 3

    def test_same_compile_stats(self, snapshot):
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        skip = ("phases",)  # wall times differ; counters must not
        assert {k: v for k, v in vars(cold.compile_stats).items()
                if k not in skip} \
            == {k: v for k, v in vars(warm.compile_stats).items()
                if k not in skip}

    def test_same_pass_sequence(self, snapshot):
        # The warm path runs the same registered passes as the cold
        # one (the prelude prefix is skipped, not replaced by ad-hoc
        # code), so the phase traces list identical pass names.
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert cold.compile_stats.phases.names() \
            == warm.compile_stats.phases.names()
        # Cold runs every per-unit pass twice (prelude + user), warm
        # once (user only).
        cold_parse = [t for t in cold.compile_stats.phases.timings
                      if t.name == "parse"][0]
        warm_parse = [t for t in warm.compile_stats.phases.timings
                      if t.name == "parse"][0]
        assert cold_parse.calls == 2
        assert warm_parse.calls == 1

    def test_warm_eval_and_typeof(self, snapshot):
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert warm.eval("area (Square 5)") == 25
        assert warm.type_of("total") == "Shape a => [a] -> Int"

    def test_same_prelude_core_after_every_pass(self):
        # User bindings differ only in the numbers of translator-local
        # binders, but the prelude's bindings and the selectors print
        # identically (annotations on) after every pass from translate
        # on, under every option set.
        mismatches = []
        for opt_label, options in option_sets():
            snap = PreludeSnapshot.build(options)
            prelude = {b.name for b in snap.core_bindings}

            def shared(bindings):
                return [b for b in bindings
                        if b.name in prelude or b.kind == "selector"]

            for i, source in enumerate(PROGRAMS + [PROGRAM]):
                seen = {}
                for path, compile_fn in (
                        ("cold", lambda obs: compile_source(
                            source, options, observer=obs)),
                        ("warm", lambda obs: compile_with_snapshot(
                            source, snap, options, observer=obs))):
                    printed = {}
                    digests = seen[path] = {}

                    def observe(pass_name, ctx):
                        if ctx.core is not None:
                            digests[pass_name] = core_digest(
                                shared(ctx.core.bindings), printed)

                    compile_fn(observe)
                assert list(seen["cold"])[0] == "translate"
                mismatches += [(opt_label, i, pass_name)
                               for pass_name in seen["cold"]
                               if seen["cold"][pass_name]
                               != seen["warm"].get(pass_name)]
        assert mismatches == []


class TestIsolation:
    def test_forks_do_not_see_each_other(self, snapshot):
        one = compile_with_snapshot("lucky = 13", snapshot)
        two = compile_with_snapshot("main = 1", snapshot)
        assert one.eval("lucky") == 13
        with pytest.raises(ReproError):
            two.eval("lucky")

    def test_user_classes_do_not_leak(self, snapshot):
        compile_with_snapshot(PROGRAM, snapshot)
        # A later fork must not know the first fork's class/instances.
        with pytest.raises(ReproError):
            compile_with_snapshot("main = area (Circle 1)", snapshot)

    def test_snapshot_core_is_untouched(self):
        # OPTIMIZED's specialize and constant-dict-reduction rebuild
        # the whole program; NAIVE runs no per-binding pass at all.
        # Neither may change a binding the snapshot holds, raw or
        # transformed.
        def printed(bindings):
            return [pp_binding(b, annotations=True) for b in bindings]

        def held(snap):
            transformed = snap.transformed()
            return (printed(snap.core_bindings),
                    {name: (printed(transformed.before[name]), printed(bs))
                     for name, bs in transformed.after.items()},
                    dict(transformed.names))

        for options in (OPTIMIZED, NAIVE):
            snap = PreludeSnapshot.build(options)
            before = held(snap)
            for source in PROGRAMS + [PROGRAM]:
                compile_with_snapshot(source, snap)
            assert held(snap) == before
        assert before[1] == {} and before[2] == {}  # NAIVE: nothing ran

    def test_repeated_compiles_stay_stable(self, snapshot):
        runs = [compile_with_snapshot(PROGRAM, snapshot).run("main")
                for _ in range(3)]
        assert runs == [runs[0]] * 3


class TestSharedPrelude:
    def test_concurrent_first_use(self):
        # Eight threads race to build one fresh snapshot's transformed
        # prelude; each must get the single-threaded core, and all must
        # share the very same transformed prelude objects.
        sources = [source for _label, source in corpus()][:8]
        options = CompilerOptions()
        reference = PreludeSnapshot.build(options)
        expected = [compile_with_snapshot(source, reference).dump_core()
                    for source in sources]
        snap = PreludeSnapshot.build(options)
        results = [None] * len(sources)
        errors = []

        def work(i):
            try:
                results[i] = compile_with_snapshot(sources[i], snap)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(sources))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [r.dump_core() for r in results] == expected
        prelude = snap.transformed().after["inner-entry-points"]
        for result in results:
            assert all(a is b for a, b in
                       zip(result.core.bindings[:len(prelude)], prelude))

    def test_link_options_override_snapshot_transforms(self):
        # A link may run other per-binding passes than its snapshot
        # was built with; the snapshot's transformed prelude must then
        # not be spliced where its input does not match.
        def linked(options, snap):
            result = build_modules([str(ROOT / "examples" / "modtree")],
                                   options=options,
                                   snapshot=snap, cache=CompileCache())
            return result.program.dump_core()

        for link_opts, snap_opts in (
                (CompilerOptions(), CompilerOptions(hoist_dictionaries=False)),
                (NAIVE, CompilerOptions())):
            assert linked(link_opts, PreludeSnapshot.build(snap_opts)) \
                == linked(link_opts, PreludeSnapshot.build(link_opts))


class TestFingerprints:
    def test_fingerprint_tracks_options(self):
        a = prelude_fingerprint(CompilerOptions())
        b = prelude_fingerprint(CompilerOptions(hoist_dictionaries=False))
        assert a != b

    def test_service_options_do_not_change_fingerprint(self):
        a = prelude_fingerprint(CompilerOptions())
        b = prelude_fingerprint(CompilerOptions(cache_size=7,
                                                server_shards=2))
        assert a == b

    def test_options_mismatch_rejected(self, snapshot):
        with pytest.raises(ValueError):
            compile_with_snapshot(
                "main = 1", snapshot,
                options=CompilerOptions(hoist_dictionaries=False))

    def test_default_registry_shares_snapshots(self):
        clear_default_snapshots()
        first = get_default_snapshot(CompilerOptions())
        second = get_default_snapshot(CompilerOptions())
        assert first is second
        other = get_default_snapshot(
            CompilerOptions(hoist_dictionaries=False))
        assert other is not first


class TestDriverIntegration:
    def test_compile_source_takes_snapshot(self, snapshot):
        program = compile_source("main = 2 + 3", snapshot=snapshot)
        assert program.run("main") == 5

    def test_snapshot_ignored_without_prelude(self, snapshot):
        # include_prelude=False bypasses the snapshot path entirely.
        program = compile_source("main x = x", include_prelude=False,
                                 snapshot=snapshot)
        assert "length" not in program.schemes
