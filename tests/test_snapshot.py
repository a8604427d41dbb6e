"""Prelude snapshot tests: the warm path must be observationally
identical to one-shot compilation — same schemes, same core binding
order, same results — with forks fully isolated from one another."""

from __future__ import annotations

import pytest

from repro import CompilerOptions, compile_source
from repro.errors import ReproError
from repro.service.snapshot import (
    PreludeSnapshot,
    clear_default_snapshots,
    compile_with_snapshot,
    get_default_snapshot,
    prelude_fingerprint,
)

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

    def test_snapshot_core_is_untouched(self, snapshot):
        before = len(snapshot.core_bindings)
        compile_with_snapshot(PROGRAM, snapshot)
        assert len(snapshot.core_bindings) == before

    def test_repeated_compiles_stay_stable(self, snapshot):
        runs = [compile_with_snapshot(PROGRAM, snapshot).run("main")
                for _ in range(3)]
        assert runs == [runs[0]] * 3


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
