"""Compile-cache tests: content addressing, LRU behaviour, counters,
and the optional disk tier."""

from __future__ import annotations

import os
import pickle

import pytest

from repro import CompilerOptions
from repro.service.cache import (
    DISK_HEADER,
    FORMAT_VERSION,
    CompileCache,
    cache_key,
    resolve_cache_dir,
    source_hash,
)
from repro.service.snapshot import prelude_fingerprint


OPTS = CompilerOptions()
FP = prelude_fingerprint(OPTS)


class TestKeys:
    def test_key_is_content_addressed(self):
        a = cache_key("main = 1", OPTS, FP)
        b = cache_key("main = 1", OPTS, FP)
        c = cache_key("main = 2", OPTS, FP)
        assert a == b
        assert a != c

    def test_key_tracks_options(self):
        other = CompilerOptions(hoist_dictionaries=False)
        assert cache_key("main = 1", OPTS, FP) \
            != cache_key("main = 1", other, FP)

    def test_service_options_do_not_invalidate(self):
        tuned = CompilerOptions(cache_size=3, server_rate_limit=9.0,
                                request_timeout=1.5)
        assert cache_key("main = 1", OPTS, FP) \
            == cache_key("main = 1", tuned, FP)

    def test_key_tracks_prelude(self):
        assert cache_key("main = 1", OPTS, FP) \
            != cache_key("main = 1", OPTS, "different-prelude")

    def test_source_hash_is_sha256(self):
        digest = source_hash("main = 1")
        assert len(digest) == 64
        int(digest, 16)  # hex


class TestLoneSurrogates:
    """A lone surrogate (JSON ``"\\ud800"``) is program text like any
    other: the service's keys must not choke on it before the compiler
    sees it."""

    COMMENT = "-- \ud800\n"
    MAIN = "module Main where\nimport Lib\nmain = twice 21\n"
    LIB = ("module Lib where\n" + COMMENT
           + "twice :: Int -> Int\ntwice x = x + x\n")

    @pytest.fixture(scope="class")
    def service(self):
        from repro.service.server import CompileService
        return CompileService(CompilerOptions())

    @pytest.mark.parametrize("request_", [
        {"op": "compile", "source": COMMENT + "main = 1\n"},
        {"op": "eval", "source": COMMENT + "main = 1\n", "expr": "main"},
        {"op": "build", "modules": [{"source": LIB}, {"source": MAIN}]},
        {"op": "check", "modules": [{"source": LIB}, {"source": MAIN}]},
    ], ids=["compile", "eval", "build", "check"])
    def test_surrogate_in_a_comment(self, service, request_):
        response = service.handle(request_)
        assert response["ok"], response
        if request_["op"] == "eval":
            assert response["result"]["value"] == "1"
        if request_["op"] == "check":
            assert response["result"]["ok"]

    def test_surrogate_in_an_unfolded_literal(self, service):
        # An overloaded export ships an unfolding, whose digest covers
        # the literal's text.
        lib = ("module Lib (f) where\nf :: Eq a => a -> [Char]\n"
               "f x = if x == x then \"\ud800\" else \"\"\n")
        main = "module Main where\nimport Lib\nmain = f True\n"
        response = service.handle(
            {"op": "build", "modules": [{"source": lib}, {"source": main}]})
        assert response["ok"], response
        value = service.handle({"op": "eval",
                                "program": response["result"]["program"],
                                "expr": "length main"})
        assert value["result"]["value"] == "1", value


class TestLRU:
    def test_hit_miss_counters(self):
        cache = CompileCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", "program")
        assert cache.get("k") == "program"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.inserts == 1

    def test_eviction_order_is_least_recent(self):
        cache = CompileCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1   # refresh a; b is now LRU
        cache.put("c", 3)            # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_capacity_bounds_size(self):
        cache = CompileCache(capacity=3)
        for i in range(10):
            cache.put(f"k{i}", i)
        assert len(cache) == 3
        assert cache.keys() == ["k7", "k8", "k9"]
        assert cache.stats.evictions == 7

    def test_reinsert_refreshes_not_duplicates(self):
        cache = CompileCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)           # refresh, not insert-evict
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.get("a") == 10

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        d = str(tmp_path)
        one = CompileCache(capacity=4, disk_dir=d)
        one.put("key1", {"compiled": [1, 2, 3]})
        assert one.stats.disk_writes == 1
        # A fresh process sees the persisted entry.
        two = CompileCache(capacity=4, disk_dir=d)
        assert two.get("key1") == {"compiled": [1, 2, 3]}
        assert two.stats.disk_hits == 1
        # ... and promotes it to memory: second get is a memory hit.
        assert two.get("key1") == {"compiled": [1, 2, 3]}
        assert two.stats.disk_hits == 1
        assert two.stats.hits == 2

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        d = str(tmp_path)
        cache = CompileCache(capacity=4, disk_dir=d)
        path = os.path.join(d, "bad.pkl")
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("bad") is None
        assert cache.stats.disk_errors == 1
        assert not os.path.exists(path)

    def test_disk_files_are_pickles_keyed_by_digest(self, tmp_path):
        d = str(tmp_path)
        cache = CompileCache(capacity=4, disk_dir=d)
        cache.put("abc123", ["payload"])
        path = os.path.join(d, "abc123.pkl")
        with open(path, "rb") as handle:
            assert handle.read(len(DISK_HEADER)) == DISK_HEADER
            assert pickle.load(handle) == ["payload"]

    @pytest.mark.parametrize("header", [
        b"",  # an entry written before disk entries carried a version
        b"repro-cc" + bytes([FORMAT_VERSION - 1]),
    ], ids=["unversioned", "older-version"])
    def test_entry_of_another_format_is_a_miss(self, tmp_path, header):
        # A pickle that loads cleanly but was written for other record
        # shapes must not come back as a hit: it is a miss, counted,
        # and removed so the next put rebuilds it.
        d = str(tmp_path)
        path = os.path.join(d, "old.pkl")
        with open(path, "wb") as handle:
            handle.write(header + pickle.dumps(["stale"]))
        cache = CompileCache(capacity=4, disk_dir=d)
        assert cache.get("old") is None
        assert cache.stats.disk_errors == 1
        assert cache.stats.misses == 1
        assert not os.path.exists(path)

    def test_clear_disk(self, tmp_path):
        d = str(tmp_path)
        cache = CompileCache(capacity=4, disk_dir=d)
        cache.put("k", 1)
        cache.clear(disk=True)
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_memory_only_without_dir(self):
        cache = CompileCache(capacity=4)
        cache.put("k", 1)
        assert cache.stats.disk_writes == 0


class TestDiskBudget:
    """The bounded disk tier: a max-bytes budget enforced by an
    mtime-ordered GC after every write."""

    @staticmethod
    def _sizes(path):
        return {f: os.path.getsize(os.path.join(path, f))
                for f in os.listdir(path) if f.endswith(".pkl")}

    def test_budget_evicts_oldest_first(self, tmp_path):
        cache = CompileCache(capacity=8, disk_dir=str(tmp_path),
                             disk_budget=1)  # everything is oversized
        cache.put("k" * 64, {"payload": "x" * 100})
        # The newest entry always survives its own write ...
        assert len(self._sizes(str(tmp_path))) == 1
        cache.put("j" * 64, {"payload": "y" * 100})
        # ... and the previous one, now over budget, is collected.
        files = self._sizes(str(tmp_path))
        assert list(files) == ["j" * 64 + ".pkl"]
        assert cache.stats.disk_evictions == 1

    def test_budget_keeps_entries_that_fit(self, tmp_path):
        cache = CompileCache(capacity=8, disk_dir=str(tmp_path),
                             disk_budget=10_000_000)
        for i in range(5):
            cache.put(f"{i:064d}", {"payload": i})
        assert len(self._sizes(str(tmp_path))) == 5
        assert cache.stats.disk_evictions == 0

    def test_zero_budget_means_unbounded(self, tmp_path):
        cache = CompileCache(capacity=8, disk_dir=str(tmp_path),
                             disk_budget=0)
        for i in range(10):
            cache.put(f"{i:064d}", {"payload": "z" * 1000})
        assert len(self._sizes(str(tmp_path))) == 10
        assert cache.stats.disk_evictions == 0

    def test_hit_refreshes_mtime_so_gc_is_lru(self, tmp_path):
        cache = CompileCache(capacity=1, disk_dir=str(tmp_path),
                             disk_budget=10_000_000)
        cache.put("a" * 64, {"v": 1})
        cache.put("b" * 64, {"v": 2})
        os.utime(os.path.join(str(tmp_path), "a" * 64 + ".pkl"),
                 (1, 1))  # make 'a' ancient
        os.utime(os.path.join(str(tmp_path), "b" * 64 + ".pkl"),
                 (2, 2))
        # A disk hit on 'a' (capacity 1 keeps it out of memory)
        # refreshes its mtime, so the GC now sees 'b' as oldest.
        assert cache.get("a" * 64) == {"v": 1}
        assert cache.stats.disk_hits == 1
        cache.disk_budget = 1
        cache._disk_gc()
        survivors = set(self._sizes(str(tmp_path)))
        assert "a" * 64 + ".pkl" in survivors
        assert "b" * 64 + ".pkl" not in survivors

    def test_disk_evictions_in_snapshot(self, tmp_path):
        cache = CompileCache(capacity=8, disk_dir=str(tmp_path),
                             disk_budget=1)
        cache.put("c" * 64, {"v": 1})
        cache.put("d" * 64, {"v": 2})
        assert cache.snapshot()["disk_evictions"] == 1


class TestConcurrentGC:
    """The disk GC under multi-process contention: one collector at a
    time (advisory lock), and no entry deleted out from under a
    concurrent republish."""

    def test_contended_lock_skips_the_pass(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")
        d = str(tmp_path)
        cache = CompileCache(capacity=8, disk_dir=d, disk_budget=1)
        fd = os.open(os.path.join(d, ".gc.lock"),
                     os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            # "Another process" holds the directory: our write still
            # publishes, but the GC pass yields instead of racing.
            cache.put("e" * 64, {"v": 1})
            cache.put("f" * 64, {"v": 2})
            assert cache.stats.disk_gc_skipped == 2
            assert cache.stats.disk_evictions == 0
            assert len([f for f in os.listdir(d)
                        if f.endswith(".pkl")]) == 2
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        # Lock released: the next write's GC collects the backlog.
        cache.put("9" * 64, {"v": 3})
        assert cache.stats.disk_gc_skipped == 2
        assert cache.stats.disk_evictions >= 1

    def test_gc_skips_are_in_snapshot(self, tmp_path):
        cache = CompileCache(capacity=8, disk_dir=str(tmp_path))
        assert cache.snapshot()["disk_gc_skipped"] == 0

    def test_entry_republished_mid_pass_is_spared(self, tmp_path,
                                                  monkeypatch):
        # Simulate the cross-process race the re-stat guards against:
        # the walk records an old mtime, then the entry is freshened
        # (a disk hit or republish elsewhere) before the unlink.
        d = str(tmp_path)
        cache = CompileCache(capacity=8, disk_dir=d, disk_budget=1)
        old = os.path.join(d, "a" * 64 + ".pkl")
        new = os.path.join(d, "b" * 64 + ".pkl")
        for path, stamp in ((old, 100), (new, 200)):
            with open(path, "wb") as handle:
                handle.write(b"x" * 50)
            os.utime(path, (stamp, stamp))
        real_stat = os.stat
        calls = {"old": 0}

        def stat(path, *args, **kwargs):
            if path == old:
                calls["old"] += 1
                if calls["old"] == 2:  # the pre-unlink re-stat
                    os.utime(old, (300, 300))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", stat)
        cache._disk_gc()
        assert os.path.exists(old)  # spared, not deleted
        assert os.path.exists(new)
        assert cache.stats.disk_evictions == 0


class TestSnapshotAndResolve:
    def test_stats_snapshot_shape(self):
        cache = CompileCache(capacity=4)
        cache.put("k", 1)
        cache.get("k")
        cache.get("nope")
        snap = cache.snapshot()
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["size"] == 1
        assert snap["capacity"] == 4
        assert snap["hit_rate"] == 0.5
        assert snap["disk_dir"] is None

    def test_resolve_cache_dir(self, tmp_path):
        assert resolve_cache_dir(CompilerOptions(cache_dir="")) is None
        explicit = str(tmp_path / "x")
        assert resolve_cache_dir(
            CompilerOptions(cache_dir=explicit)) == explicit
        default = resolve_cache_dir(CompilerOptions(cache_dir="default"))
        assert default is not None and default.endswith(
            os.path.join(".cache", "repro"))
