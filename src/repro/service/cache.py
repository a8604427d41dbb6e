"""A content-addressed compile cache.

Programs are cached under a key derived from *content*, never identity:

    key = sha256(source) x options_fingerprint x prelude_fingerprint

so a hit is only possible when the source text, every
compilation-relevant option, and the prelude the program was compiled
against are all byte-identical.  Because compilation is deterministic
(dictionary parameter order is fixed by the §8.6 interface ordering and
instance resolution is coherent), a cached program is indistinguishable
from a fresh compile.

The in-memory tier is a bounded LRU; an optional on-disk tier persists
pickled programs under a cache directory (default
``~/.cache/repro/``) keyed by the same digest, surviving process
restarts.  A disk entry is framed like a ``.ri`` interface file: a magic
string, the format-version byte, then the pickle — an entry written by
another format version reads as a miss, never as a record of the wrong
shape.  Hit/miss/eviction counters are kept for the server's ``stats``
request.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

try:  # POSIX advisory file locks for the cross-process GC mutex
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from repro.options import CompilerOptions, options_fingerprint

#: default on-disk location (used when ``cache_dir`` is the sentinel
#: string ``"default"``; an explicit path wins; ``""`` disables disk)
DEFAULT_CACHE_DIR = os.path.join(os.path.expanduser("~"), ".cache", "repro")

#: version of the compiler records pickled to disk — disk-tier entries
#: and ``.ri`` interfaces (:mod:`repro.modules.interface`) alike.  Bump
#: it whenever a pickled record changes shape.
FORMAT_VERSION = 5

#: the head of every disk-tier entry: magic string, format version
DISK_HEADER = b"repro-cc" + bytes([FORMAT_VERSION])


def source_hash(source: str) -> str:
    # surrogatepass: a lone surrogate must reach the compiler, not fail
    # here; valid text encodes to the same bytes either way
    return hashlib.sha256(
        source.encode("utf-8", "surrogatepass")).hexdigest()


def cache_key(source: str, options: CompilerOptions,
              prelude_fp: str) -> str:
    """The content address of one compilation."""
    h = hashlib.sha256()
    h.update(source_hash(source).encode("ascii"))
    h.update(b"\x00")
    h.update(options_fingerprint(options).encode("ascii"))
    h.update(b"\x00")
    h.update(prelude_fp.encode("ascii"))
    return h.hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    disk_errors: int = 0
    disk_evictions: int = 0
    #: GC passes skipped because another process held the advisory
    #: lock (that process is already collecting on our behalf)
    disk_gc_skipped: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CompileCache:
    """Bounded LRU over compiled programs, optionally disk-backed.

    Thread safe: the structure is guarded by a lock; the cached
    programs themselves serialise their mutable operations internally
    (see :class:`repro.driver.CompiledProgram`).
    """

    def __init__(self, capacity: int = 64,
                 disk_dir: Optional[str] = None,
                 disk_budget: int = 0) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = disk_dir
        #: max total bytes for the disk tier; 0 disables the bound.
        #: Enforced after every write by an mtime-ordered GC (oldest
        #: entries go first; a disk hit refreshes the entry's mtime).
        self.disk_budget = disk_budget
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._gc_lock = threading.Lock()
        if disk_dir:
            os.makedirs(disk_dir, exist_ok=True)

    # -------------------------------------------------------------- lookup

    def get(self, key: str) -> Optional[Any]:
        """The program cached under *key*, or None.  A memory miss
        falls through to the disk tier (when enabled) and promotes the
        loaded program back into memory."""
        with self._lock:
            program = self._entries.get(key)
            if program is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return program
        program = self._disk_get(key)
        if program is not None:
            with self._lock:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert(key, program)
            return program
        with self._lock:
            self.stats.misses += 1
        return None

    def contains(self, key: str) -> bool:
        """Whether *key* would resolve via :meth:`get` — memory first,
        then a disk-tier existence check (a stat, no unpickle).  Unlike
        ``get`` it neither promotes the entry nor counts a hit or miss,
        so probes (the server's fast-path key resolution) do not skew
        the LRU order or the cache statistics."""
        with self._lock:
            if key in self._entries:
                return True
        if not self.disk_dir:
            return False
        return os.path.exists(self._disk_path(key))

    def put(self, key: str, program: Any) -> None:
        with self._lock:
            self._insert(key, program)
            self.stats.inserts += 1
        self._disk_put(key, program)

    def _insert(self, key: str, program: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = program
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = program

    # ------------------------------------------------------------ disk tier

    def _disk_path(self, key: str) -> str:
        assert self.disk_dir
        return os.path.join(self.disk_dir, f"{key}.pkl")

    def _disk_get(self, key: str) -> Optional[Any]:
        if not self.disk_dir:
            return None
        path = self._disk_path(key)
        try:
            with open(path, "rb") as handle:
                if handle.read(len(DISK_HEADER)) != DISK_HEADER:
                    raise ValueError("written by another format version")
                program = pickle.load(handle)
            try:
                # Refresh the mtime so the budget GC evicts in LRU
                # rather than insertion order.
                os.utime(path)
            except OSError:
                pass
            return program
        except FileNotFoundError:
            return None
        except Exception:
            # A corrupt or version-skewed entry is equivalent to a miss;
            # drop it so it is rebuilt.
            with self._lock:
                self.stats.disk_errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _disk_put(self, key: str, program: Any) -> None:
        if not self.disk_dir:
            return
        path = self._disk_path(key)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(DISK_HEADER)
                    pickle.dump(program, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)  # atomic publish
            except BaseException:
                os.unlink(tmp)
                raise
            with self._lock:
                self.stats.disk_writes += 1
        except Exception:
            with self._lock:
                self.stats.disk_errors += 1
            return
        self._disk_gc()

    @contextlib.contextmanager
    def _gc_process_lock(self) -> Iterator[bool]:
        """A *cross-process* advisory mutex over the cache directory.

        Exactly one process GCs the shared tier at a time: the lock is
        a non-blocking ``flock`` on ``<dir>/.gc.lock``, so two workers
        publishing simultaneously cannot both walk the directory,
        double-count ``disk_evictions``, or race each other's unlinks.
        A contended lock yields ``False`` — the loser skips its pass
        (the holder is already collecting the same directory).  On
        platforms without ``fcntl`` the in-process ``_gc_lock`` is the
        only mutex, as before.
        """
        if fcntl is None:
            yield True
            return
        lock_path = os.path.join(self.disk_dir, ".gc.lock")
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            yield True  # cannot lock — proceed, as the pre-lock code did
            return
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                yield False
                return
            try:
                yield True
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _disk_gc(self) -> None:
        """Evict oldest-mtime entries until the disk tier fits the
        budget.  The newest entry always survives, so one oversized
        program cannot empty the cache it was just written to.

        Safe under concurrent multi-process eviction: the pass runs
        under :meth:`_gc_process_lock`, and every candidate is
        re-stat'ed immediately before its unlink — an entry republished
        (or freshened by a disk hit) after the directory walk is
        spared rather than deleted with its new contents."""
        if not self.disk_dir or self.disk_budget <= 0:
            return
        with self._gc_lock:
            with self._gc_process_lock() as acquired:
                if not acquired:
                    with self._lock:
                        self.stats.disk_gc_skipped += 1
                    return
                self._disk_gc_locked()

    def _disk_gc_locked(self) -> None:
        entries = []
        total = 0
        for name in os.listdir(self.disk_dir):
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.disk_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if total <= self.disk_budget:
            return
        entries.sort()  # oldest mtime first
        evicted = 0
        for mtime, size, path in entries[:-1]:  # keep the newest
            if total <= self.disk_budget:
                break
            try:
                st = os.stat(path)
                if st.st_mtime != mtime:
                    continue  # republished since the walk — spare it
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            with self._lock:
                self.stats.disk_evictions += evicted

    # ------------------------------------------------------- introspection

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self):
        with self._lock:
            return list(self._entries)

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
        if disk and self.disk_dir and os.path.isdir(self.disk_dir):
            for name in os.listdir(self.disk_dir):
                if name.endswith(".pkl"):
                    try:
                        os.unlink(os.path.join(self.disk_dir, name))
                    except OSError:
                        pass

    def snapshot(self) -> Dict[str, Any]:
        """Counters plus occupancy, for the ``stats`` request."""
        with self._lock:
            out: Dict[str, Any] = self.stats.snapshot()
            out["size"] = len(self._entries)
        out["capacity"] = self.capacity
        out["hit_rate"] = round(self.stats.hit_rate, 4)
        out["disk_dir"] = self.disk_dir or None
        return out


def resolve_cache_dir(options: CompilerOptions) -> Optional[str]:
    """Map the ``cache_dir`` option to a directory: empty string means
    memory-only, the sentinel ``"default"`` means ``~/.cache/repro``,
    anything else is used as given."""
    raw = options.cache_dir
    if not raw:
        return None
    if raw == "default":
        return DEFAULT_CACHE_DIR
    return raw
