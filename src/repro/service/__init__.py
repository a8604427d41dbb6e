"""The compilation service: infrastructure that turns the one-shot
compiler into a system that can serve sustained traffic.

* :mod:`repro.service.snapshot` — compile the prelude once into an
  immutable :class:`~repro.service.snapshot.PreludeSnapshot`; fork it
  cheaply under every user compile;
* :mod:`repro.service.cache` — a content-addressed compile cache keyed
  by ``(source, options, prelude)`` digests, with LRU eviction and an
  optional on-disk tier shared across processes;
* :mod:`repro.service.server` — the asyncio front door: one request
  pipeline for TCP and stdio (management ops, rate limit, budget
  ceilings, memo stage, admission, execute) over either backend;
* :mod:`repro.service.worker` — the two backends behind one
  interface: the in-process :class:`LocalPool` and the worker-process
  :class:`WorkerPool` with content-hash routing, crash detection,
  respawn and resubmission;
* :mod:`repro.service.metrics` — counters, gauges and latency
  histograms, with count-weighted cross-process merging behind the
  server's ``stats`` request.
"""

from repro.service.cache import CacheStats, CompileCache, cache_key
from repro.service.metrics import (
    LatencyHistogram,
    Metrics,
    merge_cache_snapshots,
    merge_metric_snapshots,
    merge_summaries,
)
from repro.service.server import (
    PROTOCOL_VERSION,
    SERVER_VERSION,
    CompileServer,
    CompileService,
    PipelinedClient,
    ServiceClient,
)
from repro.service.snapshot import (
    PreludeSnapshot,
    clear_default_snapshots,
    compile_with_snapshot,
    get_default_snapshot,
    prelude_fingerprint,
)
from repro.service.worker import LocalPool, WorkerPool

__all__ = [
    "CacheStats",
    "CompileCache",
    "cache_key",
    "LatencyHistogram",
    "Metrics",
    "merge_cache_snapshots",
    "merge_metric_snapshots",
    "merge_summaries",
    "PROTOCOL_VERSION",
    "SERVER_VERSION",
    "CompileServer",
    "CompileService",
    "PipelinedClient",
    "ServiceClient",
    "PreludeSnapshot",
    "clear_default_snapshots",
    "compile_with_snapshot",
    "get_default_snapshot",
    "prelude_fingerprint",
    "LocalPool",
    "WorkerPool",
]
