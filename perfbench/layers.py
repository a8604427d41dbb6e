"""The per-layer metrics of a traced run: their names and units, and how
they are read off the spans.

Times are mean self milliseconds per timed operation.  Metrics with
unit ``count`` repeat exactly for a given seed (the self-test runs the
count pass twice and compares); other tallies use ``1/op`` or
``events``.  A workload that bypasses a layer reports 0 for it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracer import LAYERS, Tracer

#: (metric, unit), in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = [
    ("service.fork_ms", "ms"),
    ("service.snapshot_build_s", "s"),
    ("lang.parse_ms", "ms"),
    ("lang.desugar_ms", "ms"),
    ("lang.tokens", "count"),
    ("core.static_ms", "ms"),
    ("core.infer_ms", "ms"),
    ("core.provenance_ms", "ms"),
    ("core.unify_count", "count"),
    ("core.context_reductions", "count"),
    ("core.constraint_propagations", "count"),
    ("core.pool_size", "count"),
    ("core.unsat_core_size", "count"),
    ("solver.solve_ms", "ms"),
    ("solver.calls", "count"),
    ("coreir.translate_ms", "ms"),
    ("coreir.selectors_ms", "ms"),
    ("coreir.nodes.translate", "count"),
    ("transform.hoist_ms", "ms"),
    ("transform.entry_ms", "ms"),
    ("coreir.nodes.final", "count"),
    ("pipeline.overhead_ms", "ms"),
    ("coreir.steps", "count"),
    ("coreir.fun_calls", "count"),
    ("coreir.dict_constructions", "count"),
    ("coreir.dict_selections", "count"),
    ("coreir.allocations", "count"),
    ("coreir.ns_per_step", "ns"),
    ("coreir.eval_ms", "ms"),
    ("coreir.deep_ms", "ms"),
    ("coreir.big_stack_ms", "ms"),
    ("pygen.codegen_ms", "ms"),
    ("pygen.exec_ms", "ms"),
    ("pyrt.fun_calls", "count"),
    ("pyrt.dict_ops", "count"),
    ("pyrt.ns_per_call", "ns"),
    ("pyrt.run_ms", "ms"),
    ("modules.resolve_ms", "ms"),
    ("modules.compile_ms", "ms"),
    ("modules.compiled", "count"),
    ("modules.cache_hit_ratio", "ratio"),
    ("modules.interface_ms", "ms"),
    ("modules.link_ms", "ms"),
    ("modules.check_ms", "ms"),
    ("modules.recompiled", "count"),
    ("specialize.xmodule_ms", "ms"),
    ("specialize.clones", "count"),
    ("service.request_ms", "ms"),
    ("service.hit_ms.p50", "ms"),
    ("service.miss_ms.p50", "ms"),
    ("service.handler_ms.p50", "ms"),
    ("service.transport_ms.p50", "ms"),
    ("service.memo_hit_ratio", "ratio"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.fastpath_hits", "events"),
    ("service.shed", "events"),
    ("service.generator_lag_ms.p99", "ms"),
    ("service.p99_ms", "ms"),
    ("service.capacity_rps", "1/s"),
    ("gc.gen2_collections", "1/op"),
    ("gc.pause_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "1/op"),
    ("trace.ops", "events"),
] + [(f"layer.{layer}.self_ms", "ms") for layer in LAYERS] \
  + [(f"layer.{layer}.share", "ratio") for layer in LAYERS]

UNITS = dict(PER_LAYER)

#: span-derived time metrics: metric -> span names whose self time it sums
SPAN_TIMES = {
    "service.fork_ms": ("service.fork",),
    "lang.parse_ms": ("pass:parse",),
    "lang.desugar_ms": ("pass:desugar",),
    "core.static_ms": ("pass:static", "pass:install-methods"),
    "core.infer_ms": ("pass:infer",),
    "solver.solve_ms": ("solver.solve",),
    "coreir.translate_ms": ("pass:translate",),
    "coreir.selectors_ms": ("pass:selectors",),
    "transform.hoist_ms": ("pass:hoist-dictionaries",),
    "transform.entry_ms": ("pass:inner-entry-points",),
    "pipeline.overhead_ms": ("pipeline.compile",),
    "coreir.eval_ms": ("coreir.eval",),
    "coreir.deep_ms": ("coreir.deep",),
    "coreir.big_stack_ms": ("coreir.big_stack",),
    "pyrt.run_ms": ("pyrt.run",),
    "modules.resolve_ms": ("modules.resolve",),
    "modules.compile_ms": ("modules.compile",),
    "modules.interface_ms": ("modules.interface",),
    "modules.link_ms": ("modules.link",),
    "modules.check_ms": ("modules.check",),
    "specialize.xmodule_ms": ("specialize.xmodule", "pass:specialize-xmodule"),
    "service.request_ms": ("service.request",),
}


def assemble(tracer: Tracer, root_layer: str, values: Dict[str, float],
             traced_ms: List[float], plain_ms: List[float]) -> Dict[str, Any]:
    """Every per-layer metric: span-derived times per operation, layer
    self times and shares, tracing overhead, plus *values* (counts and
    workload-specific figures), with 0 for whatever the workload does
    not touch."""
    out = {name: 0.0 for name, _unit in PER_LAYER}
    n_ops = max(tracer.n_ops(), 1)
    by_name = tracer.by_name()
    for metric_name, spans in SPAN_TIMES.items():
        out[metric_name] = sum(by_name.get(s, (0, 0.0))[1]
                               for s in spans) * 1e3 / n_ops
    out["solver.calls"] = by_name.get("solver.solve", (0, 0.0))[0] / n_ops
    total = tracer.root_seconds()
    for layer, seconds in tracer.by_layer(root_layer).items():
        out[f"layer.{layer}.self_ms"] = seconds * 1e3 / n_ops
        out[f"layer.{layer}.share"] = seconds / total if total else 0.0
    if traced_ms and plain_ms:
        out["trace.overhead_ms"] = (sum(traced_ms) / len(traced_ms)
                                    - sum(plain_ms) / len(plain_ms))
    out["trace.spans"] = len(tracer.spans) / n_ops
    out["trace.ops"] = tracer.n_ops()
    out.update(values)
    return {name: {"value": out[name], "unit": UNITS[name]}
            for name, _unit in PER_LAYER}
