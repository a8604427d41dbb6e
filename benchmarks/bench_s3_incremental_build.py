"""S3 — incremental module builds.

PR 4 added separate compilation: modules compile against their
imports' *interfaces*, and the artifact cache keys each module on
(source, options, prelude, closure-interface fingerprints).  This
benchmark builds a synthetic N-module DAG and measures the properties
that key design buys:

* **cold build** — every module compiles, on the calling thread: a
  build starts no thread, because under the GIL the thread pool it
  once used ran at 0.91x of serial (*jobs* is only echoed);
* **warm rebuild** — nothing changed, every module is a cache hit;
* **body edit** — a change that leaves a module's exported surface
  alone keeps its interface fingerprint, so *only that module*
  recompiles: rebuild cost is O(1), the cut-off at work;
* **surface edit** — a new export moves the fingerprint, so the module
  plus its transitive dependents recompile: O(dependents), never O(N).

Run under pytest for the shape assertions, or as a script to
(re)write ``BENCH_s3.json`` at the repository root::

    PYTHONPATH=src:. python benchmarks/bench_s3_incremental_build.py
    PYTHONPATH=src:. python benchmarks/bench_s3_incremental_build.py --smoke
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Tuple

from benchmarks.conftest import record
from repro.modules import ModuleBuilder
from repro.modules.resolve import scan_inline_modules
from repro.options import CompilerOptions

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: modules in the synthetic DAG (overridable; --smoke shrinks it)
N_MODULES = int(os.environ.get("BENCH_S3_MODULES", "24"))
ROUNDS = int(os.environ.get("BENCH_S3_ROUNDS", "3"))


def make_tree(n: int, body_edit: int = -1,
              surface_edit: int = -1) -> List[Tuple[str, str]]:
    """An n-module DAG: ``M0`` is a base; ``Mi`` imports ``M(i-1)`` and
    ``M(i//2)``, giving long chains *and* wide fan-in.  *body_edit*
    appends a no-op to that module's function (surface unchanged);
    *surface_edit* adds a new exported binding (fingerprint moves)."""
    sources: List[Tuple[str, str]] = []
    for i in range(n):
        name = f"M{i}"
        if i == 0:
            body = "f0 :: Int -> Int\nf0 x = x + 1\n"
        else:
            deps = sorted({i - 1, i // 2})
            imports = "".join(f"import M{d}\n" for d in deps)
            calls = " + ".join(f"f{d} x" for d in deps)
            body = (f"{imports}"
                    f"f{i} :: Int -> Int\n"
                    f"f{i} x = {calls} + {i}\n")
        if i == body_edit:
            body = body.replace(f"+ {i}\n", f"+ {i} + 0\n") \
                if i else body.replace("x + 1", "x + 1 + 0")
        if i == surface_edit:
            body += f"extra{i} :: Int\nextra{i} = {i}\n"
        sources.append((name, f"module {name} where\n{body}"))
    sources.append(("Main", f"module Main where\nimport M{n - 1}\n"
                            f"main = f{n - 1} 1\n"))
    return sources


def _build(builder: ModuleBuilder, sources):
    graph = scan_inline_modules(sources)
    t0 = time.perf_counter()
    result = builder.build(graph)
    return result, time.perf_counter() - t0


def measure(n_modules: int = N_MODULES,
            rounds: int = ROUNDS) -> Dict[str, object]:
    options = CompilerOptions()  # memory-only cache: measure compiles
    sources = make_tree(n_modules)
    n_total = n_modules + 1  # + Main

    cold = float("inf")
    for _ in range(rounds):
        _result, seconds = _build(ModuleBuilder(options), sources)
        cold = min(cold, seconds)

    builder = ModuleBuilder(options)
    _build(builder, sources)  # warm the cache

    warm_result, warm_seconds = _build(builder, sources)

    leaf = n_modules // 2
    body_result, body_seconds = _build(
        builder, make_tree(n_modules, body_edit=leaf))

    builder2 = ModuleBuilder(options)
    _build(builder2, make_tree(n_modules))
    surf_sources = make_tree(n_modules, surface_edit=leaf)
    surf_graph = scan_inline_modules(surf_sources)
    n_dependents = len(surf_graph.dependents_closure(f"M{leaf}"))
    t0 = time.perf_counter()
    surf_result = builder2.build(surf_graph)
    surf_seconds = time.perf_counter() - t0

    return {
        "n_modules": n_total,
        "rounds": rounds,
        "cpu_count": os.cpu_count(),
        "cold_s": round(cold, 6),
        "warm_s": round(warm_seconds, 6),
        "warm_recompiled": warm_result.n_compiled,
        "warm_cached": warm_result.n_cached,
        "body_edit_s": round(body_seconds, 6),
        "body_edit_recompiled": body_result.n_compiled,
        "surface_edit_s": round(surf_seconds, 6),
        "surface_edit_recompiled": surf_result.n_compiled,
        "surface_edit_dependents": n_dependents,
    }


def check_shape(m: Dict[str, object]) -> List[str]:
    """The claims BENCH_s3.json certifies (shared by pytest and the
    script)."""
    failures = []
    n = m["n_modules"]
    if m["warm_recompiled"] != 0:
        failures.append(f"warm rebuild recompiled {m['warm_recompiled']}")
    if m["body_edit_recompiled"] != 1:
        failures.append(f"body edit recompiled {m['body_edit_recompiled']}, "
                        f"expected exactly 1 (cut-off)")
    expected = 1 + m["surface_edit_dependents"]
    if m["surface_edit_recompiled"] != expected:
        failures.append(f"surface edit recompiled "
                        f"{m['surface_edit_recompiled']}, expected "
                        f"{expected} (module + dependents)")
    if m["surface_edit_recompiled"] >= n:
        failures.append("surface edit recompiled the whole tree")
    return failures


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_incremental_build_is_o_dependents():
    metrics = measure(n_modules=min(N_MODULES, 12), rounds=1)
    record("S3 incremental module builds", "edit-rebuild scaling", **{
        k: v for k, v in metrics.items() if isinstance(v, (int, float))})
    failures = check_shape(metrics)
    assert not failures, (failures, metrics)


# ---------------------------------------------------------------------------
# script entry point: write BENCH_s3.json
# ---------------------------------------------------------------------------

def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    metrics = measure(n_modules=8 if smoke else N_MODULES,
                      rounds=1 if smoke else ROUNDS)
    failures = check_shape(metrics)
    payload = {
        "benchmark": "s3_incremental_build",
        "smoke": smoke,
        "build": metrics,
        "failures": failures,
        "passed": not failures,
    }
    out = os.path.join(REPO_ROOT, "BENCH_s3.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {out}")
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
