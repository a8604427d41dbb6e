"""Evaluation golden: the value and counters of every pinned run.

For each corpus program the interpreter runs ``main`` under
call-by-need and call-by-name, once more with a step limit that stops
it half way, and once with a small ``eval_depth_limit``; each run
records the value (or the error's code and message) and
``EvalStats.snapshot()`` at the end or at the stop.  Programs that the
Python backend runs as well record ``to_python()``'s value and its
``pyrt`` counters.  ``tests/golden/eval_stats.json`` holds the result;
regenerate it with ``PYTHONPATH=src python tests/golden/regen_eval_stats.py``
only after an intended change to evaluation, and say why in the
change log.

The corpus: perfbench's ``run`` set at seed 1 (which copies most
examples), the ``SOURCE`` of every other example and the linked
``examples/modtree``, the programs the E2–E8 and A1–A2 benchmarks run
(E1 and E9 evaluate nothing), and the fuzz runner's adversarial
corpus.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import pathlib
import sys
from typing import Any, Callable, Dict, List, Tuple

from repro import compile_source
from repro.coreir.eval import with_big_stack
from repro.errors import ReproError
from repro.modules.build import build_modules
from repro.options import CompilerOptions, options_fingerprint
from repro.service.cache import CompileCache
from repro.service.snapshot import PreludeSnapshot

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "eval_stats.json"

#: step budget of a full run, which every program but the fuzz corpus's
#: endless and deep ones finishes within
STEP_CAP = 2_000_000
#: step budget of the fuzz corpus's runs and of every call-by-name run
#: (call-by-name repeats work, so most programs run out of it)
SHORT_CAP = 20_000
#: the nesting budget of the depth-limited run
DEPTH_STOP = 40

#: (label, compile, step budget, also run the Python backend)
Entry = Tuple[str, Callable[[Callable], Any], int, bool]


def _perfbench_run_set() -> List[Tuple[str, str]]:
    path = ROOT / "perfbench" / "programs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_programs",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return [(p.name, p.source) for p in module.run_population(1)]


def _example_sources() -> List[Tuple[str, str]]:
    out = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "SOURCE"
                    for t in node.targets):
                out.append((path.name, ast.literal_eval(node.value)))
    return out


def _benchmark_programs() -> List[Tuple[str, str, Dict[str, Any]]]:
    from benchmarks import (bench_a1_backends as a1,
                            bench_a2_single_slot as a2,
                            bench_e2_dispatch as e2,
                            bench_e3_dict_passing as e3,
                            bench_e4_dict_construction as e4,
                            bench_e5_inner_entry as e5,
                            bench_e6_specialize as e6,
                            bench_e7_flatten as e7,
                            bench_e8_tags_baseline as e8)
    no_hoist = dict(hoist_dictionaries=False, inner_entry_points=False)
    return [
        ("e2.direct", e2.DIRECT, {}),
        ("e2.dispatch", e2.DISPATCH, dict(specialize=False)),
        ("e2.specialized", e2.DISPATCH, dict(specialize=True)),
        ("e3.overloaded", e3.OVERLOADED, {}),
        ("e3.mono", e3.MONO, {}),
        ("e3.known_type", e3.METHODS_AT_KNOWN_TYPE, {}),
        ("e4.naive", e4.workload(50), no_hoist),
        ("e4.improved", e4.workload(50),
         dict(hoist_dictionaries=True, inner_entry_points=True)),
        ("e5.without_entry", e5.workload(100), no_hoist),
        ("e5.with_entry", e5.workload(100),
         dict(hoist_dictionaries=False, inner_entry_points=True)),
        ("e6.generic", e6.SRC, dict(specialize=False)),
        ("e6.specialized", e6.SRC, dict(specialize=True)),
        ("e7.nested", e7.chain_program(4, 30),
         dict(dict_layout="nested", single_slot_opt=False, **no_hoist)),
        ("e7.flat", e7.chain_program(4, 30),
         dict(dict_layout="flat", single_slot_opt=False, **no_hoist)),
        ("e8.dictionaries", e8.DICT_SRC, {}),
        ("a1", a1.SRC, {}),
        ("a2.bare", a2.SRC, dict(single_slot_opt=True, **no_hoist)),
        ("a2.tuple", a2.SRC, dict(single_slot_opt=False, **no_hoist)),
    ]


def corpus() -> List[Entry]:
    """Every pinned program as ``(label, compile, budget, py)``, where
    ``compile(snapshot_for)`` builds it (``snapshot_for(options)`` gives
    the prelude snapshot of an option set)."""
    from tests.fuzz.corpus import ADVERSARIAL_CORPUS

    def source_entry(source: str, **options: Any):
        opts = CompilerOptions(**options)
        return lambda snapshot_for: compile_source(
            source, opts, snapshot=snapshot_for(opts))

    out: List[Entry] = []
    run_set = _perfbench_run_set()
    for name, source in run_set:
        out.append((f"perfbench.run/{name}",
                    source_entry(source, solver="reduce", lint=False,
                                 cache_dir=""), STEP_CAP, True))
    # perfbench's corpus copies the examples (bar the final newline)
    copied = {source.strip() for _name, source in run_set}
    for name, source in _example_sources():
        if source.strip() not in copied:
            out.append((f"examples/{name}", source_entry(source),
                        STEP_CAP, True))
    out.append(("examples/modtree", lambda _snapshot_for: build_modules(
        [str(ROOT / "examples" / "modtree")],
        cache=CompileCache()).program, STEP_CAP, True))
    for name, source, options in _benchmark_programs():
        out.append((f"benchmarks/{name}", source_entry(source, **options),
                    STEP_CAP, True))
    for name, source in ADVERSARIAL_CORPUS:
        out.append((f"fuzz.corpus/{name}", source_entry(source),
                    SHORT_CAP, False))
    return out


def _outcome(run: Callable[[], Any], stats: Callable[[], Dict[str, int]]
             ) -> Dict[str, Any]:
    try:
        record: Dict[str, Any] = {"value": repr(run())}
    except ReproError as exc:
        record = {"error": exc.code, "message": str(exc)}
    record["stats"] = stats()
    return record


def run_record(program, budget: int, py: bool) -> Dict[str, Any]:
    """The pinned runs of one compiled program."""
    def interpreted(**overrides: Any) -> Dict[str, Any]:
        return _outcome(lambda: program.run("main", **overrides),
                        lambda: program.last_stats.snapshot())

    record = {
        "need": interpreted(call_by_need=True, step_limit=budget),
        "name": interpreted(call_by_need=False,
                            step_limit=min(budget, SHORT_CAP)),
    }
    half = max(1, record["need"]["stats"]["steps"] // 2)
    record["step_stop"] = interpreted(step_limit=half)
    record["depth_stop"] = interpreted(step_limit=budget,
                                       max_depth=DEPTH_STOP)
    if py:
        runtime = program.to_python()
        record["py"] = _outcome(
            lambda: with_big_stack(lambda: runtime.run("main")),
            runtime.counters.snapshot)
    return record


def compute() -> Dict[str, Dict[str, Any]]:
    snapshots: Dict[str, PreludeSnapshot] = {}

    def snapshot_for(options: CompilerOptions) -> PreludeSnapshot:
        key = options_fingerprint(options)
        if key not in snapshots:
            snapshots[key] = PreludeSnapshot.build(options)
        return snapshots[key]

    out: Dict[str, Dict[str, Any]] = {}
    for label, build, budget, py in corpus():
        try:
            program = build(snapshot_for)
        except ReproError as exc:
            out[label] = {"compile": exc.code}
            continue
        if "main" not in program.schemes:
            out[label] = {"compile": "no main"}
            continue
        out[label] = run_record(program, budget, py)
    return out


def first_divergence(expected: Dict, actual: Dict) -> str:
    """Name the first program and run whose record differs, or ""."""
    for label, record in actual.items():
        want = expected.get(label)
        if want == record:
            continue
        if want is None or set(want) != set(record):
            return f"{label}: {want!r:.300} != {record!r:.300}"
        for run, got in record.items():
            if want[run] != got:
                return f"{label} [{run}]: {want[run]!r} != {got!r}"
    if expected != actual:
        return "the golden lists programs the corpus no longer produces"
    return ""


def test_evaluation_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute()
    assert first_divergence(expected, actual) == ""
