"""Pass-core golden: the core after every pass, pinned byte for byte.

For each corpus program and option set, both compile paths — cold
``compile_source`` and warm ``compile_with_snapshot`` — run with an
observer that prints the whole core program after every pass from
``translate`` on (``pp_binding(b, annotations=True)``, one binding per
line) and records the SHA-256 of that text.  The linked core of
``examples/modtree`` is pinned the same way.  ``tests/golden/
pass_core.json`` holds the digests; regenerate it with
``PYTHONPATH=src python tests/golden/regen_pass_core.py`` only after an
intended change to a pass's output, and say why in the change log.

The warm and cold digests differ for user bindings (translator-local
binders are numbered afresh per unit) and are recorded separately.
"""

from __future__ import annotations

import ast
import hashlib
import json
import pathlib
from typing import Dict, List, Tuple

from repro import compile_source
from repro.coreir.pretty import pp_binding
from repro.modules.build import build_modules
from repro.options import OPTIMIZED, CompilerOptions
from repro.service.cache import CompileCache
from repro.service.snapshot import PreludeSnapshot, compile_with_snapshot

from tests.test_pipeline import OPTION_SETS, PROGRAMS

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "pass_core.json"


def corpus() -> List[Tuple[str, str]]:
    """(label, source) for every pinned program: test_pipeline's
    PROGRAMS, the ``SOURCE`` of every example defining one, and the
    regression program."""
    out = [(f"test_pipeline.PROGRAMS[{i}]", src)
           for i, src in enumerate(PROGRAMS)]
    for path in sorted((ROOT / "examples").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "SOURCE"
                    for t in node.targets):
                out.append((f"examples/{path.name}",
                            ast.literal_eval(node.value)))
    path = ROOT / "tests" / "data" / "regression.mhs"
    out.append(("tests/data/regression.mhs",
                path.read_text(encoding="utf-8")))
    return out


def option_sets() -> List[Tuple[str, CompilerOptions]]:
    """test_pipeline's OPTION_SETS plus each per-binding transform off."""
    labels = ["default", "naive", "optimized", "flat"]
    assert len(labels) == len(OPTION_SETS)
    return list(zip(labels, OPTION_SETS)) + [
        ("no-inner-entry-points", CompilerOptions(inner_entry_points=False)),
        ("no-hoist", CompilerOptions(hoist_dictionaries=False)),
    ]


def core_digest(bindings, printed=None) -> str:
    """SHA-256 of the bindings printed one per line.  *printed* caches
    each binding's text by object (passes hand back untouched bindings
    as the same objects); it holds the binding, so ids stay unique."""
    lines = []
    for b in bindings:
        entry = printed.get(id(b)) if printed is not None else None
        if entry is None:
            entry = (b, pp_binding(b, annotations=True))
            if printed is not None:
                printed[id(b)] = entry
        lines.append(entry[1])
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _pass_digests(compile_fn) -> Dict[str, str]:
    digests: Dict[str, str] = {}
    printed: Dict[int, Tuple] = {}

    def observe(pass_name, ctx):
        if ctx.core is not None:
            digests[pass_name] = core_digest(ctx.core.bindings, printed)

    compile_fn(observe)
    return digests


def compute() -> Dict[str, Dict]:
    """The digests the golden file records, in its layout:
    ``compile[program][options][path][pass]`` and
    ``link[options]``."""
    compiled: Dict[str, Dict] = {}
    sets = option_sets()
    snapshots = {label: PreludeSnapshot.build(opts) for label, opts in sets}
    for label, source in corpus():
        per_options = compiled[label] = {}
        for opt_label, opts in sets:
            snap = snapshots[opt_label]
            per_options[opt_label] = {
                "cold": _pass_digests(lambda obs: compile_source(
                    source, opts, observer=obs)),
                "warm": _pass_digests(lambda obs: compile_with_snapshot(
                    source, snap, opts, observer=obs)),
            }
    linked = {}
    for opt_label, opts in (("default", CompilerOptions()),
                            ("optimized", OPTIMIZED)):
        result = build_modules([str(ROOT / "examples" / "modtree")],
                               options=opts, cache=CompileCache())
        linked[opt_label] = core_digest(result.program.core.bindings)
    return {"compile": compiled, "link": {"examples/modtree": linked}}


def first_divergence(expected: Dict, actual: Dict) -> str:
    """Name the first program, option set, path and pass whose digest
    differs (in corpus order), or "" when everything matches."""
    for program, per_options in actual["compile"].items():
        for opt_label, paths in per_options.items():
            for path, passes in paths.items():
                want = expected["compile"].get(program, {}).get(
                    opt_label, {}).get(path, {})
                for pass_name in list(passes) + [
                        p for p in want if p not in passes]:
                    if passes.get(pass_name) != want.get(pass_name):
                        return (f"program {program}, options {opt_label}, "
                                f"path {path}, pass {pass_name}")
    for program, per_options in actual["link"].items():
        for opt_label, digest in per_options.items():
            if expected["link"].get(program, {}).get(opt_label) != digest:
                return f"linked core of {program}, options {opt_label}"
    if expected != actual:
        return "the golden lists entries the corpus no longer produces"
    return ""


def test_pass_core_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute()
    where = first_divergence(expected, actual)
    assert not where, (
        f"core differs from tests/golden/pass_core.json at {where}; if "
        f"the change is intended, regenerate with "
        f"tests/golden/regen_pass_core.py")


def test_golden_covers_corpus():
    # Guards the guard: every program, option set and both paths are
    # pinned, with a digest for every pass from translate on.
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [label for label, _ in corpus()] == list(expected["compile"])
    for per_options in expected["compile"].values():
        assert list(per_options) == [label for label, _ in option_sets()]
        for label, paths in per_options.items():
            assert set(paths) == {"cold", "warm"}
            assert list(paths["cold"]) == list(paths["warm"])
            assert list(paths["cold"])[:2] == ["translate", "selectors"]
    assert set(expected["link"]["examples/modtree"]) == {"default",
                                                         "optimized"}
