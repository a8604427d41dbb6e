"""Smoke-length self-test of the benchmark.

Every workload, untraced and traced, must report correct outputs and
emit exactly the metrics ``BENCHMARK.json`` names, with their units;
count metrics must repeat exactly across two traced runs of one seed;
outside a checkout the benchmark must refuse to run.  Run from the root
of a checkout (a few minutes)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
#: ``serve`` is left out of BENCHMARK.json (its figures do not repeat on
#: a 2-processor host) but must keep working
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve"]
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
_results: Dict[Tuple[str, int, int, int], Dict[str, Any]] = {}


def bench(workload: str, seed: int, trace: int,
          cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, seed: int, trace: int, run: int = 0
           ) -> Dict[str, Any]:
    key = (workload, seed, trace, run)
    if key not in _results:
        proc = bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


def _check(res: Dict[str, Any], names: Dict[str, str]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    res = result(workload, 7, 0)
    _check(res, E2E)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload: str) -> None:
    _check(result(workload, 7, 1), PER_LAYER)


@pytest.mark.parametrize("workload", ["compile", "run", "build"])
def test_counts_repeat_exactly(workload: str) -> None:
    first = result(workload, 7, 1)["metrics"]
    second = result(workload, 7, 1, run=1)["metrics"]
    counts = [name for name, unit in PER_LAYER.items() if unit == "count"]
    assert any(first[name]["value"] for name in counts)
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_outside_a_checkout(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("compile", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
