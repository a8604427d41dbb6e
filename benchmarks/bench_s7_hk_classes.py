"""S7 — higher-kinded classes: the monadic-pipeline workload.

PR 10 lifted class variables to arbitrary kinds and grew the prelude a
Functor/Applicative/Monad hierarchy.  The interesting cost question is
the same one the paper asks about ``Eq``: what does the *dictionary*
for an abstraction this pervasive cost, and does specialisation
(§9 / the pygen backend) still erase it?

Workload: a validation pipeline written against ``Monad m`` — bind
chains, ``fmap`` post-processing, ``mapM`` over a list — instantiated
at ``Maybe`` and at ``[]``, plus a derived-Functor tree map.  Measured
**generic** (dictionary passing) vs **specialised** (link-time clones):
evaluator dictionary constructions and method selections — the
specialised path must eliminate the dispatch.

Run under pytest for the shape assertions, or as a script to
(re)write ``BENCH_s7.json`` at the repository root::

    PYTHONPATH=src:. python benchmarks/bench_s7_hk_classes.py
    PYTHONPATH=src:. python benchmarks/bench_s7_hk_classes.py --smoke
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

from benchmarks.conftest import compiled, record

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROUNDS = int(os.environ.get("BENCH_S7_ROUNDS", "6"))

SRC = """
data Tree a = Leaf | Node (Tree a) a (Tree a)
  deriving (Functor, Eq)

build :: Int -> Tree Int
build n = if n <= 0 then Leaf
          else Node (build (n - 1)) n (build (n - 2))

clamp :: Monad m => Int -> Int -> m Int
clamp limit x = if x > limit then return limit else return x

stage :: Monad m => Int -> m Int
stage x = return (x * 2) >>= clamp 900 >>= (\\y -> return (y + 1))

pipeline :: Monad m => [Int] -> m Int
pipeline xs = mapM stage xs >>= (\\ys -> return (sum ys))

sumTree :: Tree Int -> Int
sumTree Leaf = 0
sumTree (Node l x r) = sumTree l + x + sumTree r

main =
  let input = enumFromTo 1 40
      viaMaybe = pipeline input :: Maybe Int
      viaList = fmap (\\t -> t + 1) (pipeline input :: [Int])
      mapped = sumTree (fmap (\\x -> x * 3) (build 8))
  in (viaMaybe, viaList, mapped)
"""

def measure(rounds: int = ROUNDS) -> Dict[str, object]:
    out: Dict[str, object] = {"rounds": rounds,
                              "workload": "monadic pipeline at Maybe/[], "
                                          "derived-Functor tree map, n=40"}
    # -- dictionary vs specialised dispatch ------------------------------
    for label, specialize in (("generic", False), ("specialized", True)):
        program = compiled(SRC, specialize=specialize)
        value = program.run("main")  # warm-up and the measured value
        t0 = time.perf_counter()
        for _ in range(rounds):
            program.run("main")
        run_s = (time.perf_counter() - t0) / rounds
        stats = program.last_stats
        out[label] = {
            "value": value,
            "run_s": round(run_s, 6),
            "dict_constructions": stats.dict_constructions,
            "dict_selections": stats.dict_selections,
            "steps": stats.steps,
        }
    return out


def check_shape(m: Dict[str, object]) -> List[str]:
    """The claims BENCH_s7.json certifies (shared by pytest and the
    script)."""
    failures: List[str] = []
    gen, spec = m["generic"], m["specialized"]
    if gen["value"] != spec["value"]:
        failures.append(
            f"specialisation changed the value: {gen['value']!r} vs "
            f"{spec['value']!r}")
    if gen["dict_selections"] <= 0:
        failures.append(
            "the generic pipeline performed no method selections — the "
            "workload no longer exercises higher-kinded dictionaries")
    if spec["dict_selections"] >= gen["dict_selections"]:
        failures.append(
            f"specialisation did not reduce dispatch: "
            f"{spec['dict_selections']} vs {gen['dict_selections']} "
            f"selections")
    return failures


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_s7_hk_pipeline_shape():
    metrics = measure(rounds=2)
    record("S7 higher-kinded classes", "generic (dictionaries)",
           selections=metrics["generic"]["dict_selections"],
           dicts=metrics["generic"]["dict_constructions"],
           steps=metrics["generic"]["steps"])
    record("S7 higher-kinded classes", "specialised clones",
           selections=metrics["specialized"]["dict_selections"],
           dicts=metrics["specialized"]["dict_constructions"],
           steps=metrics["specialized"]["steps"])
    failures = check_shape(metrics)
    assert not failures, (failures, metrics)


# ---------------------------------------------------------------------------
# script entry point: write BENCH_s7.json
# ---------------------------------------------------------------------------

def main(argv: List[str]) -> int:
    smoke = "--smoke" in argv
    metrics = measure(rounds=2 if smoke else ROUNDS)
    failures = check_shape(metrics)
    payload = {
        "benchmark": "s7_hk_classes",
        "smoke": smoke,
        "metrics": metrics,
        "failures": failures,
        "passed": not failures,
    }
    out = os.path.join(REPO_ROOT, "BENCH_s7.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {out}")
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
