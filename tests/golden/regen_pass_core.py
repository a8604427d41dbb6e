#!/usr/bin/env python
"""Regenerate tests/golden/pass_core.json (run from the repo root with
PYTHONPATH=src) after an intended change to what a pass emits.  The
corpus, option sets and digest live in tests/test_pass_golden.py."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.test_pass_golden import GOLDEN, compute  # noqa: E402


def regen() -> None:
    digests = compute()
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n",
                      encoding="utf-8")
    n = sum(len(passes) for per_options in digests["compile"].values()
            for paths in per_options.values() for passes in paths.values())
    print(f"wrote {GOLDEN} ({n} pass digests, "
          f"{len(digests['link']['examples/modtree'])} linked cores)")


if __name__ == "__main__":
    regen()
