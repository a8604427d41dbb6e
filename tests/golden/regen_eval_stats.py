#!/usr/bin/env python
"""Regenerate tests/golden/eval_stats.json (run from the repo root with
PYTHONPATH=src) after an intended change to evaluation.  The corpus and
the runs live in tests/test_eval_golden.py."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.test_eval_golden import GOLDEN, compute  # noqa: E402


def regen() -> None:
    records = compute()
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    runs = sum(len(r) for r in records.values() if "compile" not in r)
    print(f"wrote {GOLDEN} ({len(records)} programs, {runs} runs)")


if __name__ == "__main__":
    regen()
