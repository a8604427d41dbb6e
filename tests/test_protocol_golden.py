"""The wire protocol, pinned: one fixed request script through both
backends (in-process and a 2-shard fleet) over both transports (TCP
and stdio), diffed against ``tests/golden/protocol.jsonl``.

Timings, pids and latency numbers are masked; everything else a client
can see — values, schemes, error codes and messages, ``positions``,
counters, cache statistics — must match.  A failure names the first
request and field that diverge.  After an intentional protocol change,
regenerate with ``tests/golden/regen_protocol.py`` and explain every
changed line.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

import pytest

from tests.golden.regen_protocol import GOLDEN, RUNS, SCRIPT, run_script


def _golden() -> Dict[str, List[Dict[str, Any]]]:
    runs: Dict[str, List[Dict[str, Any]]] = {}
    with open(GOLDEN, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            runs.setdefault(row["run"], []).append(row)
    return runs


def first_divergence(expected: Any, actual: Any,
                     path: str = "") -> Optional[str]:
    """The path of the first field where *actual* differs from
    *expected*, with both values; None when they are equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else key
            if key not in actual:
                return f"{where}: missing (expected {expected[key]!r})"
            if key not in expected:
                return f"{where}: unexpected {actual[key]!r}"
            found = first_divergence(expected[key], actual[key], where)
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (want, got) in enumerate(zip(expected, actual)):
            found = first_divergence(want, got, f"{path}[{i}]")
            if found:
                return found
        if len(expected) != len(actual):
            return (f"{path}: {len(actual)} items, "
                    f"expected {len(expected)}")
        return None
    if expected != actual or type(expected) is not type(actual):
        return f"{path or '<root>'}: expected {expected!r}, got {actual!r}"
    return None


def test_golden_covers_every_run_and_request():
    golden = _golden()
    assert sorted(golden) == sorted(RUNS)
    for run, rows in golden.items():
        assert [row["request"] for row in rows] == SCRIPT, run


@pytest.mark.parametrize("run", RUNS)
def test_protocol_matches_golden(run):
    expected = _golden()[run]
    replies = run_script(run)
    assert len(replies) == len(expected), \
        f"{run}: {len(replies)} replies, expected {len(expected)}"
    for row, reply in zip(expected, replies):
        found = first_divergence(row["response"], reply)
        assert found is None, \
            f"{run} request {row['seq']} ({row['request'][:60]}): {found}"


def test_first_divergence_names_the_field():
    assert first_divergence({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}}) \
        == "a.b[1]: expected 2, got 3"
    assert first_divergence({"a": 1}, {"a": 1, "c": 2}) == "c: unexpected 2"
    assert first_divergence({"a": 1}, {"a": True}) \
        == "a: expected 1, got True"
    assert first_divergence([1], [1]) is None
