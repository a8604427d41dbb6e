"""Workload lookup: each workload is a module ``wl_<name>`` with
``prepare``, ``setup`` (except ``serve``, whose set-up is spawning its
server) and ``Workload``."""

from __future__ import annotations

import importlib
from types import ModuleType


def load(name: str) -> ModuleType:
    return importlib.import_module(f"wl_{name}")
