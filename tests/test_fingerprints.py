"""Fingerprint stability guards.

The compile cache persists across processes (disk tier), so the
fingerprints that form cache keys must only move when compilation
output can actually change.  These tests pin that contract:

* every service-only option is ignored by ``options_fingerprint`` (and
  hence by ``prelude_fingerprint`` and ``cache_key``);
* the default fingerprint matches a known-good digest, so *adding* a
  service-only field to ``CompilerOptions`` cannot silently invalidate
  every disk-cached program — the author must consciously extend
  ``SERVICE_OPTION_FIELDS`` (restoring the digest) or accept the
  invalidation by updating the constant here.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import compile_source
from repro.options import (
    SERVICE_OPTION_FIELDS,
    CompilerOptions,
    options_fingerprint,
)
from repro.service.cache import cache_key
from repro.service.snapshot import prelude_fingerprint

#: options_fingerprint(CompilerOptions()) at the time the disk cache
#: format was frozen.  A change here invalidates every cached program
#: on every user's disk — never update it casually.  (Last moved
#: deliberately when the resource-limit fields — max_parse_depth,
#: max_type_depth, eval_depth_limit — joined CompilerOptions: they
#: change compilation outcomes, so they belong in the key.  Last moved
#: when the specialization fields — specialize_xmodule,
#: specialize_budget — joined: both change the linked core.  Last moved
#: when the ``solver`` field joined.  It has one accepted value,
#: "reduce", and stays in the key so that the digest did not move when
#: the second solver was removed.)
KNOWN_DEFAULT_OPTIONS_FP = (
    "58e56a257d99f976c89c0726b318906b2540b1bcfdff61113efdb726851716e9")

#: prelude_fingerprint(CompilerOptions()) for the current prelude
#: text.  Moves when the prelude source changes (expected) or when
#: options_fingerprint moves (see above).
KNOWN_DEFAULT_PRELUDE_FP = (
    "a65f5315ffd06817f7b85bf080ba35687fb2432be5e0f54d3260fec732038d2a")

#: a value, different from the default, for each service-only field
SERVICE_OVERRIDES = {
    "cache_size": 3,
    "cache_dir": "/tmp/elsewhere",
    "cache_disk_budget": 1_000_000,
    "server_host": "0.0.0.0",
    "server_port": 7433,
    "request_timeout": 99.5,
    "lint": True,
    "server_shards": 4,
    "server_rate_limit": 250.0,
    "constraint_provenance": False,
}


class TestServiceFieldsIgnored:
    def test_every_service_field_is_covered_here(self):
        # If a field is added to SERVICE_OPTION_FIELDS, give it an
        # override above so the invariance tests exercise it.
        assert set(SERVICE_OVERRIDES) == set(SERVICE_OPTION_FIELDS)

    def test_every_service_field_exists(self):
        names = {f.name for f in dataclasses.fields(CompilerOptions)}
        for field in SERVICE_OPTION_FIELDS:
            assert field in names, field

    @pytest.mark.parametrize("field", SERVICE_OPTION_FIELDS)
    def test_options_fingerprint_ignores(self, field):
        base = CompilerOptions()
        changed = base.with_(**{field: SERVICE_OVERRIDES[field]})
        assert options_fingerprint(changed) == options_fingerprint(base)

    @pytest.mark.parametrize("field", SERVICE_OPTION_FIELDS)
    def test_prelude_fingerprint_ignores(self, field):
        base = CompilerOptions()
        changed = base.with_(**{field: SERVICE_OVERRIDES[field]})
        assert prelude_fingerprint(changed) == prelude_fingerprint(base)

    @pytest.mark.parametrize("field", SERVICE_OPTION_FIELDS)
    def test_cache_key_ignores(self, field):
        base = CompilerOptions()
        changed = base.with_(**{field: SERVICE_OVERRIDES[field]})
        fp = prelude_fingerprint(base)
        assert cache_key("main = 1", changed, fp) \
            == cache_key("main = 1", base, fp)

    def test_all_service_fields_at_once(self):
        base = CompilerOptions()
        changed = base.with_(**SERVICE_OVERRIDES)
        assert options_fingerprint(changed) == options_fingerprint(base)


class TestCompilerFieldsCovered:
    def test_compiler_options_do_change_fingerprint(self):
        base_fp = options_fingerprint(CompilerOptions())
        for field in dataclasses.fields(CompilerOptions):
            if field.name in SERVICE_OPTION_FIELDS:
                continue
            current = getattr(CompilerOptions(), field.name)
            if isinstance(current, bool):
                flipped = not current
            elif isinstance(current, int):
                flipped = current + 1
            elif isinstance(current, float):
                flipped = current + 1.0
            else:
                flipped = current + "-changed"
            changed = CompilerOptions().with_(**{field.name: flipped})
            assert options_fingerprint(changed) != base_fp, field.name


class TestKnownGoodDigests:
    def test_default_options_fingerprint_pinned(self):
        # Guards the disk cache: any new CompilerOptions field changes
        # this digest unless it is listed in SERVICE_OPTION_FIELDS.
        # Failing here means "every cached program is about to be
        # invalidated" — decide explicitly, then update the constant.
        assert options_fingerprint(CompilerOptions()) \
            == KNOWN_DEFAULT_OPTIONS_FP

    def test_default_prelude_fingerprint_pinned(self):
        assert prelude_fingerprint(CompilerOptions()) \
            == KNOWN_DEFAULT_PRELUDE_FP

    def test_chr_solver_rejected(self):
        # The solver field keeps its place in the key only with its
        # one accepted value; "chr" no longer names a backend, so no
        # compile, and hence no cache entry, is ever keyed on it.
        with pytest.raises(ValueError, match="'reduce'"):
            compile_source("main = 1", CompilerOptions(solver="chr"))

    def test_simulated_service_field_addition_is_caught(self):
        # A *new* service-only field must be excluded explicitly.
        # Simulate forgetting: injecting an extra attribute changes the
        # fingerprint (vars() picks it up) ...
        sloppy = CompilerOptions()
        sloppy.new_service_knob = 10_000  # type: ignore[attr-defined]
        assert options_fingerprint(sloppy) != KNOWN_DEFAULT_OPTIONS_FP
        # ... which is exactly what test_default_options_fingerprint
        # _pinned would catch on the real dataclass, forcing the author
        # to add the field to SERVICE_OPTION_FIELDS instead.


class TestEveryFieldIsRead:
    def test_every_field_is_read_outside_options(self):
        # A setting that no code reads is a constant in disguise: every
        # field must be loaded as ``<...>options.<field>`` (or
        # ``o.<field>`` in a pass's ``enabled`` predicate) somewhere in
        # the package besides options.py.
        import ast
        import pathlib

        import repro
        root = pathlib.Path(repro.__file__).parent
        read = set()
        for path in root.rglob("*.py"):
            if path == root / "options.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    owner = node.value
                    name = owner.id if isinstance(owner, ast.Name) \
                        else getattr(owner, "attr", "")
                    if name == "o" or name.endswith("options"):
                        read.add(node.attr)
        fields = {f.name for f in dataclasses.fields(CompilerOptions)}
        assert fields - read == set()
