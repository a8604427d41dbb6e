""".ri byte pin: the serialized interfaces of examples/modtree.

The interface files are a published format: build tools downstream
see their mtimes and contents, so a module writes the same bytes
whether it was compiled against its imports' interfaces from a fresh
build or against copies unpickled from the compile cache's disk tier.
This test pins the SHA-256 of every ``.ri`` file an inline-module
build of ``examples/modtree`` writes, so a change to the serializer
(or to anything it serializes) that moves a single byte fails here
first, and checks that two builds, and a rebuild over the disk cache,
write the same bytes.

The modules are built from in-memory sources named ``<Name>``: a build
from files embeds each file's absolute path in the source positions it
serializes, which would tie the digests to the checkout's location.

Both option sets write the same bytes: a module compile stops after
translation, before any of the transforms ``OPTIMIZED`` turns on.

The surface fingerprints (``ModuleInterface.fingerprint``, the digest
every dependent's cache key is built from) are pinned beside the bytes.
They digest the rendered surface, not the pickle, so a change to how a
record is stored moves the bytes but must leave every fingerprint
where it was.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro.modules.build import ModuleBuilder, build_modules
from repro.modules.resolve import scan_inline_modules
from repro.options import OPTIMIZED, CompilerOptions
from repro.service.cache import CompileCache

MODTREE = pathlib.Path(__file__).resolve().parents[1] / "examples" / "modtree"

#: SHA-256 of each module's ``.ri`` file.  Move a digest only for an
#: intended change to the interface format or to a module's compiled
#: surface, and say why in the change log.
RI_SHA256 = {
    "Geometry":
        "1a0d010c4fbd6b5b7641593badbe0ff5565f2e6fa8f922a60ae4a0c665188286",
    "Main":
        "6014be07b52d06533b902ec98055fe78408648e9755e7e2d65a1eebea9a3f967",
    "Monoid":
        "230c3ae8c82043a2cd428960eced7fa7265df01c9192c9a8985b5036f5fffd40",
    "Nat":
        "be8c5b26c6f5ac54e85426588c395858c6dcfc47a7e3558968e8df902938fbec",
    "NatMonoid":
        "73a39f3bfbc115806d3558faf85537455cc23ffc1ea140053926ba9ac12d4bca",
    "Pair":
        "c9e5980445c4e70ce53e240324553ae693a423272667c5a9d4c1515c668a36e3",
    "Pretty":
        "3bc38343987dd3653666531b965d550bb1e775155ef03e0760afcd5a5211f731",
    "PrettyNat":
        "909f6c315f8196da2c8f2d94bb8c7a9dff363e9e33f37f9b274d49e12607d7aa",
    "PrettyPair":
        "f30436d43c3776c96d706d0ee5d00594c9040b37c0bc24c224353c9bcd739d5e",
    "PrettyShape":
        "0c00e357cfe071ed25449e8c8e12ef674a9254e285af39c9aafc8e3907de79e2",
    "Semigroup":
        "7f5c900da9802c48402f944cc5830ce2e3252fbd352fc33613a581aecc6bc00c",
    "Shape":
        "00cc30e90f788dd4d9645e9431caafe0bb456c9327127688de3ad029ab9455fb",
    "Stats":
        "176cc9507518bd3eeb7d79e5150f4887bbd9993ecf2854e829784d45d6191bdd",
}

#: Surface fingerprint of each module's interface.  The cache keys of
#: its dependents are built from it, so it moves only when the module's
#: exported surface does, never for a change to the file format.
RI_FINGERPRINT = {
    "Geometry":
        "cc30e55aa02663eb599d871be8f5c80abacaebe055459fa9893abfe22bed5781",
    "Main":
        "831e3852ee057fef2ebff7339e7baeb37459140a7832331c50e4a77067532bb4",
    "Monoid":
        "d9ee27e84a3ee91ca58bfc4ac4d2b711aa686b7bb3383491e51140c3ce2d2e41",
    "Nat":
        "010c2618e02f9f861823680bc4595fba7c9145f9d14d2413df1dabf1588e03c8",
    "NatMonoid":
        "f1364e6f4e0e8c30915ec4f8f98a97fb1b2df4171a3c89143f6f5e80c0cfbc49",
    "Pair":
        "8990cbdfa4fb9fc6f73721668d3973cb0f86b1b29e6d3453228154c1bda6dc1c",
    "Pretty":
        "f840fd8dddf3e6bda517708abc6287c138b7ffdffafd842b6c33cc026ec83f39",
    "PrettyNat":
        "c6b7520fb0124c3db5de0b014268708642a3bfbd831f65f38f10d83604c85202",
    "PrettyPair":
        "4ae468e6b60da3e157eb5dc6441283bcb60cca1024ddd51886cf0988b1c0f20d",
    "PrettyShape":
        "60c937725a70220f886f5e6176bcdc4ac0f45250f9eeca7660aba63b4974969f",
    "Semigroup":
        "76618f2db16fca56ccb0053f1b29bb9936fc56bb937a0b096a28be37cac38b1f",
    "Shape":
        "f894878130bfafd24fa7a65d87a8c552778a43fff0ef984896f937fecbc2b9f9",
    "Stats":
        "ba8f7767887290387e5518f03d91216190d96499526462c63bb1e408a3801213",
}


def inline_specs():
    return [{"name": path.stem, "source": path.read_text(encoding="utf-8")}
            for path in sorted(MODTREE.glob("*.mhs"))]


@pytest.mark.parametrize("options", [CompilerOptions(), OPTIMIZED],
                         ids=["default", "optimized"])
def test_interface_bytes_are_pinned(options, tmp_path):
    # A fresh memory-only cache, so every module really compiles and
    # writes its interface.
    ModuleBuilder(options, cache=CompileCache(capacity=64)).build(
        scan_inline_modules(inline_specs()), jobs=1, out_dir=str(tmp_path))
    written = {path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*.ri"))}
    assert sorted(written) == sorted(RI_SHA256)
    for name, digest in RI_SHA256.items():
        assert written[name] == digest, \
            f"the bytes of {name}.ri moved"


@pytest.mark.parametrize("options", [CompilerOptions(), OPTIMIZED],
                         ids=["default", "optimized"])
def test_interface_fingerprints_are_pinned(options):
    result = ModuleBuilder(options, cache=CompileCache(capacity=64)).build(
        scan_inline_modules(inline_specs()), jobs=1, link=False)
    fingerprints = {name: info["fingerprint"]
                    for name, info in result.modules.items()}
    assert fingerprints == RI_FINGERPRINT


def _build(out_dir):
    # A fresh memory-only cache per build: nothing carries over, so
    # every module really compiles.
    return build_modules([str(MODTREE)], CompilerOptions(),
                         out_dir=str(out_dir),
                         cache=CompileCache(capacity=64))


def test_interface_bytes_are_content_deterministic(tmp_path):
    # Two independent builds — separate caches, different
    # object-graph sharing — still serialize identical interfaces.
    a, b = tmp_path / "a", tmp_path / "b"
    order = _build(a).order
    _build(b)
    for name in order:
        with open(a / f"{name}.ri", "rb") as fa, \
                open(b / f"{name}.ri", "rb") as fb:
            assert fa.read() == fb.read(), name


def test_recompile_against_disk_interfaces_writes_fresh_bytes(tmp_path):
    # A body edit to Stats (the CI check-verb job's edit) recompiles it
    # alone, against its imports' interfaces as unpickled from the disk
    # cache, which share sub-objects differently from a fresh build's.
    # The memo-free pickle (_canonical_dumps) keeps its bytes the same.
    def builder(disk_dir=None):
        return ModuleBuilder(CompilerOptions(), cache=CompileCache(
            capacity=64, disk_dir=disk_dir))

    disk = str(tmp_path / "cache")
    builder(disk).build(scan_inline_modules(inline_specs()), link=False)
    edited = [dict(spec, source=spec["source"]
                   + "\nbodyEditPad :: Int\nbodyEditPad = 7\n")
              if spec["name"] == "Stats" else spec
              for spec in inline_specs()]
    rebuilt_dir, fresh_dir = tmp_path / "rebuilt", tmp_path / "fresh"
    rebuilt = builder(disk).build(scan_inline_modules(edited), link=False,
                                  out_dir=str(rebuilt_dir))
    assert [name for name, info in rebuilt.modules.items()
            if not info["cached"]] == ["Stats"]
    assert rebuilt.cache["disk_hits"] == len(RI_SHA256) - 1
    builder().build(scan_inline_modules(edited), link=False,
                    out_dir=str(fresh_dir))
    fresh = {path.name: path.read_bytes()
             for path in sorted(fresh_dir.glob("*.ri"))}
    assert sorted(fresh) == sorted(path.name
                                   for path in rebuilt_dir.glob("*.ri"))
    for name, payload in fresh.items():
        assert (rebuilt_dir / name).read_bytes() == payload, name
