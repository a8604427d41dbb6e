""".ri byte pin: the serialized interfaces of examples/modtree.

The interface files are a published format: distributed builds promise
bytes identical to local ones, and build tools downstream see their
mtimes and contents.  This test pins the SHA-256 of every ``.ri`` file
an inline-module build of ``examples/modtree`` writes, so a change to
the serializer (or to anything it serializes) that moves a single byte
fails here first.

The modules are built from in-memory sources named ``<Name>``: a build
from files embeds each file's absolute path in the source positions it
serializes, which would tie the digests to the checkout's location.

Both option sets write the same bytes: a module compile stops after
translation, before any of the transforms ``OPTIMIZED`` turns on.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro.modules.build import ModuleBuilder
from repro.modules.resolve import scan_inline_modules
from repro.options import OPTIMIZED, CompilerOptions
from repro.service.cache import CompileCache

MODTREE = pathlib.Path(__file__).resolve().parents[1] / "examples" / "modtree"

#: SHA-256 of each module's ``.ri`` file.  Move a digest only for an
#: intended change to the interface format or to a module's compiled
#: surface, and say why in the change log.
RI_SHA256 = {
    "Geometry":
        "46592161d5f60482bcd8895b11c2df5ff2347a035a55bb9183852a0ce7e04f36",
    "Main":
        "8924ed51bc28eea0310c83cfa5560e53ac84ec6790eb12104ad9732bfa906bfc",
    "Monoid":
        "9add6e6c5e9770e467be5169c0cc3088842eab92e9e24f3916575c0a52027bed",
    "Nat":
        "29776f97f5a9abdf3c2ef596ae0f639e82e4782dbb03e411f773599e8890cca3",
    "NatMonoid":
        "bf21e6146adfcdf06777c30d17080569dea247c01bd854615ef5e8ed6ac7cddf",
    "Pair":
        "92648b18d4f9465219fdee757b65aa5daa46c406343b98fbb637d20c31e60dc6",
    "Pretty":
        "ab205efbde74aad45e06fa74590c4a864939ae6301ccfd0818511f313216e640",
    "PrettyNat":
        "f984c968ddb5406970a28839fd16f9e68f7e771cc3754a3520d2f09ea1d878a4",
    "PrettyPair":
        "730f9f1a1225ea4705ef33ef06a530f708a0f6b050ec8503f9e3af254a024939",
    "PrettyShape":
        "4f07af0be159a4621e3ddcd542cdc905bf45af8535815bb8911c34ecf4873393",
    "Semigroup":
        "57b53ce6aa1fd9b71fa6c67e5aa390f295d91e19ca32e1fa6bb9c28bcea15534",
    "Shape":
        "2f5ce7154c0bd0a038d5d3cb739c55a8a3e47203e86959b04981b88466df35c2",
    "Stats":
        "99ca32464d3d830053d17856651b18b4d5427bbc13fd09d0f38ab54015ccc0a3",
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
