"""Coherence corpus (after Bottu et al., "Coherence of Type Class
Resolution"): programs whose constraint derivations admit more than
one proof path.  Coherence means every path elaborates to the same
dictionary, so the observable behaviour is independent of

* the order rules happen to fire in — pinned by checking inferred
  schemes (as both former solver backends inferred them), not just
  values;
* module link order — pinned by building the same program from
  permuted module lists and comparing results and interface
  fingerprints.

The corpus leans on the spots where incoherence classically sneaks in:
superclass diamonds (the same dictionary reachable via two superclass
paths), constraints available both directly and through a superclass,
deep instance-context derivations, and the higher-kinded hierarchy
(Functor reachable from Monad two ways).
"""

from __future__ import annotations

import itertools

import pytest

from repro import compile_source
from repro.modules import ModuleBuilder
from repro.modules.resolve import scan_inline_modules

#: (name, declarations, expression, expected value)
CORPUS = [
    (
        "superclass_diamond",
        # D sits atop a diamond: D => B => A and D => C => A.  A method
        # constrained by A, called at a D-instantiated type, can take
        # either superclass path to the A dictionary.
        "class A a where\n"
        "  fa :: a -> Int\n"
        "class A a => B a where\n"
        "  fb :: a -> Int\n"
        "class A a => C a where\n"
        "  fc :: a -> Int\n"
        "class (B a, C a) => D a where\n"
        "  fd :: a -> Int\n"
        "instance A Bool where\n  fa x = 1\n"
        "instance B Bool where\n  fb x = 10\n"
        "instance C Bool where\n  fc x = 100\n"
        "instance D Bool where\n  fd x = 1000\n"
        "viaD :: D a => a -> Int\n"
        "viaD x = fa x + fb x + fc x + fd x\n",
        "viaD True",
        1111,
    ),
    (
        "redundant_constraint",
        # Eq is available both directly and through Ord's superclass;
        # compaction must pick one deterministically.
        "both :: (Eq a, Ord a) => a -> a -> Bool\n"
        "both x y = x == y && x <= y\n"
        "flipped :: (Ord a, Eq a) => a -> a -> Bool\n"
        "flipped x y = x == y && x <= y\n",
        "(both 3 3, flipped 3 3, both 4 3, flipped 3 4)",
        (True, True, False, False),
    ),
    (
        "deep_context_derivation",
        # Eq for [[Maybe (Int, Bool)]] takes a four-rule derivation
        # that must build one nested dictionary.
        "probe :: [[(Maybe (Int, Bool))]] -> Bool\n"
        "probe xs = xs == xs\n",
        "(probe [[Just (1, True)], []], [Just (1, False)] == [Nothing])",
        (True, False),
    ),
    (
        "hk_superclass_chain",
        # Functor is reachable from a Monad constraint through two
        # superclass hops (Monad => Applicative => Functor) or could be
        # demanded directly; both must name the same dictionary.
        "viaMonad :: Monad m => m Int -> m Int\n"
        "viaMonad m = fmap (\\x -> x + 1) (m >>= (\\x -> return (x * 2)))\n"
        "direct :: (Functor m, Monad m) => m Int -> m Int\n"
        "direct m = fmap (\\x -> x + 1) (m >>= (\\x -> return (x * 2)))\n",
        "(viaMonad (Just 10), direct (Just 10), viaMonad [1,2])",
        (("Just", 21), ("Just", 21), [3, 5]),
    ),
    (
        "hk_instance_context",
        # The instance context of a higher-kinded instance is itself a
        # higher-kinded constraint; resolution recurses at kind * -> *.
        "data Pair f a = Pair (f a) (f a)\n"
        "instance Functor f => Functor (Pair f) where\n"
        "  fmap g (Pair x y) = Pair (fmap g x) (fmap g y)\n"
        "first (Pair x y) = x\n",
        "first (fmap (\\x -> x + 1) (Pair (Just 1) (Just 2)))",
        ("Just", 2),
    ),
    (
        "defaulted_method_vs_override",
        # Maybe's Monad omits return (class default = pure), the list
        # Monad could too; resolution through the default must agree
        # with a direct pure call.
        "viaDefault :: Int -> Maybe Int\n"
        "viaDefault = return\n"
        "viaPure :: Int -> Maybe Int\n"
        "viaPure = pure\n",
        "(viaDefault 5, viaPure 5, viaDefault 5 == viaPure 5)",
        (("Just", 5), ("Just", 5), True),
    ),
]


#: The user bindings' schemes, as both former solver backends (the
#: recursive reduction and the CHR goal store) inferred them.
SCHEMES = {
    "superclass_diamond": {"viaD": "D a => a -> Int"},
    "redundant_constraint": {"both": "(Eq a, Ord a) => a -> a -> Bool",
                             "flipped": "(Ord a, Eq a) => a -> a -> Bool"},
    "deep_context_derivation": {"probe": "[[Maybe (Int, Bool)]] -> Bool"},
    "hk_superclass_chain": {
        "viaMonad": "Monad a => a Int -> a Int",
        "direct": "(Functor a, Monad a) => a Int -> a Int"},
    "hk_instance_context": {"first": "Pair a b -> a b"},
    "defaulted_method_vs_override": {"viaDefault": "Int -> Maybe Int",
                                     "viaPure": "Int -> Maybe Int"},
}


@pytest.fixture(scope="module")
def programs():
    return {name: compile_source(decls) for name, decls, _, _ in CORPUS}


@pytest.mark.parametrize("name,decls,expr,expected",
                         CORPUS, ids=[c[0] for c in CORPUS])
class TestSolverCoherence:
    def test_value_agreement(self, programs, name, decls, expr, expected):
        assert programs[name].eval(expr) == expected

    def test_scheme_agreement(self, programs, name, decls, expr, expected):
        schemes = {n: str(programs[name].schemes[n]) for n in SCHEMES[name]}
        assert schemes == SCHEMES[name]


class TestLinkOrderCoherence:
    MODULES = [
        {"name": "Defs", "source":
            "module Defs where\n"
            "class Size c where\n"
            "  size :: c a -> Int\n"},
        {"name": "InstA", "source":
            "module InstA where\n"
            "import Defs\n"
            "instance Size Maybe where\n"
            "  size m = case m of\n"
            "    Nothing -> 0\n"
            "    Just x -> 1\n"},
        {"name": "InstB", "source":
            "module InstB where\n"
            "import Defs\n"
            "instance Size (Either e) where\n"
            "  size e = case e of\n"
            "    Left l -> 0\n"
            "    Right r -> 1\n"},
        {"name": "Main", "source":
            "module Main where\n"
            "import Defs\n"
            "import InstA\n"
            "import InstB\n"
            "main = (size (Just 3), size (Right 4 :: Either Bool Int),\n"
            "        fmap (\\x -> x + 1) (Just 41))\n"},
    ]
    EXPECTED = (1, 1, ("Just", 42))

    def permutations(self):
        # Defs must precede its dependents for the scanner, but the
        # builder orders by imports; permute the three dependents and
        # the two instance modules relative to each other.
        rest = self.MODULES[1:]
        for perm in itertools.permutations(rest):
            yield [self.MODULES[0]] + list(perm)

    def test_results_and_fingerprints_independent_of_order(self):
        fingerprints = None
        for modules in self.permutations():
            graph = scan_inline_modules(modules)
            build = ModuleBuilder().build(graph)
            assert build.program.run("main") == self.EXPECTED
            fps = {name: build.interfaces[name].fingerprint
                   for name in build.interfaces} \
                if hasattr(build, "interfaces") else None
            if fps is not None:
                if fingerprints is None:
                    fingerprints = fps
                else:
                    assert fps == fingerprints
