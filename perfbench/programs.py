"""Seeded Mini-Haskell inputs, each paired with a reference value that
is computed here in Python (generated families) or was checked by hand
against the example's own documentation (the fixed corpus).  Nothing in
this module imports the compiler under test.

Every family takes a name prefix so that several instances can be
concatenated into one larger program without clashing.  Sizes are drawn
within 2% of fixed values: the seed changes the inputs (literals, sizes
within that range, edit contents, order), not the amount of work, so
runs with different seeds measure the same load.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "corpus")

#: ``main`` of each copied ``examples/`` program, as ``run("main")``
#: returns it; checked by hand against the examples' docstrings.
CORPUS_VALUES: Dict[str, Any] = {
    "json_serialization": ('[[1,true],[2,false]]', '{"x":3,"y":4}',
                           ('Just', [(1, 2), (3, 4)]),
                           ('Just', ('Point', 7, 8)), ('Nothing',), True),
    "lattices": ('Top', 'Neg', 'Top', (True, False), '(Neg, Pos)'),
    "mini_inference": ['(TFun (TV 0) (TV 0))',
                       '(TFun (TV 0) (TFun (TV 1) (TV 0)))',
                       '(TFun (TFun (TV 3) (TV 3)) (TFun (TV 3) (TV 3)))',
                       'TInt', 'ill-typed', 'ill-typed'],
    "optimization_tour": 200,
    "quickstart": (False, True, True, 42, 3.0, '[Red, Green, Blue]'),
    "return_type_overloading": (3, 1.5, True, [80, 443]),
}


@dataclass
class Program:
    """One benchmark input: a source, the family it came from and the
    value its ``main`` must produce (None for an ill-typed program)."""

    name: str
    family: str
    source: str
    value: Any = None
    #: for an ill-typed program: the expected error code and the 1-based
    #: source lines the located error may point at
    error_code: Optional[str] = None
    error_lines: Tuple[int, ...] = ()
    lines: int = field(init=False)

    def __post_init__(self) -> None:
        self.lines = self.source.count("\n") + 1


@dataclass
class Part:
    """A generated fragment: top-level declarations plus the name and
    value of its result binding."""

    decls: List[str]
    result: str
    value: Any


def _scaled(rng: random.Random, base: int, spread: float = 0.02) -> int:
    return max(1, int(round(base * rng.uniform(1 - spread, 1 + spread))))


# --------------------------------------------------------------------------
# Families
# --------------------------------------------------------------------------


def tiny(rng: random.Random, p: str, kind: int) -> Part:
    """A one-liner: the compile is almost all whole-program transforms
    over the prelude core."""
    a, b = rng.randint(2, 40), rng.randint(2, 40)
    if kind == 0:
        return Part([f"{p}main = {a} + {b} * 2"], f"{p}main", a + b * 2)
    if kind == 1:
        return Part([f"{p}main = show ({a}, {b} == {a})"], f"{p}main",
                    f"({a}, {'True' if a == b else 'False'})")
    return Part([f"{p}main = sum (map (\\x -> x * {a}) (enumFromTo 1 {b}))"],
                f"{p}main", a * b * (b + 1) // 2)


def e1_chain(rng: random.Random, p: str, n: int) -> Part:
    """E1: a chain of overloaded functions, each calling the previous
    one at the same constraint (inference and context reduction)."""
    adds = [rng.randint(1, 9) for _ in range(n)]
    decls = [f"{p}f0 :: Num a => a -> a", f"{p}f0 x = x + x"]
    for i in range(1, n):
        decls.append(f"{p}f{i} :: Num a => a -> a")
        decls.append(f"{p}f{i} x = {p}f{i - 1} (x + {adds[i]})")
    x0 = rng.randint(1, 20)
    decls.append(f"{p}main :: Int")
    decls.append(f"{p}main = {p}f{n - 1} {x0}")
    x = x0
    for i in range(n - 1, 0, -1):
        x += adds[i]
    return Part(decls, f"{p}main", 2 * x)


def e2_dispatch(rng: random.Random, p: str, n: int) -> Part:
    """E2: a loop whose every addition dispatches through ``Num``."""
    decls = [f"{p}loop :: Num a => a -> [a] -> a",
             f"{p}loop acc [] = acc",
             f"{p}loop acc (x:xs) = {p}loop (acc + x) xs",
             f"{p}main :: Int",
             f"{p}main = {p}loop 0 (enumFromTo 1 {n})"]
    return Part(decls, f"{p}main", n * (n + 1) // 2)


def e4_dolist(rng: random.Random, p: str, n: int) -> Part:
    """E4: ``doList`` — an ``Eq [a]`` dictionary built per element
    unless §8.8 hoisting floats it out."""
    decls = [f"{p}process :: Eq a => [a] -> Int",
             f"{p}process [] = 0",
             f"{p}process (x:xs) = (if member [x] [[x], []] then 1 else 0)"
             f" + {p}process xs",
             f"{p}main :: Int",
             f"{p}main = {p}process (enumFromTo 1 {n})"]
    return Part(decls, f"{p}main", n)


def e6_sort(rng: random.Random, p: str, n: int) -> Part:
    """E6: insertion sort and a histogram over ``Ord``/``Eq``.  The
    shuffle is fixed: its order sets the sort's cost, and the seed must
    not change the amount of work."""
    mul, mod = 37, 101
    decls = [f"{p}isort :: Ord a => [a] -> [a]",
             f"{p}isort [] = []",
             f"{p}isort (x:xs) = {p}ins x ({p}isort xs)",
             f"{p}ins :: Ord a => a -> [a] -> [a]",
             f"{p}ins y [] = [y]",
             f"{p}ins y (z:zs) = if y <= z then y : z : zs "
             f"else z : {p}ins y zs",
             f"{p}histogram :: Eq a => [a] -> [(a, Int)]",
             f"{p}histogram [] = []",
             f"{p}histogram (x:xs) =",
             f"  let same = length (filter (\\y -> y == x) xs)",
             f"      rest = {p}histogram (filter (\\y -> not (y == x)) xs)",
             f"  in (x, 1 + same) : rest",
             f"{p}shuffle :: Int -> [Int]",
             f"{p}shuffle k = map (\\i -> mod (i * {mul}) {mod}) "
             f"(enumFromTo 1 k)",
             f"{p}main :: (Int, Int)",
             f"{p}main = (sum (take 5 ({p}isort ({p}shuffle {n}))), "
             f"length ({p}histogram ({p}shuffle {n})))"]
    xs = [(i * mul) % mod for i in range(1, n + 1)]
    return Part(decls, f"{p}main", (sum(sorted(xs)[:5]), len(set(xs))))


def e7_tower(rng: random.Random, p: str, depth: int, n: int) -> Part:
    """E7: a superclass tower; the deepest class's dictionary reaches
    ``m1`` through every superclass link."""
    c = p.upper()
    decls = [f"class {c}C1 a where", f"  {p}m1 :: a -> Int"]
    for i in range(2, depth + 1):
        decls.append(f"class {c}C{i - 1} a => {c}C{i} a where")
        decls.append(f"  {p}m{i} :: a -> Int")
    decls += [f"instance {c}C1 Int where", f"  {p}m1 x = x"]
    for i in range(2, depth + 1):
        decls += [f"instance {c}C{i} Int where", f"  {p}m{i} x = x"]
    decls += [f"{p}deep :: {c}C{depth} a => [a] -> Int",
              f"{p}deep [] = 0",
              f"{p}deep (x:xs) = {p}m1 x + {p}deep xs",
              f"{p}main :: Int",
              f"{p}main = {p}deep (enumFromTo 1 {n})"]
    return Part(decls, f"{p}main", n * (n + 1) // 2)


def s7_monadic(rng: random.Random, p: str, n: int, depth: int) -> Part:
    """S7: a validation pipeline written against ``Monad m`` at
    ``Maybe`` and ``[]``, plus a derived-``Functor`` tree map."""
    c = p.upper()
    limit = rng.randint(60, 90) * 10
    decls = [f"data {c}Tree a = {c}Leaf | {c}Node ({c}Tree a) a ({c}Tree a)",
             f"  deriving (Functor, Eq)",
             f"{p}build :: Int -> {c}Tree Int",
             f"{p}build k = if k <= 0 then {c}Leaf",
             f"          else {c}Node ({p}build (k - 1)) k ({p}build (k - 2))",
             f"{p}clamp :: Monad m => Int -> Int -> m Int",
             f"{p}clamp limit x = if x > limit then return limit "
             f"else return x",
             f"{p}stage :: Monad m => Int -> m Int",
             f"{p}stage x = return (x * 2) >>= {p}clamp {limit} >>= "
             f"(\\y -> return (y + 1))",
             f"{p}pipeline :: Monad m => [Int] -> m Int",
             f"{p}pipeline xs = mapM {p}stage xs >>= "
             f"(\\ys -> return (sum ys))",
             f"{p}sumTree :: {c}Tree Int -> Int",
             f"{p}sumTree {c}Leaf = 0",
             f"{p}sumTree ({c}Node l x r) = {p}sumTree l + x + {p}sumTree r",
             f"{p}main :: (Maybe Int, [Int], Int)",
             f"{p}main =",
             f"  let input = enumFromTo 1 {n}",
             f"      viaMaybe = {p}pipeline input :: Maybe Int",
             f"      viaList = fmap (\\t -> t + 1) "
             f"({p}pipeline input :: [Int])",
             f"      mapped = {p}sumTree (fmap (\\x -> x * 3) "
             f"({p}build {depth}))",
             f"  in (viaMaybe, viaList, mapped)"]

    def tree_sum(k: int) -> int:
        return 0 if k <= 0 else tree_sum(k - 1) + k + tree_sum(k - 2)

    total = sum(min(2 * x, limit) + 1 for x in range(1, n + 1))
    return Part(decls, f"{p}main",
                (("Just", total), [total + 1], 3 * tree_sum(depth)))


def _program(name: str, family: str, parts: List[Part]) -> Program:
    decls: List[str] = []
    for part in parts:
        decls.extend(part.decls)
    if len(parts) == 1 and parts[0].result == "main":
        return Program(name, family, "\n".join(decls) + "\n",
                       parts[0].value)
    results = [part.result for part in parts]
    main = results[0] if len(results) == 1 else f"({', '.join(results)})"
    value = parts[0].value if len(parts) == 1 else \
        tuple(part.value for part in parts)
    decls.append(f"main = {main}")
    return Program(name, family, "\n".join(decls) + "\n", value)


def corpus() -> List[Program]:
    """The copied ``examples/`` programs, with their checked values."""
    out = []
    for name in sorted(CORPUS_VALUES):
        with open(os.path.join(CORPUS_DIR, name + ".mhs"),
                  encoding="utf-8") as handle:
            out.append(Program(name, "examples", handle.read(),
                               CORPUS_VALUES[name]))
    return out


# --------------------------------------------------------------------------
# Ill-typed edits
# --------------------------------------------------------------------------

#: one seeded edit per expected error code: declarations inserted
#: between two top-level declarations of a well-typed program
ILL_TYPED_EDITS: Dict[str, List[str]] = {
    "type.unify": ["{b} :: Int", "{b} = {k} == {k}"],
    "type.no-instance": ["{b} = length {k}"],
    "type.ambiguous": ["{b} = show []"],
    "type.signature": ["{b} :: a -> a", "{b} x = x + {k}"],
}


def make_ill_typed(rng: random.Random, prog: Program, code: str,
                   tag: str) -> Program:
    """Insert the edit for *code* before the top-level declaration
    nearest the middle of *prog* (a one-line program gets it at the
    end); the error must point into the edit."""
    lines = prog.source.rstrip("\n").split("\n")
    # lines that start a new binding group: unindented, and not an
    # equation or signature continuing the previous line's name
    starts = [i for i, line in enumerate(lines)
              if i > 0 and line and not line[0].isspace()
              and line.split(" ")[0] != lines[i - 1].split(" ")[0]]
    at = min(starts, key=lambda i: abs(i - len(lines) / 2),
             default=len(lines))
    edit = [text.format(b=f"bad{tag}", k=rng.randint(2, 99))
            for text in ILL_TYPED_EDITS[code]]
    new = lines[:at] + edit + lines[at:]
    return Program(prog.name + "!" + code, prog.family + "/ill-typed",
                   "\n".join(new) + "\n", None, code,
                   tuple(range(at + 1, at + 1 + len(edit))))


# --------------------------------------------------------------------------
# Workload populations
# --------------------------------------------------------------------------


def compile_population(seed: int) -> List[Program]:
    """The ``compile`` workload's inputs: 40 class-heavy programs from
    one-liners to a few hundred lines, in fixed strata whose sizes the
    seed varies by a few percent.  Five of them carry an ill-typed
    edit."""
    rng = random.Random(seed)
    progs: List[Program] = []
    for i in range(6):
        progs.append(_program(f"tiny{i}", "tiny", [tiny(rng, "", i % 3)]))
    for i, n in enumerate((8, 12, 16, 20, 24, 32, 40)):
        progs.append(_program(f"e1.{i}", "e1",
                              [e1_chain(rng, "", _scaled(rng, n))]))
    for i, n in enumerate((20, 40, 60)):
        progs.append(_program(f"e4.{i}", "e4",
                              [e4_dolist(rng, "", _scaled(rng, n))]))
    for i, n in enumerate((10, 20, 30)):
        progs.append(_program(f"e6.{i}", "e6",
                              [e6_sort(rng, "", _scaled(rng, n))]))
    for i, depth in enumerate((2, 4, 6, 8)):
        progs.append(_program(f"e7.{i}", "e7",
                              [e7_tower(rng, "", depth, _scaled(rng, 20))]))
    for i, n in enumerate((10, 20, 30)):
        progs.append(_program(f"s7.{i}", "s7",
                              [s7_monadic(rng, "", _scaled(rng, n), 5)]))
    progs.extend(corpus())
    makers = [lambda p, j: tiny(rng, p, j % 3),
              lambda p, j: e1_chain(rng, p, _scaled(rng, 20)),
              lambda p, j: e4_dolist(rng, p, _scaled(rng, 30)),
              lambda p, j: e6_sort(rng, p, _scaled(rng, 20)),
              lambda p, j: e7_tower(rng, p, 3 + j % 4, _scaled(rng, 20)),
              lambda p, j: s7_monadic(rng, p, _scaled(rng, 20), 5)]
    # Concatenations cycle through the families.
    for i, n_parts in enumerate((2, 3, 4, 5, 6, 8, 10, 12)):
        parts = [makers[(i + j) % len(makers)](f"c{i}x{j}", j)
                 for j in range(n_parts)]
        progs.append(_program(f"concat{i}", "concat", parts))
    # Five ill-typed programs, each in a different stratum, covering
    # every error code.  An odd number of them, and 35 well-typed ones,
    # put the median and p90 inside one program's samples rather than
    # on the boundary between two programs'.
    bases = ["tiny0", "e1.3", "e7.1", "s7.1", "concat3"]
    codes = sorted(ILL_TYPED_EDITS) + ["type.unify"]
    for code, base in zip(codes, bases):
        k = next(i for i, prog in enumerate(progs) if prog.name == base)
        progs[k] = make_ill_typed(rng, progs[k], code, str(k))
    return progs


def run_population(seed: int) -> List[Program]:
    """The ``run`` workload's inputs: the dictionary-heavy families at
    seeded sizes (within 2% of a fixed base) plus the examples."""
    rng = random.Random(seed)
    progs = [
        _program("e2", "e2", [e2_dispatch(rng, "", _scaled(rng, 1500))]),
        _program("e4", "e4", [e4_dolist(rng, "", _scaled(rng, 200))]),
        _program("e6", "e6", [e6_sort(rng, "", _scaled(rng, 60))]),
        _program("e7", "e7", [e7_tower(rng, "", 6, _scaled(rng, 300))]),
        _program("s7", "s7", [s7_monadic(rng, "", _scaled(rng, 40), 8)]),
    ]
    return progs + corpus()


# --------------------------------------------------------------------------
# Module graphs
# --------------------------------------------------------------------------

@dataclass
class ModuleSet:
    """A seeded multi-module program: sources by module name, in
    dependency order, and enough of its structure to recompute
    ``main`` in Python after any edit."""

    order: List[str]
    deps: Dict[str, List[str]]
    #: per data module: (a, b, c) in measure (Tn) = n*a + b, weigh = n + c
    data: Dict[str, Tuple[int, int, int]]
    #: per mid module: its data module, constants and body literal
    mids: Dict[str, Dict[str, Any]]
    main_imports: List[str]
    #: extra exported bindings added by surface edits, per module
    extras: Dict[str, List[int]] = field(default_factory=dict)

    def source(self, name: str) -> str:
        if name == "Base":
            return ("module Base where\n"
                    "class Measure a where\n"
                    "  measure :: a -> Int\n"
                    "total :: Measure a => [a] -> Int\n"
                    "total xs = foldr (\\x acc -> measure x + acc) 0 xs\n")
        if name == "Weigh":
            return ("module Weigh where\n"
                    "import Base\n"
                    "class Measure a => Weigh a where\n"
                    "  weigh :: a -> Int\n"
                    "heavy :: Weigh a => [a] -> Int\n"
                    "heavy xs = total xs + sum (map weigh xs)\n")
        if name in self.data:
            a, b, c = self.data[name]
            t = "T" + name
            return (f"module {name} where\n"
                    f"import Base\nimport Weigh\n"
                    f"data {t} = {t} Int\n"
                    f"instance Measure {t} where\n"
                    f"  measure ({t} n) = n * {a} + {b}\n"
                    f"instance Weigh {t} where\n"
                    f"  weigh ({t} n) = n + {c}\n")
        if name == "Main":
            imports = "".join(f"import {m}\n" for m in self.main_imports)
            total = " + ".join(f"v{m}" for m in self.main_imports)
            return (f"module Main where\n{imports}"
                    f"main :: Int\nmain = {total}\n")
        m = self.mids[name]
        t = "T" + m["data"]
        extras = self.extras.get(name, [])
        exports = ", ".join([f"v{name}", f"g{name}"]
                            + [f"x{name}_{k}" for k in extras])
        lines = [f"module {name} ({exports}) where", "import Base",
                 "import Weigh", f"import {m['data']}"]
        lines += [f"import {d}" for d in self.deps[name]
                  if d in self.mids]
        lines += [f"g{name} :: Weigh a => a -> Int",
                  f"g{name} x = weigh x * {m['k']} + measure x",
                  f"v{name} :: Int"]
        terms = [f"g{name} ({t} {m['x']})", f"heavy [{t} {m['y']}, {t} 2]"]
        terms += [f"g{d} ({t} {m['x']})" for d in self.deps[name]
                  if d in self.mids]
        terms += [f"v{d}" for d in self.deps[name] if d in self.mids]
        lines.append(f"v{name} = " + " + ".join(terms) + f" + {m['body']}")
        for k in extras:
            lines += [f"x{name}_{k} :: Int", f"x{name}_{k} = {k}"]
        return "\n".join(lines) + "\n"

    def specs(self) -> List[Tuple[str, str]]:
        return [(name, self.source(name)) for name in self.order]

    def value(self) -> int:
        """``main`` computed in Python."""
        def measure(d: str, n: int) -> int:
            a, b, _c = self.data[d]
            return n * a + b

        def weigh(d: str, n: int) -> int:
            return n + self.data[d][2]

        def g(mod: str, d: str, n: int) -> int:
            return weigh(d, n) * self.mids[mod]["k"] + measure(d, n)

        v: Dict[str, int] = {}
        for name in self.order:
            if name not in self.mids:
                continue
            m = self.mids[name]
            d = m["data"]
            mid_deps = [x for x in self.deps[name] if x in self.mids]
            heavy = sum(measure(d, n) + weigh(d, n) for n in (m["y"], 2))
            v[name] = (g(name, d, m["x"]) + heavy
                       + sum(g(x, d, m["x"]) for x in mid_deps)
                       + sum(v[x] for x in mid_deps) + m["body"])
        return sum(v[m] for m in self.main_imports)

    def dependents(self, name: str) -> List[str]:
        """Every module that imports *name*, directly or not."""
        out: List[str] = []
        for other in self.order:
            if other == "Main":
                if any(m == name or m in out for m in self.main_imports):
                    out.append(other)
            elif name in self.deps.get(other, ()) or \
                    any(d in out for d in self.deps.get(other, ())):
                out.append(other)
        return out


def module_set(seed: int, n_data: int = 5, n_mid: int = 17) -> ModuleSet:
    """A seeded DAG of ``n_data + n_mid + 3`` modules: two class
    modules, data modules with instances, mid modules that each import
    one data module and up to two earlier mid modules (chains and
    fan-in), calling their overloaded exports at concrete types, and a
    Main importing every mid module nothing else imports plus three
    more."""
    rng = random.Random(seed)
    data = {f"D{j}": (rng.randint(2, 9), rng.randint(0, 9), rng.randint(1, 9))
            for j in range(n_data)}
    mids: Dict[str, Dict[str, Any]] = {}
    deps: Dict[str, List[str]] = {"Base": [], "Weigh": ["Base"]}
    for d in data:
        deps[d] = ["Base", "Weigh"]
    names = [f"M{i}" for i in range(n_mid)]
    for i, name in enumerate(names):
        d = rng.choice(sorted(data))
        earlier = names[:i]
        k = min(len(earlier), rng.choice([1, 1, 2]))
        # chains: usually include the previous module; fan-in: a random
        # earlier one beside it
        picks = ([earlier[-1]] if earlier else []) + \
            rng.sample(earlier[:-1], max(0, min(k - 1, len(earlier) - 1)))
        mids[name] = {"data": d, "k": rng.randint(1, 5),
                      "x": rng.randint(1, 9), "y": rng.randint(1, 9),
                      "body": rng.randint(0, 99)}
        deps[name] = ["Base", "Weigh", d] + picks
    imported = {x for name in names for x in deps[name]}
    sinks = [n for n in names if n not in imported]
    extra = rng.sample(names[:-1], min(3, n_mid - 1))
    main_imports = sorted(set(sinks + extra),
                          key=names.index)
    deps["Main"] = list(main_imports)
    order = ["Base", "Weigh"] + sorted(data) + names + ["Main"]
    return ModuleSet(order, deps, data, mids, main_imports)
