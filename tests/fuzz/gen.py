"""Seeded random program generator for the fuzz harness.

Two program populations, drawn from one :class:`random.Random` so a
seed fully determines the run:

* **grown** programs — built from a small grammar of the surface
  language (arithmetic, comparisons, lambdas, ``let``/``in``,
  ``if``/``then``/``else``, tuples, lists, class methods like ``show``
  and ``==``, plus occasional ``data``/``class``/``instance``
  declarations and ``module``/``import`` headers, self-imports and
  shadowed re-exports included).  Many of these are type-correct; the
  rest exercise the inference, module-resolution and parser error
  paths.
* **mutated** programs — a grown program corrupted by a random edit
  (truncation, character insertion/deletion/swap, bracket doubling,
  token duplication).  These exercise the lexer/parser error paths and
  layout recovery.

A slice of outputs comes from three *solver-focused* shapes instead:
deep superclass towers (propagation rules, memoized ancestor sets),
multi-parameter class programs (structural instance matching, the
overlap check), and higher-kinded class programs
(Functor/Applicative/Monad pipelines, instances at partially applied
constructors, ``deriving (Functor)``, and deliberate kind errors —
the ``--positions`` oracle requires every ``kind.*`` diagnostic to be
located).

The generator never tries to be *semantically* interesting — the point
is crash containment, not miscompilation hunting — so it favours
shapes that historically killed the process: deep nesting, deep user
recursion, self-application, huge literals and unterminated ones.
"""

from __future__ import annotations

import random
from typing import List

VAR_NAMES = ["x", "y", "z", "f", "g", "n", "acc"]
INT_OPS = ["+", "-", "*"]
CMP_OPS = ["==", "/=", "<", "<=", ">", ">="]


class ProgramGen:
    """Deterministic program source generator for one seed."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    # ------------------------------------------------------------ expressions

    def expr(self, depth: int, vars_: List[str]) -> str:
        r = self.rng
        if depth <= 0 or r.random() < 0.3:
            return self.atom(vars_)
        kind = r.randrange(8)
        if kind == 0:
            op = r.choice(INT_OPS)
            return (f"({self.expr(depth - 1, vars_)} {op} "
                    f"{self.expr(depth - 1, vars_)})")
        if kind == 1:
            op = r.choice(CMP_OPS)
            return (f"({self.expr(depth - 1, vars_)} {op} "
                    f"{self.expr(depth - 1, vars_)})")
        if kind == 2:
            return (f"(if {self.expr(depth - 1, vars_)} "
                    f"then {self.expr(depth - 1, vars_)} "
                    f"else {self.expr(depth - 1, vars_)})")
        if kind == 3:
            v = r.choice(VAR_NAMES)
            return (f"(let {v} = {self.expr(depth - 1, vars_)} "
                    f"in {self.expr(depth - 1, vars_ + [v])})")
        if kind == 4:
            v = r.choice(VAR_NAMES)
            return (f"((\\{v} -> {self.expr(depth - 1, vars_ + [v])}) "
                    f"{self.expr(depth - 1, vars_)})")
        if kind == 5:
            return (f"({self.expr(depth - 1, vars_)}, "
                    f"{self.expr(depth - 1, vars_)})")
        if kind == 6:
            items = ", ".join(self.expr(depth - 1, vars_)
                              for _ in range(r.randrange(4)))
            return f"[{items}]"
        return f"(show {self.expr(depth - 1, vars_)})"

    def atom(self, vars_: List[str]) -> str:
        r = self.rng
        kind = r.randrange(6)
        if kind == 0 and vars_:
            return r.choice(vars_)
        if kind == 1:
            return str(r.randrange(-100, 1000))
        if kind == 2:
            return r.choice(["True", "False"])
        if kind == 3:
            return f"{r.randrange(100)}.{r.randrange(100)}"
        if kind == 4:
            return '"' + "ab" * r.randrange(3) + '"'
        return str(r.randrange(10))

    # -------------------------------------------------------------- programs

    def grown(self) -> str:
        r = self.rng
        lines: List[str] = []
        if r.random() < 0.15:
            # Module syntax: a header (sometimes with an export list,
            # sometimes malformed via a lowercase name) and sometimes
            # import declarations — which single-file compilation must
            # reject with a located module.unknown error, never a
            # crash.  Self-imports and shadowed re-exports included.
            name = r.choice(["Main", "M", "A", "main2", "Fuzz"])
            exports = ""
            if r.random() < 0.4:
                exports = " (" + ", ".join(
                    r.sample(["main", "d0", "size", "f"],
                             r.randrange(1, 3))) + ")"
            lines.append(f"module {name}{exports} where")
            for _ in range(r.randrange(3)):
                imported = r.choice([name, "Other", "B", "Deep.Nested"])
                imp_list = ""
                if r.random() < 0.5:
                    imp_list = " (" + ", ".join(
                        r.sample(["f", "g", "main", "(+)"],
                                 r.randrange(1, 3))) + ")"
                lines.append(f"import {imported}{imp_list}")
        if r.random() < 0.2:
            lines.append("data Shape = Dot | Box Int Int"
                         + (" deriving (Eq, Text)" if r.random() < 0.5
                            else ""))
        if r.random() < 0.1:
            lines.append("class Sized a where")
            lines.append("  size :: a -> Int")
        n_defs = r.randrange(1, 4)
        names = []
        for i in range(n_defs):
            name = f"d{i}"
            names.append(name)
            if r.random() < 0.3:
                # Recursive definition; sometimes deep enough to hit
                # the eval depth budget under a small step limit.
                lines.append(f"{name} n = if n <= 0 then 0 "
                             f"else {r.randrange(1, 3)} + "
                             f"{name} (n - 1)")
            else:
                lines.append(f"{name} x = {self.expr(r.randrange(1, 5), ['x'])}")
        main = self.expr(r.randrange(1, 6), [])
        if names and r.random() < 0.6:
            callee = r.choice(names)
            main = f"{callee} {main}" if r.random() < 0.5 \
                else f"({main}, {callee} {r.randrange(50)})"
        lines.append(f"main = {main}")
        return "\n".join(lines)

    def mutated(self) -> str:
        r = self.rng
        src = self.grown()
        n_edits = r.randrange(1, 4)
        for _ in range(n_edits):
            if not src:
                break
            op = r.randrange(6)
            i = r.randrange(len(src))
            if op == 0:                      # truncate
                src = src[:i]
            elif op == 1:                    # delete one char
                src = src[:i] + src[i + 1:]
            elif op == 2:                    # insert a random char
                ch = r.choice("()[]{}\\\"'`=->:;,.@#~ \n\t01azAZ")
                src = src[:i] + ch + src[i:]
            elif op == 3:                    # double a bracket run
                ch = r.choice("((((())))[]")
                src = src[:i] + ch * r.randrange(1, 40) + src[i:]
            elif op == 4:                    # swap two adjacent chars
                if i + 1 < len(src):
                    src = src[:i] + src[i + 1] + src[i] + src[i + 2:]
            else:                            # duplicate a slice
                j = min(len(src), i + r.randrange(1, 20))
                src = src[:j] + src[i:j] + src[j:]
        return src

    # ---------------------------------------------------------- solver shapes

    def superclass_chain(self) -> str:
        """A deep superclass tower ``C0 <= C1 <= ... <= Cn`` with an
        instance at every level (sometimes one missing, to hit the
        no-instance path).  Exercises the propagation rules, superclass
        dictionary access, and the memoized ancestor sets."""
        r = self.rng
        depth = r.randrange(3, 9)
        lines: List[str] = ["class C0 a where", "  m0 :: a -> Int"]
        for i in range(1, depth):
            lines.append(f"class C{i - 1} a => C{i} a where")
            lines.append(f"  m{i} :: a -> Int")
        lines.append("data T = T Int")
        skip = r.randrange(depth) if r.random() < 0.15 else -1
        for i in range(depth):
            if i == skip:
                continue
            lines.append(f"instance C{i} T where")
            lines.append(f"  m{i} (T n) = n + {i}")
        top = depth - 1
        use = r.randrange(depth)
        lines.append(f"poly :: C{top} a => a -> Int")
        lines.append(f"poly x = m{use} x + m{top} x")
        lines.append(f"main = poly (T {r.randrange(50)})")
        return "\n".join(lines)

    def mptc(self) -> str:
        """A multi-parameter class program.  A fraction of outputs
        overlaps its instance heads on purpose (``solver.overlap``)."""
        r = self.rng
        lines = ["class Conv a b where", "  conv :: a -> b",
                 "instance Conv Int Float where",
                 "  conv x = fromIntegral x"]
        if r.random() < 0.6:
            lines += ["instance Conv Float Int where",
                      "  conv x = truncate x"]
        lifted = r.random() < 0.5
        if lifted:
            lines += ["instance (Conv a b) => Conv [a] [b] where",
                      "  conv xs = map conv xs"]
        if r.random() < 0.15:
            lines += ["instance Conv Int b where",     # solver.overlap
                      "  conv x = conv x"]
        if r.random() < 0.4:
            lines += ["via :: Conv a b => [a] -> [b]",
                      "via = conv"]
        if lifted and r.random() < 0.5:
            lines += ["main :: [Float]",
                      f"main = conv [{r.randrange(9)} :: Int, "
                      f"{r.randrange(9)}]"]
        else:
            lines += ["main :: Float",
                      f"main = conv ({r.randrange(99)} :: Int)"]
        return "\n".join(lines)

    def hk(self) -> str:
        """A higher-kinded class-system program.

        Five sub-shapes: ``deriving (Functor)`` over a random small
        structure; a hand-written class at kind ``* -> *`` with
        instances at partially applied constructors; a monadic
        pipeline over the prelude hierarchy; a deliberate kind error
        (whose ``kind.*`` diagnostic must be located for the
        ``--positions`` oracle); and applicative expression soup.
        """
        r = self.rng
        shape = r.randrange(5)
        if shape == 0:
            extra = r.choice(["", " | K2 [a]", " | K2 (Maybe a)",
                              " | K2 b (Either b a)"])
            return "\n".join([
                f"data T b a = K0 | K1 b a{extra}",
                "  deriving (Functor)",
                f"main = fmap (\\x -> x + {r.randrange(9)}) "
                f"(K1 True {r.randrange(9)})",
            ])
        if shape == 1:
            use_either = r.random() < 0.6
            lines = ["class Sizes c where",
                     "  sizes :: c a -> Int",
                     "instance Sizes Maybe where",
                     "  sizes m = case m of",
                     "    Nothing -> 0",
                     "    Just x -> 1"]
            if use_either:
                lines += ["instance Sizes (Either e) where",
                          "  sizes e = case e of",
                          "    Left l -> 0",
                          "    Right x -> 1"]
            call = f"sizes (Just {r.randrange(9)})"
            if use_either:
                call += f" + sizes (Right {r.randrange(9)} " \
                        f":: Either Bool Int)"
            lines.append(f"main = {call}")
            return "\n".join(lines)
        if shape == 2:
            bound = r.randrange(3, 30)
            if r.random() < 0.5:
                return "\n".join([
                    "step :: Int -> Maybe Int",
                    f"step x = if x > {bound} then Nothing "
                    f"else Just (x + {r.randrange(1, 5)})",
                    f"main = (return {r.randrange(9)} :: Maybe Int) "
                    f">>= step >>= step",
                ])
            return "\n".join([
                f"main = [{r.randrange(5)}, {r.randrange(5)}] "
                f">>= (\\x -> [x, x * {r.randrange(2, 5)}])",
            ])
        if shape == 3:
            # Deliberate kind errors; each must come out located.
            return r.choice([
                "instance Functor Int where\n  fmap f x = x\n"
                "main = 0",
                "class B f where\n  one :: f a -> Int\n"
                "  two :: f a b -> Int\n"
                "main = 0",
                "data Box a = Box a\n"
                "instance Functor (Box a) where\n"
                "  fmap f (Box x) = Box (f x)\n"
                "main = 0",
                "data App f = App (f Int)\n"
                "bad :: App Int -> Int\n"
                "bad x = 0\n"
                "main = 0",
            ])
        picks = [
            f"pure (\\x -> x + {r.randrange(9)}) <*> Just {r.randrange(9)}",
            f"fmap (\\x -> x * {r.randrange(2, 5)}) "
            f"(Right {r.randrange(9)} :: Either Bool Int)",
            f"(\\f -> f <$> [{r.randrange(5)}, {r.randrange(5)}]) "
            f"(\\x -> x + {r.randrange(9)})",
            f"liftA2 (\\a -> \\b -> a + b) (Just {r.randrange(9)}) "
            f"(Just {r.randrange(9)})",
            f"(fmap (\\x -> x + 1) (\\y -> y * {r.randrange(2, 5)})) "
            f"{r.randrange(9)}",
        ]
        return f"main = {r.choice(picks)}"

    def program(self) -> str:
        """One fuzz input: mostly grown/mutated, with a slice of the
        solver-focused shapes (superclass towers, multi-parameter
        classes, higher-kinded programs) mixed in."""
        roll = self.rng.random()
        if roll < 0.08:
            return self.superclass_chain()
        if roll < 0.14:
            return self.mptc()
        if roll < 0.24:
            return self.hk()
        return self.grown() if self.rng.random() < 0.6 else self.mutated()

    # ---------------------------------------------------------- module trees

    def multi_module(self) -> List[tuple]:
        """One multi-module fuzz input: ``[(name, source), ...]``.

        A library module exporting an overloaded class surface, an
        optional middle module re-wrapping it, and a Main calling
        across the boundary at concrete types — the shapes the
        link-time specializer clones from interface unfoldings.  A
        fraction of outputs is deliberately broken (missing imports,
        missing instances) to exercise the error paths of the module
        pipeline under both specializer configurations.
        """
        r = self.rng
        lib = ["module Lib where",
               "class Meas a where",
               "  meas :: a -> Int"]
        has_default = r.random() < 0.5
        if has_default:
            lib += ["  twice :: a -> Int",
                    "  twice x = meas x + meas x"]
        lib += ["data P = P Int",
                "instance Meas P where",
                "  meas (P n) = n"]
        two_instances = r.random() < 0.6
        if two_instances:
            lib += ["data Q = Q Int Int",
                    "instance Meas Q where",
                    "  meas (Q a b) = a + b"]
        lib += ["total :: Meas a => [a] -> Int",
                "total [] = 0",
                "total (x:xs) = meas x + total xs"]
        modules = [("Lib", "\n".join(lib) + "\n")]

        has_mid = r.random() < 0.4
        if has_mid:
            mid = ["module Mid where", "import Lib",
                   "viaMid :: Meas a => [a] -> Int",
                   f"viaMid xs = total xs + {r.randrange(5)}"]
            modules.append(("Mid", "\n".join(mid) + "\n"))

        main = ["module Main where", "import Lib"]
        if has_mid:
            main.append("import Mid")
        if r.random() < 0.1:
            main.append("import Missing")        # module.unknown
        fn = "viaMid" if has_mid and r.random() < 0.7 else "total"
        ps = "[" + ", ".join(f"P {r.randrange(9)}"
                             for _ in range(r.randrange(1, 4))) + "]"
        call = f"{fn} {ps}"
        if two_instances and r.random() < 0.5:
            qs = "[" + ", ".join(
                f"Q {r.randrange(5)} {r.randrange(5)}"
                for _ in range(r.randrange(1, 3))) + "]"
            call = f"{call} + {fn} {qs}"
        if has_default and r.random() < 0.4:
            call = f"{call} + twice (P {r.randrange(9)})"
        if r.random() < 0.1:
            call = f"{fn} [True]"                # type.no-instance
        main.append(f"main = {call}")
        modules.append(("Main", "\n".join(main) + "\n"))
        return modules
