"""Hand-written adversarial corpus: one entry per historically crashy
or otherwise pathological input shape.

Every entry must satisfy the fuzz invariant — compile + step-limited
eval either succeeds or raises a :class:`repro.errors.ReproError` —
and the regression tests in ``tests/test_fuzz.py`` additionally pin
the *code* of the error where one is expected.
"""

from __future__ import annotations

from typing import List, Tuple

# The two confirmed pre-fix crashers -----------------------------------

#: Segfaulted the process before the evaluator's recursion-limit fix:
#: ~100k levels of non-tail interpreted recursion on a default C stack
#: with ``sys.setrecursionlimit(400_000)``.  Must now *return 100000*
#: (the default run path routes through a big-stack thread).
DEEP_RECURSION_OK = (
    "count n = if n == 0 then 0 else 1 + count (n - 1)\n"
    "main = count 100000\n"
)

#: Same program, three times deeper: must raise ``ResourceLimitError``
#: (code "limit", limit "eval_depth_limit") — never RecursionError and
#: never a dead process.
DEEP_RECURSION_OVER_BUDGET = (
    "count n = if n == 0 then 0 else 1 + count (n - 1)\n"
    "main = count 300000\n"
)

#: Escaped as a raw RecursionError from the parser before the depth
#: guard: 400 unclosed parens (over the 300 parse-depth budget).
DEEP_PARENS_UNCLOSED = "main = " + "(" * 400

#: Balanced version — still over the parse budget, so still a located
#: ResourceLimitError rather than a successful parse.
DEEP_PARENS_BALANCED = "main = " + "(" * 400 + "1" + ")" * 400

# Other adversarial shapes ---------------------------------------------

ADVERSARIAL_CORPUS: List[Tuple[str, str]] = [
    ("deep_recursion_ok", DEEP_RECURSION_OK),
    ("deep_recursion_over_budget", DEEP_RECURSION_OVER_BUDGET),
    ("deep_parens_unclosed", DEEP_PARENS_UNCLOSED),
    ("deep_parens_balanced", DEEP_PARENS_BALANCED),
    ("empty", ""),
    ("whitespace_only", "  \n\t \n"),
    ("no_main", "f x = x + 1"),
    ("unterminated_string", 'main = "never closed'),
    ("unterminated_char", "main = 'a"),
    ("stray_close_paren", "main = 1)))))"),
    ("deep_brackets", "main = " + "[" * 350),
    ("deep_lambdas", "main = " + "\\x -> (" * 350 + "x" + ")" * 350),
    ("deep_lets",
     "main = " + "".join(f"let v{i} = {i} in " for i in range(350)) + "0"),
    ("deep_type_sig",
     "f :: " + "(" * 320 + "Int" + ")" * 320 + "\nf = 1\nmain = f"),
    ("occurs_check_self_apply", "main = (\\x -> x x)"),
    ("occurs_check_omega", "main = (\\x -> x x) (\\x -> x x)"),
    ("type_clash", "main = True 1"),
    ("literal_no_instance", 'main = 1 + "two"'),
    ("unbound_variable", "main = mystery 42"),
    ("no_instance", "data T = T\nmain = show T"),
    ("duplicate_instance",
     "data T = T deriving Eq\ninstance Eq T where\n  a == b = True\n"
     "main = T == T"),
    ("ambiguous_show_read", "main = fromInteger 1 == fromInteger 1"),
    ("bad_layout", "main =\n1\n  + 2\n      + 3"),
    ("tab_soup", "main\t=\t1\t+\t2"),
    ("null_bytes", "main = 1\x00 + 2"),
    ("non_ascii", "main = 1 ≠ 2"),
    ("huge_int_literal", "main = " + "9" * 5000),
    ("long_line_no_newline", "main = 1 " + "+ 1 " * 4000),
    ("pattern_match_fail",
     "data T = A | B\nf A = 1\nmain = f B"),
    ("divide_by_zero", "main = 1 `div` 0"),
    ("infinite_loop_step_limited", "loop n = loop (n + 1)\nmain = loop 0"),
    ("mutual_recursion_deep",
     "even2 n = if n == 0 then True else odd2 (n - 1)\n"
     "odd2 n = if n == 0 then False else even2 (n - 1)\n"
     "main = even2 200001\n"),
    ("class_cycleish",
     "class A a => B a where\n  b :: a -> Int\n"
     "class B a => A a where\n  a :: a -> Int\n"
     "main = 1"),
    ("keyword_as_name", "let = 3\nmain = let"),
    ("operator_soup", "main = + * - / == =<< >>= @ ~ ::"),
    ("brace_bomb", "main = {" + "{" * 300),
    # Module syntax (PR 4).  Single-file compilation accepts a module
    # header but has nothing to resolve imports against, so every
    # ``import`` must come back as a located module.unknown error —
    # never a crash and never a silently ignored declaration.
    ("module_header_ok", "module Main where\nmain = 1 + 1"),
    ("module_header_exports", "module M (f, main) where\nf = 2\nmain = f"),
    ("module_header_empty", "module Empty where\n"),
    ("module_not_first", "f = 1\nmodule M where\nmain = 1"),
    ("module_header_twice", "module A where\nmodule B where\nmain = 1"),
    ("import_unresolved", "import Missing\nmain = 1"),
    ("self_import", "module A where\nimport A\nmain = 1"),
    ("cyclic_import_single_file", "module A where\nimport B\nmain = 1"),
    ("import_after_decl", "f = 1\nimport M\nmain = f"),
    ("import_shadowed_reexport",
     "module B (f) where\nimport A (f)\nf = 2\nmain = f"),
    ("import_empty_list", "import M ()\nmain = 1"),
    ("import_garbage_list", "import M (,)\nmain = 1"),
    ("module_lowercase_name", "module lower where\nmain = 1"),
    ("module_header_no_where", "module M\nmain = 1"),
]


# Multi-module overloaded shapes (PR 6) --------------------------------
#
# Each entry is (name, [(module-name, source), ...]) built through the
# module pipeline twice — link-time specialization on and off — by the
# differential check in ``tests/fuzz/run_fuzz.py``: both builds must
# agree on the entry value, or both/either must fail with a located
# ReproError.  The shapes target the link-time specializer: overloaded
# calls crossing module boundaries, clone cascades through helper and
# default-method bodies, multiple instantiations of one export, and
# the polymorphic-recursion pattern that must exhaust the clone budget
# gracefully instead of diverging.

XMODULE_CORPUS: List[Tuple[str, List[Tuple[str, str]]]] = [
    ("xm_basic", [
        ("Lib", "module Lib where\n"
                "total :: Num a => [a] -> a\n"
                "total [] = 0\n"
                "total (x:xs) = x + total xs\n"),
        ("Main", "module Main where\nimport Lib\n"
                 "main = total [1, 2, 3 :: Int]\n"),
    ]),
    ("xm_two_instantiations", [
        ("Lib", "module Lib where\n"
                "class Meas a where\n"
                "  meas :: a -> Int\n"
                "data P = P Int\n"
                "data Q = Q Int Int\n"
                "instance Meas P where\n"
                "  meas (P n) = n\n"
                "instance Meas Q where\n"
                "  meas (Q a b) = a + b\n"
                "total :: Meas a => [a] -> Int\n"
                "total [] = 0\n"
                "total (x:xs) = meas x + total xs\n"),
        ("Main", "module Main where\nimport Lib\n"
                 "main = total [P 1, P 2] + total [Q 3 4]\n"),
    ]),
    ("xm_cascade", [
        # The root clone's body calls another overloaded import; the
        # cascade must clone that too, from its own unfolding.
        ("A", "module A where\n"
              "scale :: Num a => a -> [a] -> [a]\n"
              "scale k [] = []\n"
              "scale k (x:xs) = k * x : scale k xs\n"),
        ("B", "module B where\nimport A\n"
              "scaledSum :: Num a => a -> [a] -> a\n"
              "scaledSum k xs = go (scale k xs)\n"
              "  where go [] = 0\n"
              "        go (y:ys) = y + go ys\n"),
        ("Main", "module Main where\nimport B\n"
                 "main = scaledSum (2 :: Int) [1, 2, 3]\n"),
    ]),
    ("xm_default_method", [
        ("Lib", "module Lib where\n"
                "class Meas a where\n"
                "  meas :: a -> Int\n"
                "  twice :: a -> Int\n"
                "  twice x = meas x + meas x\n"
                "data P = P Int\n"
                "instance Meas P where\n"
                "  meas (P n) = n\n"),
        ("Main", "module Main where\nimport Lib\n"
                 "main = twice (P 21)\n"),
    ]),
    ("xm_diamond", [
        ("Base", "module Base where\n"
                 "class Meas a where\n"
                 "  meas :: a -> Int\n"
                 "data P = P Int\n"
                 "instance Meas P where\n"
                 "  meas (P n) = n\n"),
        ("L", "module L where\nimport Base\n"
              "viaL :: Meas a => a -> Int\n"
              "viaL x = meas x + 1\n"),
        ("R", "module R where\nimport Base\n"
              "viaR :: Meas a => a -> Int\n"
              "viaR x = meas x * 2\n"),
        ("Main", "module Main where\nimport Base\nimport L\nimport R\n"
                 "main = viaL (P 3) + viaR (P 4)\n"),
    ]),
    ("xm_poly_recursion_budget", [
        # Polymorphic recursion: every unrolling wants a clone at a
        # deeper pair type.  The clone budget must cut the cascade off
        # (dictionary fallback), never loop or crash.
        ("Lib", "module Lib where\n"
                "nest :: Text a => Int -> a -> String\n"
                "nest n x = if n <= 0 then show x\n"
                "           else nest (n - 1) (x, x)\n"),
        ("Main", "module Main where\nimport Lib\n"
                 "main = length (nest 6 (1 :: Int))\n"),
    ]),
    ("xm_no_instance", [
        # The cross-module call is ill-typed: a located type error,
        # under either configuration, never a crash.
        ("Lib", "module Lib where\n"
                "class Meas a where\n"
                "  meas :: a -> Int\n"
                "total :: Meas a => [a] -> Int\n"
                "total [] = 0\n"
                "total (x:xs) = meas x + total xs\n"),
        ("Main", "module Main where\nimport Lib\n"
                 "main = total [True, False]\n"),
    ]),
    ("xm_reexport_chain", [
        ("A", "module A where\n"
              "bump :: Num a => a -> a\n"
              "bump x = x + 1\n"),
        ("B", "module B (bump2) where\nimport A\n"
              "bump2 :: Num a => a -> a\n"
              "bump2 x = bump (bump x)\n"),
        ("Main", "module Main where\nimport B\n"
                 "main = bump2 (40 :: Int)\n"),
    ]),
    ("xm_mptc_import", [
        # A multi-parameter instance used from an importing module.
        ("Conv", "module Conv where\n"
                 "class Convert a b where\n"
                 "  convert :: a -> b\n"
                 "instance Convert Int Float where\n"
                 "  convert x = fromIntegral x\n"),
        ("Main", "module Main where\nimport Conv\n"
                 "main :: Float\n"
                 "main = convert (3 :: Int)\n"),
    ]),
    ("xm_mptc_duplicate_instance", [
        # Sibling modules declare the same multi-parameter instance:
        # the link's coherence check must name both.
        ("Conv", "module Conv where\n"
                 "class Convert a b where\n"
                 "  convert :: a -> b\n"),
        ("A", "module A where\nimport Conv\n"
              "instance Convert Int Float where\n"
              "  convert x = fromIntegral x\n"),
        ("B", "module B where\nimport Conv\n"
              "instance Convert Int Float where\n"
              "  convert x = fromIntegral x\n"),
        ("Main", "module Main where\nimport A\nimport B\nmain = 1\n"),
    ]),
]
