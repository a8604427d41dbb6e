"""Stress tests: scale along each axis the implementation could be
quadratic or recursion-limited on."""

import sys
import threading

from repro import CompilerOptions, compile_source


class TestCompilationScale:
    def test_many_bindings(self):
        n = 300
        lines = ["f0 :: Int -> Int", "f0 x = x + 1"]
        for i in range(1, n):
            lines.append(f"f{i} :: Int -> Int")
            lines.append(f"f{i} x = f{i - 1} x + 1")
        lines.append(f"main = f{n - 1} 0")
        program = compile_source("\n".join(lines))
        assert program.run("main") == n

    def test_many_instances(self):
        parts = []
        for i in range(30):
            parts.append(f"data T{i} = A{i} | B{i} deriving (Eq, Ord, Text)")
        parts.append("main = (A0 == A0, show B29, A5 < B5)")
        program = compile_source("\n".join(parts))
        assert program.run("main") == (True, "B29", True)

    def test_wide_class(self):
        methods = "\n".join(f"  m{i} :: a -> Int" for i in range(20))
        impls = "\n".join(f"  m{i} x = {i}" for i in range(20))
        src = (f"class Wide a where\n{methods}\n"
               f"data W = W\ninstance Wide W where\n{impls}\n"
               "useAll :: Wide a => a -> Int\n"
               "useAll x = " + " + ".join(f"m{i} x" for i in range(20)) + "\n"
               "main = useAll W")
        program = compile_source(src)
        assert program.run("main") == sum(range(20))

    def test_long_superclass_chain(self):
        depth = 10
        lines = ["class C1 a where", "  p1 :: a -> Int"]
        for i in range(2, depth + 1):
            lines.append(f"class C{i - 1} a => C{i} a where")
            lines.append(f"  p{i} :: a -> Int")
        lines.append("data T = T")
        for i in range(1, depth + 1):
            lines.append(f"instance C{i} T where")
            lines.append(f"  p{i} x = {i}")
        lines.append(f"deep :: C{depth} a => a -> Int")
        lines.append("deep x = p1 x")
        lines.append("main = deep T")
        for layout in ("nested", "flat"):
            program = compile_source(
                "\n".join(lines), CompilerOptions(dict_layout=layout))
            assert program.run("main") == 1

    def test_deeply_nested_expressions(self):
        expr = "0"
        for i in range(150):
            expr = f"({expr} + 1)"
        program = compile_source(f"main = {expr} :: Int")
        assert program.run("main") == 150

    def test_deeply_nested_list_type(self):
        depth = 12
        value = "1"
        for _ in range(depth):
            value = f"[{value}]"
        ty = "Int"
        for _ in range(depth):
            ty = f"[{ty}]"
        program = compile_source(
            f"main = ({value} :: {ty}) == {value}")
        assert program.run("main") is True


class TestRuntimeScale:
    def test_sort_1000(self):
        program = compile_source(
            "shuffled = map (\\i -> mod (i * 7919) 1000) (enumFromTo 1 1000)\n"
            "main = (length (sort shuffled), head (sort shuffled))")
        n, first = program.run("main")
        assert n == 1000
        assert first == 0 or first >= 0

    def test_member_5000(self):
        program = compile_source("main = member 0 (enumFromTo 1 5000)")
        assert program.run("main") is False

    def test_compiled_backend_deep_recursion(self):
        program = compile_source(
            "count :: Int -> Int\n"
            "count n = if n == 0 then 0 else 1 + count (n - 1)\n"
            "main = count 2000")
        from repro.coreir.eval import with_big_stack
        py = program.to_python()
        assert with_big_stack(lambda: py.run("main")) == 2000

    def test_show_large_structure(self):
        program = compile_source(
            "main = length (show (enumFromTo 1 300))")
        assert program.run("main") > 900


class TestBigStackThreads:
    def test_concurrent_callers_never_see_the_floor_restored(self):
        # The recursion limit is process-global and shared by every
        # big-stack thread: no thread may see it restored below the
        # floor while another is still running.
        from repro.coreir.eval import (BIG_STACK_RECURSION_LIMIT,
                                       with_big_stack)
        seen = []

        def worker() -> None:
            for _ in range(20):
                seen.append(with_big_stack(sys.getrecursionlimit))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 160
        assert min(seen) >= BIG_STACK_RECURSION_LIMIT
