"""The staged evaluator against the tree-walking reference.

Every program here runs under :mod:`repro.coreir.eval` and under
``tests/reference_eval.py``; the value, the error's code and message,
and every ``EvalStats`` counter must agree.  Inputs: seeded fuzz
programs under call-by-need, call-by-name, a step limit and a small
depth limit, and hand-built core for the shapes the front end never
emits (unbound globals, applying a literal, a failed match, variables
two lambdas out, over-saturated calls, knots and ``<<loop>>``).
"""

from __future__ import annotations

import pytest

from repro.coreir import eval as staged
from repro.coreir.syntax import (
    CAlt,
    CApp,
    CCase,
    CCon,
    CDict,
    CLam,
    CLet,
    CLit,
    CLitAlt,
    CoreBinding,
    CoreProgram,
    CSel,
    CTuple,
    CVar,
    capp,
)
from repro.errors import ReproError
from repro.options import CompilerOptions
from repro.prelude import PRIMITIVES
from repro.service.snapshot import PreludeSnapshot

from tests import reference_eval
from tests.fuzz.gen import ProgramGen

#: (call_by_need, step_limit, max_depth) of each differential run
MODES = [
    (True, 200_000, 200_000),
    (False, 20_000, 200_000),
    (True, 700, 200_000),
    (True, 200_000, 25),
]


@pytest.fixture(scope="module")
def snapshot():
    return PreludeSnapshot.build(CompilerOptions())


def _fuzz_programs(seed: int, count: int):
    gen = ProgramGen(seed)
    return [gen.program() for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_programs_agree(snapshot, seed):
    from repro import compile_source
    compared = 0
    for source in _fuzz_programs(seed, 200):
        try:
            program = compile_source(source, snapshot=snapshot)
        except ReproError:
            continue
        if "main" not in program.schemes:
            continue
        for need, steps, depth in MODES:
            reference_eval.assert_same_as_reference(
                program, call_by_need=need, step_limit=steps,
                max_depth=depth)
        compared += 1
    assert compared >= 40


# ----------------------------------------------------------------------
# Hand-built core
# ----------------------------------------------------------------------

def _run_core(module, bindings, call_by_need=True, step_limit=0,
              max_depth=200_000):
    evaluator = module.Evaluator(CoreProgram(bindings), PRIMITIVES(),
                                 call_by_need=call_by_need,
                                 step_limit=step_limit, max_depth=max_depth)
    return reference_eval.outcome(
        lambda: staged.value_to_python(evaluator, evaluator.run("main")),
        lambda: evaluator.stats)


def _int(n):
    return CLit(n, "int")


def _add(a, b):
    return capp(CVar("primAddInt"), a, b)


#: binding lists, each with a ``main``
CORE_PROGRAMS = {
    "unbound_global": [CoreBinding("main", _add(_int(1), CVar("ghost")))],
    "apply_literal": [CoreBinding("main", CApp(_int(1), _int(2)))],
    "no_alternative": [CoreBinding("main", CCase(
        CCon("Nothing", 0), [CAlt("Just", ["x"], CVar("x"))], [], None))],
    "select_from_int": [CoreBinding("main", CSel(0, 2, _int(3), True))],
    "two_lambdas_out": [CoreBinding("main", capp(
        CLam(["a"], CLam(["b"], CLam(["c"], _add(CVar("a"), _add(
            CVar("b"), CVar("c")))))), _int(1), _int(2), _int(3)))],
    "over_saturated": [
        CoreBinding("k", CLam(["x"], CLam(["y"], CVar("x")))),
        CoreBinding("id", CLam(["f"], CVar("f"))),
        CoreBinding("main", capp(CVar("id"), CVar("k"), _int(7), _int(8))),
    ],
    "partial_then_saturate": [
        CoreBinding("add3", CLam(["a", "b", "c"], _add(CVar("a"), _add(
            CVar("b"), CVar("c"))))),
        CoreBinding("main", CLet([("f", capp(CVar("add3"), _int(1)))],
                                 capp(CVar("f"), _int(2), _int(3)), False)),
    ],
    "knot": [CoreBinding("main", CLet(
        [("xs", capp(CCon(":", 2), _int(1), CVar("xs")))],
        CCase(CVar("xs"), [CAlt(":", ["h", "t"], CCase(
            CVar("t"), [CAlt(":", ["h2", "t2"], _add(CVar("h"), CVar("h2")))],
            [], None))], [], None), True))],
    "loop": [CoreBinding("main", CLet([("x", _add(CVar("x"), _int(1)))],
                                      CVar("x"), True))],
    "shadowing_let": [CoreBinding("main", CLet(
        [("x", _int(1))],
        CLet([("x", _add(CVar("x"), _int(10)))], CVar("x"), False),
        False))],
    "literal_and_tuple_alts": [CoreBinding("main", CCase(
        CTuple([_int(2), CLit("b", "char")]),
        [CAlt("(,)", ["n", "c"], CCase(
            CVar("c"), [],
            [CLitAlt("a", "char", _int(0)), CLitAlt("b", "char", CVar("n"))],
            _int(-1)))], [], None))],
    "dictionary": [CoreBinding("main", CSel(
        1, 2, CDict([_int(4), CLam(["x"], CVar("x"))], "T"), True))],
    "string_literal": [CoreBinding("main", CLit("hey", "string"))],
    "case_binder_under_name": [CoreBinding("main", CLet(
        [("p", CTuple([_add(_int(1), _int(2)), _int(5)]))],
        _add(CCase(CVar("p"), [CAlt("(,)", ["a", "b"], _add(CVar("a"),
                                                           CVar("b")))],
                   [], None),
             CCase(CVar("p"), [CAlt("(,)", ["a", "b"], CVar("a"))], [],
                   None)), False))],
}


@pytest.mark.parametrize("name", sorted(CORE_PROGRAMS))
@pytest.mark.parametrize("need", [True, False])
def test_core_programs_agree(name, need):
    bindings = CORE_PROGRAMS[name]
    for steps in (0, 3):
        ours = _run_core(staged, bindings, need, steps)
        ref = _run_core(reference_eval, bindings, need, steps)
        assert ours == ref
