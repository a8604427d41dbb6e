"""Fuzz smoke runner: the CI crash-containment gate.

Usage::

    PYTHONPATH=src python -m tests.fuzz.run_fuzz --seed 0 --count 1000

For every program — the full adversarial corpus first, then ``count``
generated programs — the runner compiles it against a shared prelude
snapshot and, when compilation succeeds, evaluates ``main`` under a
small step limit.  The invariant:

    every input either succeeds or raises ``ReproError``;
    the process never dies.

Every program is also lexed by the character-at-a-time reference
scanner (``tests/reference_lexer.py``); a token or error that differs
from the compiler's lexer counts as a crash.  Every ``main`` that runs
is run by the tree-walking reference evaluator
(``tests/reference_eval.py``) as well; a value, error or counter that
differs counts as a crash too.

Any other exception (``RecursionError``, ``MemoryError``, a segfault
taking the whole process down, ...) prints the offending program and
exits non-zero, so CI fails on exactly the class of bug this PR fixed.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from typing import Optional, Tuple

from repro.driver import compile_source
from repro.errors import CoreLintError, ReproError
from repro.lang.lexer import lex
from repro.options import CompilerOptions
from repro.service.snapshot import PreludeSnapshot

from tests import reference_eval, reference_lexer
from tests.fuzz.corpus import ADVERSARIAL_CORPUS, XMODULE_CORPUS
from tests.fuzz.gen import ProgramGen
from tests.fuzz.protocol import run_protocol

#: Step budget for evaluating a fuzzed ``main`` — plenty for the tiny
#: generated programs, small enough that ``loop n = loop (n + 1)``
#: terminates in milliseconds.
EVAL_STEP_LIMIT = 200_000


def _assert_positions(exc: ReproError) -> None:
    """The provenance oracle: every type- or kind-error diagnostic
    must name at least one source location in its ``positions``
    list."""
    code = type(exc).code
    if (code.startswith("type") or code.startswith("kind")) \
            and not exc.to_json()["positions"]:
        raise AssertionError(
            f"{code.split('.')[0]}-error diagnostic carries no "
            f"positions: [{code}] {exc}")


def _assert_lexes_like_reference(source: str) -> None:
    """The lexer oracle: the compiler's lexer and the reference scanner
    give the same tokens, or the same error at the same position."""
    ours = reference_lexer.outcome(lex, source)
    ref = reference_lexer.outcome(reference_lexer.lex, source)
    if ours != ref:
        raise AssertionError(f"lexer differs from the reference scanner: "
                             f"{ours!r:.400} != {ref!r:.400}")


def _assert_evaluates_like_reference(program, ours) -> None:
    """The evaluator oracle: the tree-walking reference gives the same
    value, or the same error, with the same counters, as the run whose
    outcome (:func:`tests.reference_eval.outcome`) is *ours*."""
    ref = reference_eval.reference_outcome(program,
                                           step_limit=EVAL_STEP_LIMIT)
    if ours != ref:
        raise AssertionError(f"evaluator differs from the reference: "
                             f"{ours!r:.400} != {ref!r:.400}")


def _run_main(program, source: Optional[str] = None):
    """Run ``main`` under the step limit and check it against the
    reference: ``(value, None)`` or ``(None, exc)`` for a ReproError
    (CoreLintError propagates)."""
    try:
        value = program.run("main", step_limit=EVAL_STEP_LIMIT)
    except CoreLintError:
        # A lint failure is never a legitimate rejection of the input:
        # it means a pipeline pass produced ill-formed core.  Treat it
        # like a crash — propagate so the run fails loudly.
        raise
    except ReproError as exc:
        exc.to_json()
        if source is not None:
            exc.pretty(source)
        _assert_evaluates_like_reference(
            program, ("error", exc.code, str(exc),
                      program.last_stats.snapshot()))
        return None, exc
    _assert_evaluates_like_reference(
        program, ("value", value, program.last_stats.snapshot()))
    return value, None


def _compile_verdict(source: str, snapshot: PreludeSnapshot,
                     options: CompilerOptions):
    """Compile one program: ``("ok", None, program)`` or
    ``("error", code, exc)``.  CoreLintError propagates (a pipeline
    bug, not a rejected input)."""
    try:
        program = compile_source(source, options=options,
                                 snapshot=snapshot)
        return "ok", None, program
    except CoreLintError:
        raise
    except ReproError as exc:
        # The error must also survive its own reporting paths.
        exc.to_json()
        exc.pretty(source)
        return "error", type(exc).code, exc


def check_one(source: str, snapshot: PreludeSnapshot,
              options: CompilerOptions, positions: bool = False,
              provenance_diff: bool = False) -> Tuple[str, Optional[str]]:
    """Run one program through the invariant.

    Returns ``(outcome, error_code)`` where outcome is ``"ok"`` or
    ``"error"``; any non-ReproError exception propagates (and fails
    the run).  *positions* asserts every type-error diagnostic carries
    source locations; *provenance_diff* recompiles with provenance
    disabled and asserts the accept/reject verdict is unchanged.
    """
    _assert_lexes_like_reference(source)
    outcome, code, result = _compile_verdict(source, snapshot, options)
    if provenance_diff:
        off = options.with_(constraint_provenance=False)
        outcome2, code2, _ = _compile_verdict(source, snapshot, off)
        if (outcome, code) != (outcome2, code2):
            raise AssertionError(
                f"provenance flipped the compile verdict: "
                f"on={(outcome, code)} off={(outcome2, code2)}")
    if outcome == "error":
        if positions:
            _assert_positions(result)
        return outcome, code
    program = result
    if "main" not in program.schemes:
        return "ok", None
    _value, exc = _run_main(program, source)
    return ("ok", None) if exc is None else ("error", type(exc).code)


def check_modules(specs, snapshot: PreludeSnapshot,
                  options: CompilerOptions,
                  positions: bool = False) -> Tuple[str, Optional[str]]:
    """The differential invariant for multi-module inputs.

    Builds the module list twice — link-time specialization on and
    off.  Each build either links (and evaluates ``main`` under the
    step limit) or raises a located ReproError; when *both* succeed
    they must agree on the entry value, since the §9 clone rewrite may
    change the core but never the meaning.  Returns the specialized
    build's ``(outcome, error_code)``.
    """
    from repro.modules import ModuleBuilder
    from repro.modules.resolve import scan_inline_modules

    def attempt(opts):
        try:
            graph = scan_inline_modules(list(specs))
            builder = ModuleBuilder(opts, snapshot=snapshot)
            program = builder.build(graph).program
            value = None
            if "main" in program.schemes:
                value, exc = _run_main(program)
                if exc is not None:
                    raise exc
            return "ok", value, None
        except CoreLintError:
            raise  # ill-formed core is a bug, not a rejected input
        except ReproError as exc:
            exc.to_json()
            if positions:
                _assert_positions(exc)
            return "error", None, type(exc).code

    for _name, source in specs:
        _assert_lexes_like_reference(source)
    fast = attempt(options.with_(specialize_xmodule=True))
    slow = attempt(options.with_(specialize_xmodule=False))
    if fast[0] == "ok" and slow[0] == "ok" and fast[1] != slow[1]:
        raise AssertionError(
            f"specialized/dictionary builds disagree: "
            f"{fast[1]!r} != {slow[1]!r}")
    return fast[0], fast[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=1000,
                    help="number of generated programs (after the corpus)")
    ap.add_argument("--lint", action="store_true",
                    help="run the core lint after every pipeline pass as "
                         "an extra oracle: any program that compiles must "
                         "also lint clean (a CoreLintError fails the run)")
    ap.add_argument("--positions", action="store_true",
                    help="provenance oracle: any type-error diagnostic "
                         "whose positions list is empty fails the run")
    ap.add_argument("--provenance-diff", action="store_true",
                    help="differential oracle: recompile each single-file "
                         "input with constraint_provenance=false; a changed "
                         "accept/reject verdict fails the run")
    ap.add_argument("--protocol", action="store_true",
                    help="protocol stage instead of programs: a burst of "
                         "--count seeded request lines (malformed JSON, "
                         "wrong field types, odd ids, a pipelined "
                         "shutdown, timeouts racing shard kills) to both "
                         "server backends over TCP and stdio; every line "
                         "before the shutdown must get exactly one reply "
                         "with a stable error code")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    if args.protocol:
        started = time.monotonic()
        codes = run_protocol(args.seed, args.count)
        print(f"fuzz --protocol: {sum(codes.values())} replies in "
              f"{time.monotonic() - started:.1f}s, 0 violations")
        for code, n in sorted(codes.items(), key=lambda kv: -kv[1]):
            print(f"  {code:24s} {n}")
        return 0

    options = CompilerOptions()
    if args.lint:
        options.lint = True
    snapshot = PreludeSnapshot.build(options)
    gen = ProgramGen(args.seed)

    inputs = [(f"corpus:{name}", src) for name, src in ADVERSARIAL_CORPUS]
    inputs += [(f"gen:{i}", gen.program()) for i in range(args.count)]

    # Multi-module inputs go through the differential module check:
    # the hand-written xmodule corpus plus a slice of generated trees.
    module_inputs = [(f"xmodule:{name}", specs)
                     for name, specs in XMODULE_CORPUS]
    module_inputs += [(f"gen-modules:{i}", gen.multi_module())
                      for i in range(max(1, args.count // 10))]

    outcomes: Counter = Counter()
    codes: Counter = Counter()
    started = time.monotonic()
    for label, source in inputs:
        try:
            outcome, code = check_one(
                source, snapshot, options, positions=args.positions,
                provenance_diff=args.provenance_diff)
        except BaseException as exc:  # noqa: BLE001 — the invariant itself
            print(f"FUZZ INVARIANT VIOLATED at {label}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            print("--- program ---", file=sys.stderr)
            print(source, file=sys.stderr)
            print("---------------", file=sys.stderr)
            raise
        outcomes[outcome] += 1
        if code:
            codes[code] += 1
        if args.verbose:
            print(f"{label}: {outcome}" + (f" ({code})" if code else ""))

    for label, specs in module_inputs:
        try:
            outcome, code = check_modules(specs, snapshot, options,
                                          positions=args.positions)
        except BaseException as exc:  # noqa: BLE001 — the invariant itself
            print(f"FUZZ INVARIANT VIOLATED at {label}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            for name, source in specs:
                print(f"--- module {name} ---", file=sys.stderr)
                print(source, file=sys.stderr)
            print("---------------", file=sys.stderr)
            raise
        outcomes[outcome] += 1
        if code:
            codes[code] += 1
        if args.verbose:
            print(f"{label}: {outcome}" + (f" ({code})" if code else ""))

    elapsed = time.monotonic() - started
    total = sum(outcomes.values())
    print(f"fuzz: {total} programs in {elapsed:.1f}s — "
          f"{outcomes['ok']} ok, {outcomes['error']} contained errors, "
          f"0 crashes")
    for code, n in sorted(codes.items(), key=lambda kv: -kv[1]):
        print(f"  {code:24s} {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
