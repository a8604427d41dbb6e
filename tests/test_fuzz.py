"""Crash containment: adversarial corpus, fuzz generator, server survival.

The invariant everything here enforces: any input either compiles (and
evaluates) or raises a located :class:`ReproError` — the process never
dies with a ``RecursionError``, a segfault, or any other unstructured
exception.  See ``tests/fuzz/`` for the generator and the CI smoke
runner.
"""

import traceback

import pytest

from repro import CompilerOptions, compile_source
from repro.errors import ResourceLimitError
from repro.service.server import CompileService
from repro.service.snapshot import PreludeSnapshot

from tests.fuzz.corpus import (
    ADVERSARIAL_CORPUS,
    DEEP_PARENS_BALANCED,
    DEEP_PARENS_UNCLOSED,
    DEEP_RECURSION_OK,
    DEEP_RECURSION_OVER_BUDGET,
    XMODULE_CORPUS,
)
from tests.fuzz.gen import ProgramGen
from tests.fuzz.protocol import check_replies, run_protocol
from tests.fuzz.run_fuzz import EVAL_STEP_LIMIT, check_modules, check_one


@pytest.fixture(scope="module")
def snapshot():
    return PreludeSnapshot.build(CompilerOptions())


class TestConfirmedRepros:
    """The two crashes this PR fixed, pinned as regressions."""

    def test_deep_recursion_returns_not_segfaults(self):
        # Pre-fix: the evaluator set sys.setrecursionlimit(400_000) on
        # the caller's default-size C stack and 100k levels of
        # interpreted recursion segfaulted the process.
        program = compile_source(DEEP_RECURSION_OK)
        assert program.run("main") == 100000

    def test_deep_recursion_over_budget_raises_located_limit(self):
        program = compile_source(DEEP_RECURSION_OVER_BUDGET)
        with pytest.raises(ResourceLimitError) as excinfo:
            program.run("main")
        assert excinfo.value.code == "limit"
        assert excinfo.value.limit == "eval_depth_limit"

    def test_eval_depth_budget_is_a_knob(self):
        # The budget is policy, not a hard wall: the same program that
        # succeeds under the default budget trips a lowered one.
        program = compile_source(DEEP_RECURSION_OK)
        with pytest.raises(ResourceLimitError) as excinfo:
            program.run("main", max_depth=10_000)
        assert excinfo.value.limit == "eval_depth_limit"

    @pytest.mark.parametrize("source", [
        "count n = if n == 0 then 0 else 1 + count (n - 1)\n"
        "main = count (50000 :: Int)",
        "main = length (enumFromTo 1 (50000 :: Int))",
        "main = foldr (+) 0 (enumFromTo 1 (50000 :: Int))",
        "main = length (show (enumFromTo 1 (20000 :: Int)))",
    ])
    def test_at_most_four_python_frames_per_level(self, source):
        # The default budget (200,000 levels) must fire before the
        # big-stack thread's recursion limit (1,000,000 frames) on every
        # path, so no path may take more than 4 Python frames per level.
        # A tree walk that took 5 down a list hit "recursionlimit" at
        # `length (enumFromTo 1 210000)` instead of the budget.
        depth = 2000
        program = compile_source(source)
        with pytest.raises(ResourceLimitError) as excinfo:
            program.run("main", max_depth=depth)
        assert excinfo.value.limit == "eval_depth_limit"
        frames = len(traceback.extract_tb(excinfo.value.__traceback__))
        assert frames <= 4 * depth + 50

    def test_deep_parens_raise_located_limit_not_recursionerror(self):
        # Pre-fix: 400 nested parens escaped as a raw RecursionError.
        for source in (DEEP_PARENS_UNCLOSED, DEEP_PARENS_BALANCED):
            with pytest.raises(ResourceLimitError) as excinfo:
                compile_source(source)
            exc = excinfo.value
            assert exc.limit == "max_parse_depth"
            assert exc.pos is not None and exc.pos.line == 1

    def test_parse_depth_budget_is_a_knob(self):
        deep = "main = " + "(" * 400 + "1" + ")" * 400
        program = compile_source(
            deep, CompilerOptions(max_parse_depth=1000))
        assert program.run("main") == 1


class TestAdversarialCorpus:
    @pytest.mark.parametrize(
        "name,source", ADVERSARIAL_CORPUS,
        ids=[name for name, _ in ADVERSARIAL_CORPUS])
    def test_compiles_or_raises_repro_error(self, name, source, snapshot):
        # check_one re-raises anything that is not a ReproError, and
        # additionally pushes the error through to_json()/pretty().
        outcome, code = check_one(source, snapshot, CompilerOptions())
        assert outcome in ("ok", "error")
        if outcome == "error":
            assert isinstance(code, str) and code

    def test_expected_codes(self, snapshot):
        expected = {
            "deep_parens_unclosed": "limit",
            "deep_parens_balanced": "limit",
            "unterminated_string": "lex",
            "occurs_check_omega": "type.occurs",
            "type_clash": "type.unify",
            "unbound_variable": "type",
            "no_instance": "type.no-instance",
            "duplicate_instance": "static.duplicate-instance",
            "stray_close_paren": "parse",
            "huge_int_literal": "parse",
            "import_unresolved": "module.unknown",
            "self_import": "module.unknown",
            "cyclic_import_single_file": "module.unknown",
            "import_shadowed_reexport": "module.unknown",
            "import_after_decl": "parse",
            "module_not_first": "parse",
            "module_header_twice": "parse",
            "import_garbage_list": "parse",
            "module_lowercase_name": "parse",
            "module_header_no_where": "parse",
        }
        by_name = dict(ADVERSARIAL_CORPUS)
        for name, want in expected.items():
            _, code = check_one(by_name[name], snapshot, CompilerOptions())
            assert code == want, f"{name}: expected {want}, got {code}"


class TestGeneratedPrograms:
    def test_generator_is_deterministic(self):
        a = [ProgramGen(7).program() for _ in range(50)]
        b = [ProgramGen(7).program() for _ in range(50)]
        assert a == b

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_programs_never_crash(self, seed, snapshot):
        gen = ProgramGen(seed)
        options = CompilerOptions()
        outcomes = set()
        for _ in range(150):
            outcome, _ = check_one(gen.program(), snapshot, options)
            outcomes.add(outcome)
        # Sanity: the generator exercises both sides of the invariant.
        assert outcomes == {"ok", "error"}


class TestLintOracle:
    """The core lint as a fuzzing oracle: every program that compiles
    must also lint clean after every pipeline pass.  ``check_one``
    re-raises :class:`~repro.errors.CoreLintError` (it is a compiler
    bug, never a legitimate rejection of the input), so a lint failure
    here fails the test with the offending pass in the message."""

    @pytest.fixture(scope="class")
    def lint_snapshot(self):
        return PreludeSnapshot.build(CompilerOptions(lint=True))

    @pytest.mark.parametrize(
        "name,source", ADVERSARIAL_CORPUS,
        ids=[name for name, _ in ADVERSARIAL_CORPUS])
    def test_corpus_lints_clean(self, name, source, lint_snapshot):
        outcome, code = check_one(source, lint_snapshot,
                                  CompilerOptions(lint=True))
        assert outcome in ("ok", "error")
        if code is not None:
            assert not code.startswith("lint")

    def test_generated_programs_lint_clean(self, lint_snapshot):
        gen = ProgramGen(3)
        options = CompilerOptions(lint=True)
        for _ in range(100):
            outcome, code = check_one(gen.program(), lint_snapshot,
                                      options)
            if code is not None:
                assert not code.startswith("lint")

    def test_optimized_pipeline_lints_clean(self):
        # The full transform stack (constant-dict-reduction and
        # specialize included) under the oracle; those options change
        # the prelude core, so this needs its own snapshot.
        options = CompilerOptions(lint=True,
                                  constant_dict_reduction=True,
                                  specialize=True)
        snapshot = PreludeSnapshot.build(options)
        gen = ProgramGen(4)
        for _ in range(60):
            check_one(gen.program(), snapshot, options)


class TestXModuleFuzz:
    """The differential invariant for multi-module inputs: building
    with and without link-time specialization must agree on the entry
    value (or both fail structurally), with the core lint as an
    oracle — ``check_modules`` raises on disagreement and re-raises
    CoreLintError."""

    @pytest.fixture(scope="class")
    def lint_snapshot(self):
        return PreludeSnapshot.build(CompilerOptions(lint=True))

    @pytest.mark.parametrize(
        "name,specs", XMODULE_CORPUS,
        ids=[name for name, _ in XMODULE_CORPUS])
    def test_corpus_differential(self, name, specs, lint_snapshot):
        outcome, code = check_modules(specs, lint_snapshot,
                                      CompilerOptions(lint=True))
        assert outcome in ("ok", "error")
        if code is not None:
            assert not code.startswith("lint")

    def test_expected_codes(self, lint_snapshot):
        by_name = dict(XMODULE_CORPUS)
        options = CompilerOptions(lint=True)
        _, code = check_modules(by_name["xm_no_instance"],
                                lint_snapshot, options)
        assert code == "type.no-instance"
        outcome, _ = check_modules(by_name["xm_poly_recursion_budget"],
                                   lint_snapshot, options)
        assert outcome == "ok"  # budget cut the cascade, value intact
        outcome, _ = check_modules(by_name["xm_mptc_import"],
                                   lint_snapshot, options)
        assert outcome == "ok"
        _, code = check_modules(by_name["xm_mptc_duplicate_instance"],
                                lint_snapshot, options)
        assert code == "module.link.duplicate-instance"

    def test_generator_is_deterministic(self):
        a = [ProgramGen(11).multi_module() for _ in range(20)]
        b = [ProgramGen(11).multi_module() for _ in range(20)]
        assert a == b

    def test_generated_module_trees_never_crash(self, lint_snapshot):
        gen = ProgramGen(5)
        options = CompilerOptions(lint=True)
        outcomes = set()
        for _ in range(25):
            outcome, code = check_modules(gen.multi_module(),
                                          lint_snapshot, options)
            outcomes.add(outcome)
            if code is not None:
                assert not code.startswith("lint")
        assert "ok" in outcomes  # the generator mostly builds trees


class TestServerSurvival:
    """Adversarial inputs through the service: structured errors out,
    worker alive afterwards."""

    @pytest.fixture(scope="class")
    def service(self):
        return CompileService()

    def request(self, service, source, **extra):
        req = {"op": "eval", "id": 1, "source": source, "expr": "main",
               "step_limit": EVAL_STEP_LIMIT}
        req.update(extra)
        return service.handle(req)

    def assert_alive(self, service):
        resp = self.request(service, "main = 1 + 2")
        assert resp["ok"] and resp["result"]["value"] == "3"

    @pytest.mark.parametrize(
        "name,source",
        [(n, s) for n, s in ADVERSARIAL_CORPUS
         if n not in ("deep_recursion_ok",)],
        ids=[n for n, _ in ADVERSARIAL_CORPUS
             if n not in ("deep_recursion_ok",)])
    def test_corpus_round_trip(self, service, name, source):
        resp = self.request(service, source)
        assert isinstance(resp, dict) and "ok" in resp
        if not resp["ok"]:
            error = resp["error"]
            assert error["code"] and error["message"]
            assert "pos" in error  # structured position or None
            if error["pos"] is not None:
                assert set(error["pos"]) == {"filename", "line", "column"}
        self.assert_alive(service)

    def test_deep_parens_error_envelope(self, service):
        resp = self.request(service, DEEP_PARENS_UNCLOSED)
        assert not resp["ok"]
        error = resp["error"]
        assert error["code"] == "limit"
        assert error["limit"] == "max_parse_depth"
        assert error["pos"]["line"] == 1
        assert error["type"] == "ResourceLimitError"
        self.assert_alive(service)

    def test_error_codes_are_counted(self, service):
        before = service.metrics.snapshot()["counters"].get(
            "errors.parse", 0)
        self.request(service, "main = (((")
        after = service.metrics.snapshot()["counters"].get(
            "errors.parse", 0)
        assert after == before + 1

    def test_malformed_requests_survive(self, service):
        assert not service.handle([1, 2, 3])["ok"]
        assert not service.handle({"op": "nope", "id": 9})["ok"]
        assert not service.handle({})["ok"]
        self.assert_alive(service)


class TestProtocolFuzz:
    """The protocol stage of the fuzz harness (``run_fuzz --protocol``)
    at a small burst size."""

    def test_every_line_before_shutdown_gets_one_stable_reply(self):
        codes = run_protocol(seed=0, count=60)
        assert codes.get("ok") and codes.get("protocol"), codes
        assert "internal" not in codes, codes

    def test_invariant_catches_a_missing_reply(self):
        shutdown = {"id": "shutdown", "ok": True,
                    "result": {"shutting_down": True}}
        with pytest.raises(AssertionError, match="0 replies"):
            check_replies([0], 1, [shutdown])
        check_replies([0], 1, [{"id": 0, "ok": True, "result": {}},
                               shutdown])
