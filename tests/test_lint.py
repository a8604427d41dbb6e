"""Core Lint tests: every check with its pinned ``lint.*`` error code,
the pass-manager mutation test (a deliberately broken transform must be
caught and *named*), and lint-on/lint-off pipeline equivalence."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import CompilerOptions, compile_source
from repro.coreir.lint import dict_tag_class, lint_expr, lint_program
from repro.coreir.syntax import (
    CAlt,
    CCase,
    CCon,
    CDict,
    CLam,
    CLet,
    CLit,
    CoreBinding,
    CoreProgram,
    CSel,
    CTuple,
    CVar,
    Ann,
    capp,
)
from repro.errors import (
    LintAnnotationError,
    LintConArityError,
    LintDictShapeError,
    LintScopeError,
    LintSelError,
    LintShadowError,
    LintTypeError,
)
from repro.pipeline.context import CompileContext
from repro.pipeline.manager import Pass, PassManager
from repro.pipeline.passes import DEFAULT_PASSES, _lint_verifier


def one(expr, **kw) -> CoreProgram:
    return CoreProgram([CoreBinding("t", expr, **kw)])


class TestScope:
    def test_unbound_variable(self):
        with pytest.raises(LintScopeError) as excinfo:
            lint_program(one(CVar("nowhere")))
        assert excinfo.value.code == "lint.scope"
        assert "'nowhere'" in str(excinfo.value)

    def test_bound_and_global_ok(self):
        program = CoreProgram([
            CoreBinding("f", CLam(["x"], CVar("x"))),
            CoreBinding("g", capp(CVar("f"), CVar("f"))),
        ])
        lint_program(program)  # no raise

    def test_primitives_are_global(self):
        lint_program(one(CVar("primEqInt")))

    def test_extra_globals(self):
        with pytest.raises(LintScopeError):
            lint_program(one(CVar("imported")))
        lint_program(one(CVar("imported")), extra_globals=["imported"])

    def test_nonrecursive_let_rhs_cannot_see_binders(self):
        e = CLet([("a", CVar("a"))], CVar("a"), recursive=False)
        with pytest.raises(LintScopeError):
            lint_program(one(e))
        lint_program(one(CLet([("a", CVar("a"))], CVar("a"),
                              recursive=True)))

    def test_exiting_inner_scope_keeps_outer_binder(self):
        # \x -> (let x = 1 in x) x — after the let closes, the lambda's
        # x must still be bound (counting scope map, not a set).
        e = CLam(["x"], capp(
            CLet([("x", CLit(1, "int"))], CVar("x"), recursive=False),
            CVar("x")))
        lint_program(one(e))


class TestShadow:
    def test_duplicate_lambda_params(self):
        with pytest.raises(LintShadowError) as excinfo:
            lint_program(one(CLam(["x", "x"], CVar("x"))))
        assert excinfo.value.code == "lint.shadow"

    def test_duplicate_let_binders(self):
        e = CLet([("a", CLit(1, "int")), ("a", CLit(2, "int"))],
                 CVar("a"), recursive=False)
        with pytest.raises(LintShadowError):
            lint_program(one(e))

    def test_duplicate_alt_binders(self):
        e = CCase(CVar("p"), [CAlt("(,)", ["x", "x"], CVar("x"))],
                  [], None)
        with pytest.raises(LintShadowError):
            lint_program(CoreProgram([
                CoreBinding("p", CTuple([CLit(1, "int"), CLit(2, "int")])),
                CoreBinding("t", e)]))

    def test_nested_shadowing_is_legal(self):
        lint_program(one(CLam(["x"], CLam(["x"], CVar("x")))))

    def test_duplicate_generated_top_level_rejected(self):
        program = CoreProgram([
            CoreBinding("d$C$T", CLit(1, "int"), kind="dict"),
            CoreBinding("d$C$T", CLit(2, "int"), kind="dict"),
        ])
        with pytest.raises(LintShadowError) as excinfo:
            lint_program(program)
        assert "d$C$T" in str(excinfo.value)

    def test_user_redefinition_is_last_wins_legal(self):
        # A program redefining a prelude name: both kind 'user'.
        program = CoreProgram([
            CoreBinding("member", CLit(1, "int")),
            CoreBinding("member", CLit(2, "int")),
        ])
        lint_program(program)


#: programs whose generated names collide: each computed a wrong value
#: with no error while the lint was off
NAME_COLLISIONS = {
    "operator_and_spelled_method": (
        "class C a where\n"
        "  (+++) :: a -> a -> Int\n"
        "  plus_plus_plus :: a -> a -> Int\n"
        "instance C Int where\n"
        "  x +++ y = 1\n"
        "  plus_plus_plus x y = 2\n"
        "main = (3 :: Int) +++ 4\n"),
    "user_list_type": (
        "data List a = Nil | Cons a (List a) deriving Eq\n"
        "main = [1, 2] == [1, 2 :: Int]\n"),
    "user_arrow_type": (
        "class Describe a where\n"
        "  describe :: a -> Int\n"
        "data Arrow a b = MkArrow\n"
        "instance Describe (Arrow a b) where\n"
        "  describe x = 11\n"
        "instance Describe (a -> b) where\n"
        "  describe f = 22\n"
        "main = (describe (MkArrow :: Arrow Int Int),\n"
        "        describe (\\x -> x + (1 :: Int)))\n"),
}


class TestGeneratedNameCollisions:
    """Two generated bindings with one name are rejected whatever the
    lint setting, cold and on a snapshot."""

    @pytest.mark.parametrize("name", sorted(NAME_COLLISIONS))
    @pytest.mark.parametrize("lint", [False, True])
    def test_collision_is_lint_shadow(self, name, lint):
        with pytest.raises(LintShadowError) as excinfo:
            compile_source(NAME_COLLISIONS[name], CompilerOptions(lint=lint))
        assert excinfo.value.code == "lint.shadow"

    @pytest.mark.parametrize("name", sorted(NAME_COLLISIONS))
    def test_collision_on_a_snapshot_fork(self, name):
        from repro.service.snapshot import get_default_snapshot
        options = CompilerOptions(lint=False)
        with pytest.raises(LintShadowError):
            compile_source(NAME_COLLISIONS[name], options,
                           snapshot=get_default_snapshot(options))


class TestConArity:
    def test_constructor_value_arity(self):
        with pytest.raises(LintConArityError) as excinfo:
            lint_program(one(CCon("Just", 2)), con_arity={"Just": 1})
        assert excinfo.value.code == "lint.con-arity"

    def test_alternative_arity(self):
        e = CCase(CVar("m"), [CAlt("Just", ["a", "b"], CVar("a"))],
                  [], None)
        program = CoreProgram([CoreBinding("m", CCon("Nothing", 0)),
                               CoreBinding("t", e)])
        with pytest.raises(LintConArityError):
            lint_program(program, con_arity={"Just": 1, "Nothing": 0})

    def test_tuple_constructors_checked_without_registry(self):
        lint_program(one(CCon("(,)", 2)))
        with pytest.raises(LintConArityError):
            lint_program(one(CCon("(,)", 3)))
        with pytest.raises(LintConArityError):
            lint_program(one(CCon("(,,)", 2)))

    def test_unknown_constructor_unchecked(self):
        lint_program(one(CCon("Mystery", 5)))


class TestSel:
    def test_index_out_of_bounds(self):
        with pytest.raises(LintSelError) as excinfo:
            lint_program(one(CSel(2, 2, CVar("t"), from_dict=False)))
        assert excinfo.value.code == "lint.sel"

    def test_literal_operand_arity_mismatch(self):
        e = CSel(0, 3, CTuple([CLit(1, "int")]), from_dict=False)
        with pytest.raises(LintSelError):
            lint_program(one(e))

    def test_in_bounds_ok(self):
        e = CSel(1, 2, CTuple([CLit(1, "int"), CLit(2, "int")]),
                 from_dict=False)
        lint_program(one(e))


class TestDictShape:
    @pytest.fixture(scope="class")
    def class_env(self):
        return compile_source("").class_env

    def test_wrong_slot_count_rejected(self, class_env):
        size = class_env.dict_size("Num")
        assert size > 1  # the check is vacuous for bare dicts
        bad = CDict([CLit(0, "int")] * (size - 1), "d$Num$Int")
        with pytest.raises(LintDictShapeError) as excinfo:
            lint_expr(bad, class_env=class_env)
        assert excinfo.value.code == "lint.dict-shape"

    def test_right_slot_count_ok(self, class_env):
        size = class_env.dict_size("Num")
        lint_expr(CDict([CLit(0, "int")] * size, "d$Num$Int"),
                  class_env=class_env)

    def test_unknown_tag_makes_no_claim(self, class_env):
        lint_expr(CDict([CLit(0, "int")], "dict$this"),
                  class_env=class_env)
        lint_expr(CDict([CLit(0, "int")], ""), class_env=class_env)

    def test_tag_parsing(self):
        assert dict_tag_class("d$Eq$Int") == "Eq"
        assert dict_tag_class("d$Text$[]") == "Text"
        assert dict_tag_class("Ord<=Eq") == "Ord"
        assert dict_tag_class("dict$this") is None
        assert dict_tag_class("") is None


class TestAnnotations:
    def test_lambda_anns_must_stay_parallel(self):
        e = CLam(["x", "y"], CVar("x"), [Ann(type="Int")])
        with pytest.raises(LintAnnotationError) as excinfo:
            lint_program(one(e))
        assert excinfo.value.code == "lint.annotation"

    def test_alt_anns_must_stay_parallel(self):
        e = CCase(CVar("m"),
                  [CAlt("Just", ["a"], CVar("a"),
                        [Ann(type="Int"), Ann(type="Bool")])],
                  [], None)
        with pytest.raises(LintAnnotationError):
            lint_program(CoreProgram([CoreBinding("m", CCon("Nothing", 0)),
                                      CoreBinding("t", e)]))

    def test_dict_classes_length_must_match_arity(self):
        b = CoreBinding("f", CLam(["d", "x"], CVar("x")),
                        dict_arity=1, dict_classes=("Eq", "Ord"))
        with pytest.raises(LintAnnotationError):
            lint_program(CoreProgram([b]))

    def test_dict_param_ann_must_agree_with_binding(self):
        b = CoreBinding("f",
                        CLam(["d", "x"], CVar("x"),
                             [Ann(dict_class="Ord"), None]),
                        dict_arity=1, dict_classes=("Eq",))
        with pytest.raises(LintAnnotationError):
            lint_program(CoreProgram([b]))

    def test_consistent_annotations_ok(self):
        b = CoreBinding("f",
                        CLam(["d", "x"], CVar("x"),
                             [Ann(dict_class="Eq"), None]),
                        dict_arity=1, dict_classes=("Eq",))
        lint_program(CoreProgram([b]))


class TestTypeChecks:
    def test_dict_arity_needs_a_lambda(self):
        b = CoreBinding("f", CLit(1, "int"), dict_arity=1)
        with pytest.raises(LintTypeError) as excinfo:
            lint_program(CoreProgram([b]))
        assert excinfo.value.code == "lint.type"

    def test_hoisted_let_over_the_lambda_is_fine(self):
        # hoist-dictionaries may wrap the dictionary lambda in a let of
        # floated constructions.
        b = CoreBinding(
            "f",
            CLet([("hd$1", CLit(0, "int"))],
                 CLam(["d", "x"], CVar("x")), recursive=True),
            dict_arity=1)
        lint_program(CoreProgram([b]))

    def test_scheme_predicates_must_match_dict_arity(self):
        scheme = SimpleNamespace(
            preds=[SimpleNamespace(class_name="Eq")])
        b = CoreBinding("f", CLam(["x"], CVar("x")),
                        dict_arity=0, type_ann=scheme)
        with pytest.raises(LintTypeError):
            lint_program(CoreProgram([b]))

    def test_scheme_classes_must_match_dict_classes(self):
        scheme = SimpleNamespace(
            preds=[SimpleNamespace(class_name="Ord")])
        b = CoreBinding("f", CLam(["d", "x"], CVar("x")),
                        dict_arity=1, type_ann=scheme,
                        dict_classes=("Eq",))
        with pytest.raises(LintTypeError):
            lint_program(CoreProgram([b]))

    def test_matching_scheme_ok(self):
        scheme = SimpleNamespace(
            preds=[SimpleNamespace(class_name="Eq")])
        b = CoreBinding("f", CLam(["d", "x"], CVar("x")),
                        dict_arity=1, type_ann=scheme,
                        dict_classes=("Eq",))
        lint_program(CoreProgram([b]))


class TestErrorEnvelope:
    def test_json_carries_pass_and_binding(self):
        with pytest.raises(LintScopeError) as excinfo:
            lint_program(one(CVar("ghost")), pass_name="specialize")
        out = excinfo.value.to_json()
        assert out["code"] == "lint.scope"
        assert out["pass"] == "specialize"
        assert out["binding"] == "t"
        assert "after pass 'specialize'" in out["message"]
        assert "in binding 't'" in out["message"]


# ---------------------------------------------------------------------------
# The mutation test: a deliberately broken transform must be caught
# ---------------------------------------------------------------------------


def _run_with_bad_pass(bad_fn):
    """Append a broken transform to the registered sequence and compile
    a tiny program with the lint on."""
    options = CompilerOptions(overload_literals=False)
    options.lint = True
    manager = PassManager(
        tuple(DEFAULT_PASSES) + (Pass("bad-transform", bad_fn,
                                      doc="deliberately broken"),),
        verifier=_lint_verifier)
    ctx = CompileContext.fresh(
        options, [("ident x = x\nmain = ident 1", "<mutation>")])
    manager.run(ctx)


class TestMutation:
    def test_scope_breaking_transform_is_named(self):
        def bad(ctx):
            last = ctx.core.bindings[-1]
            ctx.core.bindings[-1] = replace(
                last, expr=CVar("never$bound$anywhere"))

        with pytest.raises(LintScopeError) as excinfo:
            _run_with_bad_pass(bad)
        assert excinfo.value.pass_name == "bad-transform"
        assert "after pass 'bad-transform'" in str(excinfo.value)

    def test_annotation_breaking_transform_is_named(self):
        def bad(ctx):
            for i, b in enumerate(ctx.core.bindings):
                if isinstance(b.expr, CLam):
                    # Drop a parameter but keep the annotation list.
                    lam = b.expr
                    ctx.core.bindings[i] = replace(
                        b, expr=CLam(lam.params + ["extra"], lam.body,
                                     (lam.anns or [None] * len(lam.params))))
                    return

        with pytest.raises(LintAnnotationError) as excinfo:
            _run_with_bad_pass(bad)
        assert excinfo.value.pass_name == "bad-transform"

    def test_unbroken_pipeline_is_clean(self):
        def noop(ctx):
            pass

        _run_with_bad_pass(noop)  # no raise


# ---------------------------------------------------------------------------
# Lint-on / lint-off equivalence over the pipeline corpus
# ---------------------------------------------------------------------------


from tests.test_corpus import RUNNABLE  # noqa: E402


class TestLintEquivalence:
    """The lint is a verifier, never a transform: with it on, every
    program compiles to the identical core and runs to the identical
    value (and the trace gains a 'lint' row)."""

    @pytest.mark.parametrize("source,expected", RUNNABLE,
                             ids=[f"run{i}" for i in range(len(RUNNABLE))])
    def test_same_core_and_value(self, source, expected):
        plain = CompilerOptions()
        plain.lint = False
        linted = CompilerOptions()
        linted.lint = True
        p0 = compile_source(source, plain)
        p1 = compile_source(source, linted)
        assert p0.dump_core() == p1.dump_core()
        assert p1.run("main") == expected
        assert "lint" in p1.compile_stats.phases.names()
        assert "lint" not in p0.compile_stats.phases.names()

    def test_optimized_options_equivalent(self):
        source = RUNNABLE[3][0]  # the fib program
        base = CompilerOptions(constant_dict_reduction=True,
                               specialize=True)
        base.lint = False
        linted = CompilerOptions(constant_dict_reduction=True,
                                 specialize=True)
        linted.lint = True
        p0 = compile_source(source, base)
        p1 = compile_source(source, linted)
        assert p0.dump_core() == p1.dump_core()
        assert p0.run("main") == p1.run("main")
