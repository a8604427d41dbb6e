"""Constraint provenance and minimal unsatisfiable sets.

The acceptance corpus: programs with *known* conflicting source
spans.  For each, the reported ``positions`` must contain the true
conflict site, and across the corpus the deletion-minimized core must
be strictly smaller than the full recorded constraint set for at least
half the programs — the point of minimization (Stuckey/Sulzmann-style
"minimal unsatisfiable subsets") over naively reporting every
constraint the inference run touched.
"""

from __future__ import annotations

import pytest

from repro import CompilerOptions, compile_source
from repro.core.types import T_BOOL, T_INT, TyVar, fn_type, prune
from repro.core.unify import Unifier
from repro.errors import ReproError, SourcePos, UnificationError

from tests.test_unify import make_class_env

#: (name, program, (line, column, reason) that MUST appear in
#: ``positions``) — the true conflicting span, hand-verified.
CORPUS = [
    ("app-arg",
     "f :: Int -> Int\nf x = x\nmain = f 'c'",
     (3, 8, "application")),
    ("annotation",
     "main = (True :: Int)",
     (1, 9, "annotation")),
    ("if-branches",
     "f b = if b then 'a' else False",
     (1, 7, "if-branches")),
    ("condition",
     "g = if 'c' then 1 else 2",
     (1, 5, "condition")),
    ("instance-method",
     "class C a where\n  m :: a -> Int\ndata T = T\n"
     "instance C T where\n  m x = 'c'",
     (5, 3, "instance-method")),
    ("class-default",
     "class C a where\n  m :: a -> Int\n  m x = False",
     (3, 3, "class-default")),
    ("signature",
     "f :: a -> a\nf x = x + x",
     (2, 1, "annotation")),
    ("superclass",
     "class Eq a => MyOrd a where\n  cmp :: a -> a -> Bool\n"
     "data T = T\ninstance MyOrd T where\n  cmp x y = True\n"
     "main = cmp T T",
     (4, 1, "error-site")),
    ("minimal-core",
     "f x = (x && True, x + 1, f, f, f)",
     (1, 21, "application")),
    ("pattern",
     "f (x:xs) = x\nmain = f True",
     (2, 8, "application")),
    ("occurs",
     "f x = x x",
     (1, 7, "application")),
    ("case-branches",
     "h :: Bool -> Int\nh b = b\nf x = case x of\n"
     "  True -> 'a'\n  False -> False",
     (2, 5, "case-branches")),
    ("no-instance",
     "data T = T\nmain = T == T",
     (2, 10, "application")),
    ("tuple-wide",
     "f a b c = (a + 1, b ++ [a], c && True, b, b, c)\n"
     "bad = f 1 [1] 'x'",
     (2, 7, "application")),
]


def capture(source: str,
            options: CompilerOptions = None) -> ReproError:
    try:
        compile_source(source, options)
    except ReproError as exc:
        return exc
    pytest.fail("expected a compile error")


class TestCorpus:
    @pytest.mark.parametrize("name,source,span",
                             [(n, s, p) for n, s, p in CORPUS],
                             ids=[n for n, _, _ in CORPUS])
    def test_true_span_is_reported(self, name, source, span):
        exc = capture(source)
        line, column, reason = span
        reported = [(p.pos.line, p.pos.column, p.reason)
                    for p in exc.positions]
        assert (line, column, reason) in reported, \
            f"{name}: expected {span} among {reported}"

    @pytest.mark.parametrize("name,source",
                             [(n, s) for n, s, _ in CORPUS],
                             ids=[n for n, _, _ in CORPUS])
    def test_every_diagnostic_has_positions(self, name, source):
        exc = capture(source)
        assert exc.positions, f"{name}: no positions on {exc}"
        data = exc.to_json()
        assert data["positions"], name
        for entry in data["positions"]:
            assert set(entry) == {"filename", "line", "column", "reason"}

    def test_minimization_shrinks_majority_of_corpus(self):
        # The headline property: the minimal unsatisfiable core is
        # strictly smaller than the recorded constraint pool for at
        # least half the corpus (programs whose pool is already
        # minimal — a single failing constraint — cannot shrink).
        shrunk = 0
        for name, source, _span in CORPUS:
            exc = capture(source)
            pool = exc.constraint_pool_size
            core = exc.unsat_core_size
            assert core <= pool, name
            if core < pool:
                shrunk += 1
        assert shrunk * 2 >= len(CORPUS), \
            f"only {shrunk}/{len(CORPUS)} programs shrank"

    def test_minimal_core_pins_both_conflict_sites(self):
        # f is used at Bool (x && True) and at Num (x + 1): the
        # minimal explanation is exactly those two applications, out
        # of a pool that also records the other uses of f.
        exc = capture("f x = (x && True, x + 1, f, f, f)")
        spans = [(p.pos.line, p.pos.column, p.reason)
                 for p in exc.positions]
        assert spans == [(1, 10, "application"), (1, 21, "application")]
        assert exc.constraint_pool_size == 4
        assert exc.unsat_core_size == 2


class TestProvenanceToggle:
    """``constraint_provenance=False`` must change reporting only —
    never the accept/reject verdict or the error code."""

    @pytest.mark.parametrize("name,source",
                             [(n, s) for n, s, _ in CORPUS],
                             ids=[n for n, _, _ in CORPUS])
    def test_verdict_is_identical(self, name, source):
        on = capture(source)
        off = capture(source,
                      CompilerOptions(constraint_provenance=False))
        assert type(on).code == type(off).code, name
        assert (on.pos.line, on.pos.column) \
            == (off.pos.line, off.pos.column), name

    def test_off_means_no_recorded_positions(self):
        exc = capture("main = (True :: Int)",
                      CompilerOptions(constraint_provenance=False))
        assert exc.positions == []
        # the primary position is untouched by the toggle
        assert exc.pos is not None

    def test_accepted_programs_unaffected(self):
        source = "f :: Num a => a -> a\nf x = x + x\nmain = f 2"
        on = compile_source(source)
        off = compile_source(
            source, CompilerOptions(constraint_provenance=False))
        assert str(on.schemes["f"]) == str(off.schemes["f"])
        assert on.run("main") == off.run("main")


#: One ill-kinded program per place a type expression is kind-checked,
#: with the primary span of its ``kind`` error.
KIND_ERRORS = [
    ("class-method",
     "class B f where\n  one :: f a -> Int\n  two :: f a b -> Int\n",
     (3, 10)),
    ("type-signature", "bad :: Maybe -> Int\nbad x = 0\n", (1, 8)),
    ("instance-head",
     "class C f where\n  cm :: f a -> Int\ninstance C Int where\n"
     "  cm x = 0\n", (3, 1)),
    ("annotation", "main = (1 :: Maybe)\n", (1, 14)),
    ("data-field", "data T = T Maybe\n", (1, 10)),
]


class TestKindErrorPositions:
    """Kind errors name their own site in ``positions``, as type errors
    do through the unifier's ``error-site`` fallback."""

    @pytest.mark.parametrize("name,source,span", KIND_ERRORS,
                             ids=[n for n, _, _ in KIND_ERRORS])
    def test_site_is_a_position(self, name, source, span):
        exc = capture(source)
        assert type(exc).code == "kind"
        assert (exc.pos.line, exc.pos.column) == span
        assert [(p.pos.line, p.pos.column, p.reason)
                for p in exc.positions] == [(*span, "error-site")]
        # pretty() skips a position equal to the primary one
        assert exc.pretty(source) == capture(
            source, CompilerOptions(constraint_provenance=False)
        ).pretty(source)

    @pytest.mark.parametrize("name,source,span", KIND_ERRORS,
                             ids=[n for n, _, _ in KIND_ERRORS])
    def test_off_means_no_positions(self, name, source, span):
        exc = capture(source, CompilerOptions(constraint_provenance=False))
        assert exc.positions == []


class TestUnifyPathPositions:
    """Satellite: the propagation entry points used to be called with
    ``pos=None`` and produced position-less errors; they now fall back
    to the nearest enclosing unification's span."""

    def test_propagate_classes_inherits_nearest_pos(self):
        from repro.errors import NoInstanceError
        unifier = Unifier(make_class_env())
        pos = SourcePos(7, 3, "here.mhs")
        unifier.unify(T_INT, T_INT, pos)  # establishes the nearest span
        with pytest.raises(NoInstanceError) as excinfo:
            # pos=None: exercised the old silent default — no Eq
            # instance for the function tycon
            unifier.propagate_classes(["Eq"], fn_type(T_INT, T_BOOL))
        assert excinfo.value.pos == pos

    def test_no_instance_error_carries_position(self):
        exc = capture("data T = T\nmain = T == T")
        assert exc.pos is not None
        assert exc.positions
        assert all(p.pos is not None for p in exc.positions)

    def test_occurs_error_carries_position(self):
        exc = capture("f x = x x")
        assert exc.pos is not None and exc.positions

    def test_direct_unify_with_pos_none_uses_nearest(self):
        unifier = Unifier(make_class_env())
        pos = SourcePos(9, 5, "near.mhs")
        a = TyVar()
        unifier.unify(a, T_INT, pos)
        with pytest.raises(UnificationError) as excinfo:
            unifier.unify(T_INT, T_BOOL)  # pos=None
        assert excinfo.value.pos == pos

    def test_instantiate_tyvar_with_pos_none_uses_nearest(self):
        unifier = Unifier(make_class_env())
        pos = SourcePos(2, 2, "inst.mhs")
        unifier.unify(T_INT, T_INT, pos)
        var = TyVar()
        with pytest.raises(Exception) as excinfo:
            # occurs failure through instantiate_tyvar, no pos given
            unifier.instantiate_tyvar(var, fn_type(var, T_INT))
        assert getattr(excinfo.value, "pos", None) == pos


class TestEpisodeRollback:
    """A failed (or speculative) unification inside an episode must
    not leave partial substitutions behind."""

    def test_try_unify_rolls_back_on_failure(self):
        unifier = Unifier(make_class_env())
        with unifier.episode():
            a, b = TyVar(), TyVar()
            ok = unifier.try_unify(fn_type(a, b), fn_type(T_INT, T_BOOL),
                                   SourcePos(1, 1))
            assert ok
            assert prune(a) is T_INT
            # (c -> Int) vs (Bool -> Bool): c gets bound to Bool before
            # the Int/Bool mismatch is discovered; the failed attempt
            # must undo the binding (defaulting relies on this).
            c = TyVar()
            ok = unifier.try_unify(fn_type(c, T_INT),
                                   fn_type(T_BOOL, T_BOOL),
                                   SourcePos(1, 1))
            assert not ok
            assert prune(c) is c, "failed try_unify left a substitution"
            # successful speculation earlier in the episode survives
            assert prune(a) is T_INT

    def test_episode_failure_undoes_bindings(self):
        unifier = Unifier(make_class_env())
        outside = TyVar()
        unifier.unify(outside, T_INT, SourcePos(1, 1))
        inside = TyVar()
        with pytest.raises(UnificationError):
            with unifier.episode():
                unifier.unify(inside, T_BOOL, SourcePos(2, 2))
                unifier.unify(inside, T_INT, SourcePos(3, 3))
        # the episode's bindings are rolled back...
        assert prune(inside) is inside
        # ...and pre-episode state is untouched
        assert prune(outside) is T_INT

    def test_error_positions_are_deduplicated(self):
        exc = capture("f x = (x && True, x + 1, f, f, f)")
        spans = [(p.pos, p.reason) for p in exc.positions]
        assert len(spans) == len(set(spans))
