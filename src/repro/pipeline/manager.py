"""The pass manager: one instrumented spine for every compilation.

A :class:`Pass` is a named unit of pipeline work with an options
predicate; a :class:`PassManager` executes a registered sequence of
passes over a :class:`~repro.pipeline.context.CompileContext`, timing
every invocation into the context's
:class:`~repro.pipeline.context.PhaseTrace`.

Two pass shapes exist:

* **per-unit** passes (``per_unit=True``) run once per source unit —
  the front end (parse, desugar, static analysis, method installation,
  inference) must process the prelude completely before the user
  program, because inference of unit *n* depends on the environments
  units ``0..n-1`` built.  Consecutive per-unit passes therefore form a
  stage that loops unit-outermost, reproducing the seed driver's
  interleaving exactly;
* **whole-program** passes run once (translation, selector generation,
  the §8/§9 core transforms).

Entry points choose how much of the sequence to run:

* ``run(ctx)`` — the whole pipeline (driver, snapshot fork);
* ``run(ctx, stop_after="translate")`` — a prefix
  (:meth:`PreludeSnapshot.build` stops before selectors and
  optimisation so forks can re-run the shared tail over the full
  program).

An *observer* — ``callable(pass_name, ctx)`` — fires after each pass
completes (after its last unit, for per-unit passes); the CLI's
``--dump-after`` hangs off it.

A *verifier* — also ``callable(pass_name, ctx)``, but installed on the
manager at construction — runs at the same points, *before* any
observer, and is expected to raise when a pass has broken an
invariant.  The core lint (``repro.coreir.lint``) is installed this
way by :func:`repro.pipeline.passes.default_pass_manager`, so with
``options.lint`` every pass boundary in every compilation (driver,
snapshot fork, server, module build) is checked.  Verifier time is
recorded in the trace under ``"lint"``, keeping pass timings honest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import KindError
from repro.limits import ensure_recursion_headroom, recursion_fence
from repro.options import CompilerOptions
from repro.pipeline.context import CompileContext, SourceUnit


def _always(_options: CompilerOptions) -> bool:
    return True


def _any_context(_ctx: CompileContext) -> bool:
    return True


class UnknownPassError(ValueError):
    """A pass name that is not in the registered sequence."""

    def __init__(self, name: str, names: Sequence[str]) -> None:
        super().__init__(
            f"unknown pass {name!r}; registered passes: {', '.join(names)}")
        self.name = name
        self.names = list(names)


@dataclass(frozen=True)
class Pass:
    """One named pipeline stage.

    ``run`` receives ``(ctx)`` for whole-program passes and
    ``(ctx, unit)`` for per-unit passes.  ``enabled`` gates the pass on
    the compilation options; ``applies`` additionally gates it on the
    live context (e.g. the link-time specializer only applies when the
    linker armed it with module origins).  Passes failing either gate
    are skipped entirely and never appear in the trace.  ``doc`` names
    the paper section the pass realises, for ``--time-passes`` readers.

    ``per_binding`` marks a whole-program pass that rewrites each
    top-level binding on its own, so the prelude's share of its output
    is the same for every program: a prelude snapshot computes that
    share once (:meth:`repro.service.snapshot.PreludeSnapshot.
    transformed`) and the pass splices it in through
    :meth:`CompileContext.done`.
    """

    name: str
    run: Callable[..., None]
    per_unit: bool = False
    per_binding: bool = False
    enabled: Callable[[CompilerOptions], bool] = field(default=_always)
    applies: Callable[[CompileContext], bool] = field(default=_any_context)
    doc: str = ""


class PassManager:
    """Executes a pass sequence over a context, recording a trace."""

    def __init__(self, passes: Sequence[Pass],
                 verifier: Optional[
                     Callable[[str, CompileContext], object]] = None) -> None:
        names = [p.name for p in passes]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate pass names: {sorted(dupes)}")
        self.passes: List[Pass] = list(passes)
        self.verifier = verifier

    # -------------------------------------------------------- introspection

    def names(self) -> List[str]:
        return [p.name for p in self.passes]

    def describe(self) -> List[Tuple[str, str]]:
        """(name, doc) for every registered pass, in order."""
        return [(p.name, p.doc) for p in self.passes]

    # ------------------------------------------------------------ execution

    def run(self, ctx: CompileContext,
            stop_after: Optional[str] = None,
            observer: Optional[Callable[[str, CompileContext], None]] = None
            ) -> CompileContext:
        """Execute the sequence (or its prefix up to *stop_after*)."""
        ensure_recursion_headroom()
        if stop_after is not None and stop_after not in self.names():
            raise UnknownPassError(stop_after, self.names())
        for group in self._stages():
            stop_here = False
            if stop_after is not None:
                group_names = [p.name for p in group]
                if stop_after in group_names:
                    group = group[:group_names.index(stop_after) + 1]
                    stop_here = True
            enabled = [p for p in group
                       if p.enabled(ctx.options) and p.applies(ctx)]
            if group and group[0].per_unit:
                for i, unit in enumerate(ctx.units):
                    last = i == len(ctx.units) - 1
                    for p in enabled:
                        self._run_pass(p, ctx, unit)
                        if last:
                            self._verify(p.name, ctx)
                            if observer is not None:
                                observer(p.name, ctx)
            else:
                for p in enabled:
                    self._run_pass(p, ctx, None)
                    self._verify(p.name, ctx)
                    if observer is not None:
                        observer(p.name, ctx)
            if stop_here:
                break
        ctx.trace.finish(ctx.inferencer.unifier)
        return ctx

    def _stages(self) -> List[List[Pass]]:
        """The sequence as maximal runs of same-shaped passes: each run
        of consecutive per-unit passes forms one unit-outer stage."""
        stages: List[List[Pass]] = []
        for p in self.passes:
            if stages and stages[-1][0].per_unit and p.per_unit:
                stages[-1].append(p)
            else:
                stages.append([p])
        return stages

    def _run_pass(self, p: Pass, ctx: CompileContext,
                  unit: Optional[SourceUnit]) -> None:
        t0 = time.perf_counter()
        try:
            # The fence is the catch-all beneath the per-engine depth
            # budgets: whatever slips past them surfaces as a located
            # ResourceLimitError naming the pass, never a raw
            # RecursionError out of a long-lived host.
            with recursion_fence(f"the '{p.name}' pass"):
                if p.per_unit:
                    p.run(ctx, unit)
                else:
                    p.run(ctx)
        except KindError as exc:
            if ctx.options.constraint_provenance:
                exc.locate()
            raise
        finally:
            ctx.trace.record(p.name, time.perf_counter() - t0)

    def _verify(self, pass_name: str, ctx: CompileContext) -> None:
        # The verifier returns truthy when it actually checked
        # something; a disabled or not-yet-applicable verifier leaves
        # no "lint" row in the trace.
        if self.verifier is None:
            return
        t0 = time.perf_counter()
        with recursion_fence(f"verifying the '{pass_name}' pass"):
            ran = self.verifier(pass_name, ctx)
        if ran:
            ctx.trace.record("lint", time.perf_counter() - t0)
