"""Process-safety primitives: depth budgets and recursion fences.

The compiler is hosted in long-lived processes (the compile server, the
REPL) where "a pathological input crashed the interpreter" is an outage,
not an inconvenience.  Two mechanisms keep every recursive engine inside
the :class:`~repro.errors.ReproError` family:

* **Depth budgets** (:class:`DepthGuard`): recursive traversals count
  their nesting depth and raise :class:`~repro.errors.ResourceLimitError`
  — with a source position when one is at hand — long before the Python
  stack is in danger.  Budgets are configurable per phase through
  :class:`~repro.options.Options` so batch workloads can raise them.

* **Recursion fences** (:func:`recursion_fence`): a catch-all at phase
  boundaries that converts an escaped ``RecursionError`` (raised by
  CPython *after* the offending frames have unwound, so handling it is
  safe) into a located ``ResourceLimitError``.  Budgets are the primary
  defence; the fence guarantees the invariant even for code paths a
  budget does not cover.

:func:`ensure_recursion_headroom` backs the budgets: it raises the
process-wide recursion limit just enough that a guarded traversal hits
its *budget* (a clean, deterministic error) rather than CPython's limit.
The headroom is deliberately modest — far below the 400k/1M settings
that are only safe on the dedicated big-stack threads spawned by
:func:`repro.coreir.eval.with_big_stack`.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ResourceLimitError, SourcePos

# Default budgets; Options mirrors these so they are per-compilation
# configurable (repro run --set max_parse_depth=... etc.).
DEFAULT_PARSE_DEPTH = 300
DEFAULT_TYPE_DEPTH = 10_000
DEFAULT_TRANSFORM_DEPTH = 2_000
DEFAULT_EVAL_DEPTH = 200_000
#: Context-reduction fuel: goals one ``ReduceSolver.solve`` call may pop
#: (repro.solver).  Generous — static termination checks make runaway
#: derivations impossible for accepted programs; the fuel is the
#: crash-containment backstop, exhausted only by pathological inputs.
DEFAULT_SOLVER_FUEL = 200_000

#: Recursion-limit floor established at compile entry points.  Sized so
#: the deepest budgeted traversal (a transform at DEFAULT_TRANSFORM_DEPTH,
#: a handful of Python frames per level) exhausts its budget with room to
#: spare, while staying safe on a default 8 MB thread stack.
COMPILE_HEADROOM = 50_000


def ensure_recursion_headroom(frames: int = COMPILE_HEADROOM) -> None:
    """Raise the interpreter recursion limit to at least *frames*.

    Never lowers it — the big-stack worker pool pins a much higher limit
    for its lifetime and must keep it.
    """
    if sys.getrecursionlimit() < frames:
        sys.setrecursionlimit(frames)


class DepthGuard:
    """A nesting-depth budget shared by one recursive traversal.

    The traversal calls :meth:`enter` on the way down and :meth:`exit`
    on the way up (in a ``try``/``finally``); crossing ``max_depth``
    raises :class:`ResourceLimitError` naming the exhausted knob.  A
    ``max_depth`` of 0 disables the budget.
    """

    __slots__ = ("depth", "max_depth", "limit_name", "what")

    def __init__(self, max_depth: int, limit_name: str, what: str) -> None:
        self.depth = 0
        self.max_depth = max_depth
        self.limit_name = limit_name
        self.what = what

    def enter(self, pos: Optional[SourcePos] = None) -> None:
        self.depth += 1
        if self.max_depth and self.depth > self.max_depth:
            raise ResourceLimitError(
                f"{self.what} exceeded the maximum nesting depth "
                f"({self.max_depth}); raise {self.limit_name} for "
                f"deeply nested inputs",
                pos,
                limit=self.limit_name,
            )

    def exit(self) -> None:
        self.depth -= 1

    @contextmanager
    def guard(self, pos: Optional[SourcePos] = None) -> Iterator[None]:
        self.enter(pos)
        try:
            yield
        finally:
            self.exit()


@contextmanager
def recursion_fence(what: str,
                    pos: Optional[SourcePos] = None) -> Iterator[None]:
    """Convert an escaped ``RecursionError`` inside the block into a
    located :class:`ResourceLimitError` naming the phase *what*."""
    try:
        yield
    except RecursionError:
        raise ResourceLimitError(
            f"Python recursion limit exceeded during {what}; the input "
            f"nests more deeply than the process can handle",
            pos,
            limit="recursionlimit",
        ) from None
