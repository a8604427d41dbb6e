"""The link-time cross-module specializer.

Runs as the ``specialize-xmodule`` pipeline pass, after
:func:`repro.modules.build.link_modules` has concatenated the module
cores.  The linker supplies two maps the whole-program pass does not
have:

* ``origins`` — which module defined each top-level binding (prelude
  bindings and link-generated selectors map to
  :data:`~repro.transform.specialize.PRELUDE_ORIGIN`);
* ``unfoldings`` — the merged ``name -> Unfolding`` from every linked
  interface.

Only call sites whose caller and callee origins differ become clone
roots, and callee bodies from user modules come from the unfoldings —
so the rewrite is exactly the one a linker working from ``.ri`` files
alone could perform.  Prelude bindings call only the prelude and their
own local binders, so the pass leaves them unwalked and its cost
follows the user's modules, not the prelude.  Clone provenance is
recorded on each generated binding and shows in
``--dump-after=specialize-xmodule``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.coreir.syntax import CoreProgram
from repro.transform.specialize import (
    CLONE_BUDGET,
    SpecializeReport,
    Specializer,
)


def xmodule_specialize(program: CoreProgram,
                       origins: Mapping[str, str],
                       unfoldings: Optional[Mapping[str, object]] = None,
                       budget: int = CLONE_BUDGET
                       ) -> Tuple[CoreProgram, SpecializeReport]:
    """Clone cross-module overloaded calls at constant dictionaries;
    returns the rewritten program and a report (clone count, budget
    exhaustion) for the phase trace and warnings."""
    spec = Specializer(program, budget=budget, origin=origins,
                       unfoldings=unfoldings, xmodule_only=True)
    rewritten = spec.run()
    return rewritten, spec.report
