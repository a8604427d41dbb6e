"""The instrumented pass manager — the compile pipeline's single spine.

Every entry point (``repro.driver.compile_source``, the prelude
snapshot builder, the compile server's warm path) runs the same
registered pass sequence through a
:class:`~repro.pipeline.manager.PassManager` over a
:class:`~repro.pipeline.context.CompileContext`, producing a
:class:`~repro.pipeline.context.PhaseTrace` of per-pass wall time.
"""

from repro.pipeline.context import (
    CompileContext,
    PassTiming,
    PhaseTrace,
    SourceUnit,
    TransformedPrefix,
)
from repro.pipeline.manager import Pass, PassManager, UnknownPassError
from repro.pipeline.passes import (
    DEFAULT_PASSES,
    TRANSLATE,
    default_pass_manager,
    pass_names,
)

__all__ = [
    "CompileContext",
    "DEFAULT_PASSES",
    "Pass",
    "PassManager",
    "PassTiming",
    "PhaseTrace",
    "SourceUnit",
    "TRANSLATE",
    "TransformedPrefix",
    "UnknownPassError",
    "default_pass_manager",
    "pass_names",
]
