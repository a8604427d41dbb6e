"""Compiler configuration.

Every optimisation and language rule the paper discusses as a choice is
a flag here, so that the benchmarks can run controlled ablations:

* ``dict_layout`` / ``single_slot_opt`` — section 8.1 (nested vs
  flattened dictionaries; bare dictionaries for single-slot classes);
* ``monomorphism_restriction`` — section 8.7;
* ``defaulting`` — section 6.3 case 4;
* ``overload_literals`` — whether integer literals go through
  ``fromInteger`` (Haskell behaviour) or are monomorphic ``Int``;
* ``hoist_dictionaries`` — section 8.8 (float dictionary construction
  out of lambdas; the full-laziness cure for repeated construction);
* ``inner_entry_points`` — sections 6.3/7 (avoid passing dictionaries
  to recursive calls by entering past the dictionary lambda);
* ``specialize`` — section 9 (type-specific clones of overloaded
  functions at constant dictionaries);
* ``constant_dict_reduction`` — section 8.4 (overloaded local functions
  used at a single overloading collapse to that overloading);
* ``call_by_need`` — the evaluator's sharing mode; switching it off
  (call-by-name) reproduces the "implementation that is not fully lazy"
  whose repeated dictionary construction motivates section 8.8.

The resource limits and the service settings that follow them are
here because some caller sets them.  A service setting that no caller
varies is a constant of the module that reads it (the server's queue
depth and expression-memo size, the drain grace, the timeout ceiling,
the ``jobs`` a module build echoes and the provenance minimization
cap; see docs/SERVICE.md, "Fixed values").
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace

#: Fields of :class:`CompilerOptions` that configure the compilation
#: *service* (cache sizing, server transport) or the development
#: harness rather than the compiler's output.  They are excluded from
#: :func:`options_fingerprint` so that, e.g., resizing the cache — or
#: turning the core lint on — does not invalidate every cached
#: program.  (``lint`` belongs here precisely because it never changes
#: what is compiled, only whether the result is verified; note the
#: corollary that a compile-cache hit skips the lint.)  Each one has
#: a second value in use, is a deployment setting, or protects the
#: server from its input.
SERVICE_OPTION_FIELDS = (
    "cache_size",
    "cache_dir",
    "cache_disk_budget",
    "server_host",
    "server_port",
    "server_shards",
    "server_rate_limit",
    "request_timeout",
    "lint",
    # Provenance only changes how *failures* are reported (positions on
    # diagnostics), never what a successful compile produces, so it must
    # not invalidate cached programs.
    "constraint_provenance",
)


def _lint_default() -> bool:
    """Core lint defaults off; ``REPRO_LINT=1`` in the environment turns
    it on for every compilation in the process — that is how CI runs
    the whole tier-1 suite under the lint without threading a flag
    through every test."""
    return os.environ.get("REPRO_LINT", "") not in ("", "0")


@dataclass
class CompilerOptions:
    # ---- language rules
    monomorphism_restriction: bool = True
    defaulting: bool = True
    overload_literals: bool = True
    #: constraint solver: "reduce" (§5 context reduction, repro.solver)
    #: is the only accepted value; compilation rejects any other with a
    #: ValueError.  The field stays so that existing callers that pass
    #: it keep working, and it keeps its place in the options
    #: fingerprint, which leaves every cache key unchanged.
    solver: str = "reduce"

    # ---- dictionary representation (section 8.1)
    dict_layout: str = "nested"  # "nested" | "flat"
    single_slot_opt: bool = True

    # ---- optimisations
    hoist_dictionaries: bool = True       # section 8.8
    inner_entry_points: bool = True       # sections 6.3 / 7
    specialize: bool = False              # section 9
    #: §9 at link time: clone overloaded calls that cross a module
    #: boundary, using the unfoldings shipped in ``.ri`` interfaces.
    #: Fires only in linked (multi-module) builds; single-file
    #: compilation is unaffected.
    specialize_xmodule: bool = True
    #: maximum number of clones one specialisation pass may create
    #: (was the module constant CLONE_BUDGET); exhaustion emits a
    #: structured ``spec.budget-exhausted`` warning
    specialize_budget: int = 400
    constant_dict_reduction: bool = False  # section 8.4

    # ---- evaluator
    call_by_need: bool = True
    eval_step_limit: int = 0  # 0 = unlimited

    # ---- resource limits (crash containment; 0 = unlimited)
    # Budgets fire as located ResourceLimitError long before the Python
    # stack is in danger; raise them (e.g. --set max_parse_depth=2000)
    # for batch workloads with unusually deep inputs.  See docs/SERVICE.md.
    max_parse_depth: int = 300      # parser expression/pattern/type nesting
    max_type_depth: int = 10_000    # unifier worklist depth
    eval_depth_limit: int = 200_000  # evaluator nesting (non-tail calls)

    # ---- compilation service (repro.service)
    cache_size: int = 64          # in-memory compile cache capacity
    cache_dir: str = ""           # "" = memory only; a path enables disk cache
    cache_disk_budget: int = 0    # max bytes for the disk tier (0 = unlimited)
    server_host: str = "127.0.0.1"
    server_port: int = 0          # 0 = pick an ephemeral port
    #: worker *processes* behind the async front; 0 = in-process
    #: threads (no sharding), N > 0 = N processes, each with its own
    #: prelude snapshot + compile cache, sharded by content hash
    server_shards: int = 0
    #: per-connection token-bucket rate limit, requests/second
    #: (0 = unlimited; burst twice the rate); excess requests fail
    #: ``service.rate-limited``
    server_rate_limit: float = 0.0
    request_timeout: float = 10.0  # per-request budget, seconds (0 = none)

    # ---- development harness
    #: run the core lint (repro.coreir.lint) on the output of every
    #: pipeline pass; CLI --lint / env REPRO_LINT=1
    lint: bool = field(default_factory=_lint_default)
    #: track constraint origins during inference and, on a type error,
    #: minimize the recorded constraint set into a multi-location
    #: ``positions`` diagnostic (docs/SERVICE.md); also rolls failed
    #: inference episodes back, keeping shared inferencers clean.
    #: Sets larger than ``repro.core.unify.DEFAULT_MINIMIZE_CAP`` are
    #: not minimized.
    constraint_provenance: bool = True

    def with_(self, **kwargs) -> "CompilerOptions":
        """A copy with some fields replaced (ablation helper)."""
        return replace(self, **kwargs)


def options_fingerprint(options: CompilerOptions) -> str:
    """A stable digest of every option that can change compilation
    output.  Two option sets with the same fingerprint produce the same
    compiled program for the same source, so the fingerprint is a
    component of the compile-cache key (service-only fields are left
    out; see :data:`SERVICE_OPTION_FIELDS`)."""
    relevant = {name: value for name, value in sorted(vars(options).items())
                if name not in SERVICE_OPTION_FIELDS}
    blob = json.dumps(relevant, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The configuration closest to the paper's "naive translation": no
#: hoisting, no inner entry points, no specialisation.
NAIVE = CompilerOptions(hoist_dictionaries=False, inner_entry_points=False,
                        specialize=False, constant_dict_reduction=False)

#: Everything on.
OPTIMIZED = CompilerOptions(hoist_dictionaries=True, inner_entry_points=True,
                            specialize=True, constant_dict_reduction=True)
