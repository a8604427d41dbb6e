"""Command-line interface.

    python -m repro run program.mhs            # run main
    python -m repro run program.mhs -e 'f 3'   # evaluate an expression
    python -m repro check program.mhs          # types + warnings only
    python -m repro core program.mhs           # dump translated core
    python -m repro build src/ --run           # multi-module build + link
    python -m repro repl                       # interactive session
    python -m repro serve --port 7433          # long-lived compile server
    python -m repro batch a.mhs b.mhs -e main  # many files, shared cache

Every option of :class:`repro.options.CompilerOptions` is reachable via
``--set name=value`` so the paper's ablations can be driven from the
shell, e.g. ``--set hoist_dictionaries=false --set dict_layout=flat``.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional

from repro.driver import CompiledProgram, compile_source
from repro.errors import ReproError
from repro.options import CompilerOptions


def build_options(settings: List[str],
                  lint: bool = False) -> CompilerOptions:
    options = CompilerOptions()
    if lint:
        options.lint = True
    for setting in settings:
        if "=" not in setting:
            raise SystemExit(f"--set expects name=value, got {setting!r}")
        name, _, raw = setting.partition("=")
        name = name.strip()
        if not hasattr(options, name):
            valid = ", ".join(sorted(vars(options)))
            raise SystemExit(f"unknown option {name!r}; valid: {valid}")
        current = getattr(options, name)
        value: object
        if isinstance(current, bool):
            if raw.lower() in ("1", "true", "yes", "on"):
                value = True
            elif raw.lower() in ("0", "false", "no", "off"):
                value = False
            else:
                raise SystemExit(f"option {name} expects a boolean, "
                                 f"got {raw!r}")
        elif isinstance(current, int):
            try:
                value = int(raw)
            except ValueError:
                raise SystemExit(f"option {name} expects an integer, "
                                 f"got {raw!r}")
        elif isinstance(current, float):
            try:
                value = float(raw)
            except ValueError:
                raise SystemExit(f"option {name} expects a number, "
                                 f"got {raw!r}")
        else:
            value = raw
        setattr(options, name, value)
    return options


def load(path: str, options: CompilerOptions,
         observer=None, with_source: bool = False):
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        program = compile_source(source, options, filename=path,
                                 observer=observer)
    except ReproError as exc:
        print(exc.pretty(source), file=sys.stderr)
        raise SystemExit(1)
    return (program, source) if with_source else program


def print_stats(program: CompiledProgram) -> None:
    s = program.last_stats
    if s is None:
        return
    print(f"-- steps={s.steps} calls={s.fun_calls} "
          f"dicts={s.dict_constructions} selections={s.dict_selections}",
          file=sys.stderr)


def print_time_passes(program: CompiledProgram) -> None:
    trace = program.compile_stats.phases
    if trace is not None:
        print(trace.pretty(), file=sys.stderr)


def dump_after_observer(target: str):
    """An observer for ``--dump-after=<pass>``: pretty-print the
    program state right after the named pass runs.  After ``translate``
    that is the core IR; for front-end passes it is the (kernel) AST of
    each source unit processed so far."""
    from repro.pipeline import pass_names
    if target not in pass_names():
        raise SystemExit(f"--dump-after: unknown pass {target!r}; "
                         f"passes: {', '.join(pass_names())}")

    def observer(name, ctx) -> None:
        if name != target:
            return
        print(f"-- after {name}:")
        if ctx.core is not None:
            from repro.coreir.pretty import pp_program
            print(pp_program(ctx.core, annotations=True))
        else:
            from repro.lang.pretty import pp_program
            for unit in ctx.units:
                if unit.program is not None:
                    print(f"-- unit {unit.filename}")
                    print(pp_program(unit.program))
    return observer


def cmd_run(args: argparse.Namespace) -> int:
    options = build_options(args.set or [], lint=getattr(args, "lint", False))
    observer = dump_after_observer(args.dump_after) \
        if args.dump_after else None
    program, source = load(args.file, options, observer=observer,
                           with_source=True)
    if args.time_passes:
        print_time_passes(program)
    for warning in program.warnings:
        print(str(warning), file=sys.stderr)
    try:
        if args.expr:
            result = program.eval(args.expr)
        else:
            result = program.run(args.entry)
    except ReproError as exc:
        # Quote the offending line: the expression text for -e errors,
        # the file for everything else (run-time limits included).
        print(exc.pretty(args.expr if args.expr else source),
              file=sys.stderr)
        # The evaluator records its counters even on failure; --stats
        # reports the partial work so aborted runs are diagnosable.
        if args.stats:
            print_stats(program)
        return 1
    print(render(result))
    if args.stats:
        print_stats(program)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    options = build_options(args.set or [], lint=getattr(args, "lint", False))
    import os
    module_mode = len(args.files) > 1 or args.out or args.stats_json \
        or any(os.path.isdir(path) for path in args.files)
    if module_mode:
        return _check_modules(args, options)
    program = load(args.files[0], options)
    for name, scheme in sorted(program.schemes.items()):
        if "$" in name or "@" in name:
            continue  # generated
        print(f"{name} :: {scheme}")
    for warning in program.warnings:
        print(str(warning), file=sys.stderr)
    return 0


def _check_modules(args: argparse.Namespace,
                   options: CompilerOptions) -> int:
    """``repro check`` over a module tree: type-check every module
    without linking or evaluating.  Tolerant — all independent errors
    are reported in one run, each with its multi-position rendering —
    and incremental through the same artifact cache as ``repro build``
    (a warm re-check after a body edit re-infers one module)."""
    from repro.modules.build import check_modules
    try:
        result = check_modules(args.files, options, out_dir=args.out)
    except ReproError as exc:
        print(_pretty_module_error(exc), file=sys.stderr)
        return 1
    for name in result.order:
        info = result.modules[name]
        status = info["status"]
        ms = f"{info['ms']:>9.1f} ms" if "ms" in info else ""
        print(f"{name:<24} {status:>8} {ms}", file=sys.stderr)
    for _name, exc in result.diagnostics:
        print(_pretty_module_error(exc), file=sys.stderr)
    stats = result.stats()
    print(f"-- {stats['n_modules']} modules: {stats['n_checked']} checked, "
          f"{stats['n_cached']} cached, {stats['n_errors']} errors, "
          f"{stats['n_skipped']} skipped; {stats['ms']:.1f} ms",
          file=sys.stderr)
    if args.stats_json:
        import json
        stats["diagnostics"] = [dict(exc.to_json(), module=name)
                                for name, exc in result.diagnostics]
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
    return 0 if result.ok else 1


def cmd_core(args: argparse.Namespace) -> int:
    options = build_options(args.set or [], lint=getattr(args, "lint", False))
    program = load(args.file, options)
    names = args.names or None
    print(program.dump_core(names))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    options = build_options(args.set or [], lint=getattr(args, "lint", False))
    if not args.kinds and not args.names:
        raise SystemExit("repro info: give one or more names, --kinds, "
                         "or both")
    if args.file:
        program = load(args.file, options)
    else:
        # No file: the prelude alone is in scope.
        try:
            program = compile_source("", options, filename="<prelude>")
        except ReproError as exc:
            print(exc.pretty(""), file=sys.stderr)
            return 1
    if args.kinds:
        print(program.kinds_listing())
    for name in args.names:
        print(program.info(name))
    return 0


def cmd_repl(args: argparse.Namespace) -> int:
    options = build_options(args.set or [], lint=getattr(args, "lint", False))
    preamble = ""
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            preamble = handle.read()
    try:
        program = compile_source(preamble, options,
                                 filename=args.file or "<repl>")
    except ReproError as exc:
        print(exc.pretty(preamble), file=sys.stderr)
        return 1
    print("repro — Implementing Type Classes (PLDI 1993)")
    print("expression to evaluate; :t <expr> for its type; "
          ":i <name> for info; :q to quit")
    while True:
        try:
            line = input("tc> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":q", ":quit"):
            return 0
        try:
            if line.startswith(":t "):
                print(program.type_of(line[3:]))
            elif line.startswith(":i "):
                print(program.info(line[3:].strip()))
            else:
                print(render(program.eval(line)))
        except ReproError as exc:
            print(exc.pretty(line))


def cmd_build(args: argparse.Namespace) -> int:
    """Build a module tree: separate compilation, caching, linking."""
    from repro.modules import build_modules
    options = build_options(args.set or [], lint=getattr(args, "lint", False))
    try:
        result = build_modules(args.paths, options, out_dir=args.out)
    except ReproError as exc:
        print(_pretty_module_error(exc), file=sys.stderr)
        return 1
    for name in result.order:
        info = result.modules[name]
        tag = "cached" if info["cached"] else "compiled"
        print(f"{name:<24} {tag:>8} {info['ms']:>9.1f} ms", file=sys.stderr)
    print(f"-- {len(result.order)} modules: {result.n_compiled} compiled, "
          f"{result.n_cached} cached; {result.seconds * 1e3:.1f} ms",
          file=sys.stderr)
    program = result.program
    for warning in program.warnings:
        print(str(warning), file=sys.stderr)
    if args.stats_json:
        import json
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(result.stats(), handle, indent=2, sort_keys=True)
    backend = getattr(args, "backend", "interp")
    emit_py = getattr(args, "emit_py", None)
    if backend == "py" and args.expr:
        print("repro build: --backend=py evaluates a compiled binding; "
              "use --run/--entry, not -e", file=sys.stderr)
        return 2
    try:
        if backend == "py" or emit_py:
            # The compiled backend: tree-shake the linked core to the
            # entry point and generate Python (repro.coreir.pygen).
            # --emit-py is a side effect — with the default interp
            # backend, --run/-e below still evaluate as requested.
            compiled = program.to_python([args.entry])
            if emit_py:
                with open(emit_py, "w", encoding="utf-8") as handle:
                    handle.write(compiled.source + "\n")
                print(f"-- wrote {emit_py}", file=sys.stderr)
        if backend == "py":
            if args.run:
                print(render(compiled.run(args.entry)))
                c = compiled.counters
                print(f"-- backend=py dicts={c.dict_constructions} "
                      f"selections={c.dict_selections}", file=sys.stderr)
        elif args.expr:
            print(render(program.eval(args.expr)))
        elif args.run:
            print(render(program.run(args.entry)))
    except ReproError as exc:
        print(_pretty_module_error(exc), file=sys.stderr)
        return 1
    return 0


def _pretty_module_error(exc: ReproError) -> str:
    """Quote the offending source line when the error's position names
    a readable file (module errors can point into any file of the
    tree, so the source must be re-read per error)."""
    pos = getattr(exc, "pos", None)
    filename = getattr(pos, "filename", None)
    if filename:
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                return exc.pretty(handle.read())
        except OSError:
            pass
    return str(exc)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived compile/eval server (repro.service)."""
    import signal

    from repro.service.server import CompileServer
    options = build_options(args.set or [], lint=getattr(args, "lint", False))
    if args.host:
        options.server_host = args.host
    if args.port is not None:
        options.server_port = args.port
    if getattr(args, "shards", None) is not None:
        options.server_shards = max(0, args.shards)
    server = CompileServer(options=options, stats_json=args.stats_json)

    def on_sigterm(_signum, _frame):
        # Graceful drain: stop accepting, let in-flight requests
        # finish within DRAIN_GRACE (repro.service.worker), then exit.
        print("repro serve: SIGTERM — draining", file=sys.stderr)
        threading.Thread(target=server.drain, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, on_sigterm)
    except (ValueError, OSError):
        pass  # not the main thread, or an exotic platform
    try:
        if args.stdio:
            server.serve_stdio()
        else:
            try:
                port = server.start()
            except OSError as exc:
                print(f"repro serve: cannot bind "
                      f"{options.server_host}:{options.server_port}: {exc}",
                      file=sys.stderr)
                return 1
            backend = (f"shards={options.server_shards}"
                       if options.server_shards > 0 else "in-process")
            print(f"repro serve: listening on {server.host}:{port} "
                  f"(cache={options.cache_size}, {backend})",
                  file=sys.stderr)
            server.wait()
    except KeyboardInterrupt:
        server.stop()
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    """Compile many programs through one shared snapshot + cache."""
    from repro.service.server import CompileService
    options = build_options(args.set or [], lint=getattr(args, "lint", False))
    service = CompileService(options)
    failures = 0
    for _ in range(max(1, args.repeat)):
        for path in args.files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                failures += 1
                print(f"{path}: error: {exc}", file=sys.stderr)
                continue
            try:
                with service.metrics.time("batch_file"):
                    _key, program, cached = service.compile(source,
                                                            filename=path)
                tag = "cached" if cached else "compiled"
                if args.expr:
                    result = program.eval(args.expr)
                    print(f"{path}: {render(result)} [{tag}]")
                elif args.entry:
                    result = program.run(args.entry)
                    print(f"{path}: {render(result)} [{tag}]")
                else:
                    print(f"{path}: ok, "
                          f"{len(program.core.bindings)} bindings [{tag}]")
            except ReproError as exc:
                failures += 1
                print(f"{path}: error: {exc}", file=sys.stderr)
    if args.stats_json:
        service.metrics.dump_json(args.stats_json,
                                  extra={"cache": service.cache.snapshot()})
    return 1 if failures else 0


def render(value: object) -> str:
    """Show a result the way a Haskell REPL would: strings without the
    Python quote style, tuples/lists via repr."""
    if isinstance(value, str):
        return value
    return repr(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mini-Haskell with type classes "
                    "(Peterson & Jones, PLDI 1993)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="override a CompilerOptions field")
        p.add_argument("--lint", action="store_true",
                       help="run the core lint after every pass "
                            "(equivalent to --set lint=true or "
                            "REPRO_LINT=1)")

    p_run = sub.add_parser("run", help="compile and run a program")
    p_run.add_argument("file")
    p_run.add_argument("-e", "--expr", help="evaluate this expression "
                                            "instead of 'main'")
    p_run.add_argument("--entry", default="main",
                       help="top-level binding to evaluate (default main)")
    p_run.add_argument("--stats", action="store_true",
                       help="print evaluator operation counts")
    p_run.add_argument("--time-passes", action="store_true",
                       help="print per-pass compile times (stderr)")
    p_run.add_argument("--dump-after", metavar="PASS",
                       help="pretty-print the program after the named "
                            "pipeline pass (e.g. translate, selectors, "
                            "specialize)")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser(
        "check", help="type check; print schemes (single file) or "
                      "check a module tree without linking")
    p_check.add_argument("files", nargs="+",
                         help="a program file, or module files/"
                              "directories (module mode: no link, "
                              "tolerant per-module diagnostics)")
    p_check.add_argument("--out", metavar="DIR",
                         help="write .ri interface files here "
                              "(module mode)")
    p_check.add_argument("--stats-json", metavar="FILE",
                         help="write per-module check stats + "
                              "diagnostics to FILE (module mode)")
    add_common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_core = sub.add_parser("core", help="dump dictionary-passing core")
    p_core.add_argument("file")
    p_core.add_argument("names", nargs="*",
                        help="only these bindings (default: all)")
    add_common(p_core)
    p_core.set_defaults(fn=cmd_core)

    p_info = sub.add_parser(
        "info", help="describe names (like the repl's :i) and/or list "
                     "inferred kinds of every tycon and class")
    p_info.add_argument("names", nargs="*",
                        help="classes, data types or bindings to describe")
    p_info.add_argument("-f", "--file",
                        help="program to load into scope first "
                             "(default: just the prelude)")
    p_info.add_argument("--kinds", action="store_true",
                        help="list the inferred kind of every type "
                             "constructor and class in scope")
    add_common(p_info)
    p_info.set_defaults(fn=cmd_info)

    p_repl = sub.add_parser("repl", help="interactive session")
    p_repl.add_argument("file", nargs="?",
                        help="program to load into scope first")
    add_common(p_repl)
    p_repl.set_defaults(fn=cmd_repl)

    p_build = sub.add_parser(
        "build", help="build a multi-module program (separate "
                      "compilation + caching + link)")
    p_build.add_argument("paths", nargs="+",
                         help="module files (*.mhs) or directories "
                              "searched recursively")
    p_build.add_argument("--out", metavar="DIR",
                         help="write .ri interface files here")
    p_build.add_argument("--run", action="store_true",
                         help="evaluate the entry binding after linking")
    p_build.add_argument("--entry", default="main",
                         help="binding for --run (default main)")
    p_build.add_argument("-e", "--expr",
                         help="evaluate this expression after linking")
    p_build.add_argument("--backend", choices=("interp", "py"),
                         default="interp",
                         help="how --run evaluates: the core interpreter "
                              "(default) or compiled Python "
                              "(repro.coreir.pygen)")
    p_build.add_argument("--emit-py", metavar="FILE",
                         help="write the generated Python for the linked "
                              "program (tree-shaken to --entry) to FILE")
    p_build.add_argument("--stats-json", metavar="FILE",
                         help="write per-module build stats to FILE")
    add_common(p_build)
    p_build.set_defaults(fn=cmd_build)

    p_serve = sub.add_parser(
        "serve", help="long-lived compile/eval server (JSON protocol)")
    p_serve.add_argument("--host", help="bind address "
                                        "(default CompilerOptions.server_host)")
    p_serve.add_argument("--port", type=int,
                         help="TCP port (0 = ephemeral; prints the choice)")
    p_serve.add_argument("--stdio", action="store_true",
                         help="serve on stdin/stdout instead of TCP")
    p_serve.add_argument("--shards", type=int, metavar="N",
                         help="route requests by content hash to N worker "
                              "processes (default "
                              "CompilerOptions.server_shards; 0 = "
                              "in-process threads)")
    p_serve.add_argument("--stats-json", metavar="FILE",
                         help="write the merged fleet metrics to FILE on "
                              "shutdown")
    add_common(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_batch = sub.add_parser(
        "batch", help="compile many programs via one snapshot + cache")
    p_batch.add_argument("files", nargs="+")
    p_batch.add_argument("-e", "--expr",
                         help="evaluate this expression in every program")
    p_batch.add_argument("--entry", help="run this binding in every program")
    p_batch.add_argument("--repeat", type=int, default=1,
                         help="process the file list N times "
                              "(cache warm-up demos)")
    p_batch.add_argument("--stats-json", metavar="FILE",
                         help="write request metrics to FILE when done")
    add_common(p_batch)
    p_batch.set_defaults(fn=cmd_batch)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
