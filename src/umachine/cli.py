"""Command-line frontend.

Subcommands: ``check`` (parse + lint + view totality), ``test`` (load and run
the FMP report), ``simplify``, ``repl``, ``serve``, and the build processes
``extract``, ``integrate``, ``load``.  Exit codes: 0 success, 1 diagnostics
or test failures, 2 hard errors.  The standard library is loaded into every
session unless ``--no-stdlib`` is given.  ``UM_PORT`` and ``UM_FUEL``
override the defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import codegen, stdlib
from .graph import Theory, TheoryGraph, View
from .machine import SimplifyBudget, simplify
from .notation import SyntaxErrorAt, parse_term, render_term
from .omxml import XmlDecodeError, decode_xml, encode_xml
from .server import Service, serve
from .sts import lint_theory


def _env_fuel() -> int:
    try:
        return int(os.environ.get("UM_FUEL", "10000"))
    except ValueError:
        return 10000


def _env_port() -> int:
    try:
        return int(os.environ.get("UM_PORT", "8080"))
    except ValueError:
        return 8080


def _build(args) -> tuple[TheoryGraph, dict]:
    roots = [Path(args.root)] if getattr(args, "root", None) else []
    graph, projects, _ = codegen.build_graph(
        roots, with_stdlib=not args.no_stdlib)
    return graph, projects


def _project_for(args, projects) -> codegen.Project:
    root = Path(args.root).resolve() if getattr(args, "root", None) \
        else stdlib.root()
    if root not in projects:
        raise ValueError("no project to operate on: give a project root or "
                         "drop --no-stdlib")
    return projects[root]


def cmd_check(args) -> int:
    graph, projects = _build(args)
    project = _project_for(args, projects)
    diagnostics = []
    for ref in project.modules:
        module = graph.modules[ref]
        if isinstance(module, Theory):
            diagnostics.extend(str(d) for d in lint_theory(graph, ref))
        elif isinstance(module, View):
            pos = module.pos
            where = str(pos) if pos else "-:0"
            for g in graph.check_view(ref):
                diagnostics.append(
                    f"error {where} {g.local} missing assignment in view "
                    f"{ref.module}")
    for line in diagnostics:
        print(line)
    if diagnostics:
        return 1
    print("ok")
    return 0


def cmd_test(args) -> int:
    graph, _ = _build(args)
    base, report = codegen.load(graph, SimplifyBudget(args.fuel))
    print(report)
    return 0 if report.tests.passed == report.tests.total else 1


def cmd_load(args) -> int:
    graph, _ = _build(args)
    base, report = codegen.load(graph, SimplifyBudget(args.fuel))
    text = str(report)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if report.tests.passed == report.tests.total else 1


def cmd_extract(args) -> int:
    graph, projects = _build(args)
    for path in codegen.extract(graph, _project_for(args, projects)):
        print(path)
    return 0


def cmd_integrate(args) -> int:
    graph, projects = _build(args)
    for path in codegen.integrate(graph, _project_for(args, projects)):
        print(path)
    return 0


def _simplify_once(graph, base, expr: str, scope_ref: str, xml: bool,
                   fuel: int) -> tuple[int, str]:
    budget = SimplifyBudget(fuel)
    if xml:
        term = decode_xml(expr)
        result = simplify(base, term, budget)
        return (1 if result.exhausted else 0), encode_xml(result.term)
    scope = graph.scope_for(graph.resolve(scope_ref))
    term = parse_term(expr, scope)
    result = simplify(base, term, budget)
    return (1 if result.exhausted else 0), render_term(result.term, scope)


def cmd_simplify(args) -> int:
    graph, _ = _build(args)
    base, _report = codegen.load(graph, SimplifyBudget(args.fuel))
    code, text = _simplify_once(graph, base, args.expr, args.scope, args.xml,
                                args.fuel)
    print(text)
    if code:
        print("warning: fuel exhausted, partial result", file=sys.stderr)
    return code


def cmd_repl(args) -> int:
    graph, _ = _build(args)
    base, _report = codegen.load(graph, SimplifyBudget(args.fuel))
    scope_ref = args.scope
    fuel = args.fuel
    print(f"scope: {scope_ref}  fuel: {fuel}  (:scope <ref>, :fuel <n>, :quit)")
    while True:
        try:
            line = input("um> ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line == ":quit":
            break
        if line.startswith(":scope"):
            parts = line.split(None, 1)
            if len(parts) == 2:
                try:
                    graph.resolve(parts[1])
                    scope_ref = parts[1]
                except Exception as e:
                    print(f"error: {e}")
            print(f"scope: {scope_ref}")
            continue
        if line.startswith(":fuel"):
            parts = line.split(None, 1)
            if len(parts) == 2:
                try:
                    fuel = int(parts[1])
                except ValueError:
                    print("error: fuel must be an integer")
            print(f"fuel: {fuel}")
            continue
        try:
            _, text = _simplify_once(graph, base, line, scope_ref, False, fuel)
            print(text)
        except Exception as e:
            print(f"error: {e}")
    return 0


def cmd_serve(args) -> int:
    graph, _ = _build(args)
    base, _report = codegen.load(graph, SimplifyBudget(args.fuel))
    service = Service(graph, base, default_fuel=args.fuel)
    print(f"serving on port {args.port}")
    serve(service, port=args.port)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="um", description="universal machine over biform theory graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, root=True):
        if root:
            p.add_argument("root", nargs="?", default=None,
                           help="project root (default: the stdlib project)")
        p.add_argument("--no-stdlib", action="store_true",
                       help="do not preload the standard library")
        p.add_argument("--fuel", type=int, default=_env_fuel(),
                       help="maximum rule applications per simplification")

    p = sub.add_parser("check", help="parse, lint, and check view totality")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("test", help="load rules and run the FMP test cases")
    common(p)
    p.set_defaults(fn=cmd_test)

    p = sub.add_parser("load", help="load rules, run tests, print the report")
    common(p)
    p.add_argument("--report", help="also write the report to this file")
    p.set_defaults(fn=cmd_load)

    p = sub.add_parser("extract", help="write realization stub files")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("integrate",
                       help="merge stub-region edits back into sources")
    common(p)
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("simplify", help="simplify one expression")
    common(p)
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("--scope", default="everything1",
                   help="theory whose notations parse and render the term")
    p.add_argument("--xml", action="store_true",
                   help="treat input and output as OpenMath XML")
    p.set_defaults(fn=cmd_simplify)

    p = sub.add_parser("repl", help="read-simplify-print loop")
    common(p)
    p.add_argument("--scope", default="everything1")
    p.set_defaults(fn=cmd_repl)

    p = sub.add_parser("serve", help="run the HTTP service")
    common(p)
    p.add_argument("--port", type=int, default=_env_port())
    p.set_defaults(fn=cmd_serve)

    return parser


def main(argv=None) -> int:
    # Rules, structural equality and the codecs recurse along the term, and
    # the default limit would cap terms far below the fuel.  Raised once,
    # before any command or server thread runs; never lowered.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 30000))
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SyntaxErrorAt, XmlDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
