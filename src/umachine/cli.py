"""Command-line frontend.

Subcommands: ``check`` (parse, lint, view totality and snippet parameter
lists: ``sts.lint_theory``, ``sts.lint_view``), ``test`` (``load``
without a report file), ``simplify``, ``repl``, ``serve``, and the build
processes ``extract``, ``integrate``, ``load``.  The standard library is
loaded into every session unless ``--no-stdlib`` is given.  ``UM_PORT`` and
``UM_FUEL`` override the defaults of ``--port`` and ``--fuel``, and a value
that is not an integer exits 2 as the same flag would.

Exit codes: 0 success, 1 diagnostics, test failures or a typed error, 2 hard
errors.  ``simplify`` and ``repl`` answer through ``server.Service`` as
``POST /simplify`` does (fuel at most ``MAX_FUEL``): 200 exits 0; 422 exits 1
with the partial result on stdout and a warning on stderr; any other 4xx
(among them 413 for a term nested too deeply) exits 1 with the reply on
stderr, which the REPL prints as ``error: ...`` before it reads on; an
internal error (HTTP 500) exits 2.  ``simplify``, ``repl``, ``serve``,
``test`` and ``load`` check ``--fuel`` (or ``UM_FUEL``) against
``1..MAX_FUEL`` through ``SimplifyBudget`` and exit 1 at once outside it;
the REPL's ``:fuel <n>`` is checked the same way, and a bad value is
reported and leaves the fuel as it was.
A term nested deeper than ``MAX_TERM_DEPTH`` is a 413 and exits 1, on every
interpreter and at its default recursion limit, which ``um`` leaves alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import codegen, stdlib
from .graph import Theory, TheoryGraph, View
from .machine import DEFAULT_FUEL, RuleBase, SimplifyBudget
from .server import OMXML, TEXT, Response, Service, serve
from .sts import lint_theory, lint_view


def _build(args) -> tuple[TheoryGraph, dict]:
    roots = [Path(args.root)] if args.root else []
    graph, projects, _ = codegen.build_graph(
        roots, with_stdlib=not args.no_stdlib)
    return graph, projects


def _project_for(args, projects) -> codegen.Project:
    root = Path(args.root).resolve() if args.root else stdlib.root()
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
            diagnostics.extend(str(d) for d in lint_view(graph, ref))
    for line in diagnostics:
        print(line)
    if diagnostics:
        return 1
    print("ok")
    return 0


class _OptionError(Exception):
    """A bad option value, found before any work is done: exit 1."""


def _load(args) -> tuple[TheoryGraph, RuleBase, codegen.LoadReport]:
    """The graph, its rule base and the load report under ``--fuel``, which
    is checked before anything is loaded."""
    try:
        budget = SimplifyBudget(args.fuel)
    except ValueError as e:
        raise _OptionError(e) from None
    graph, _ = _build(args)
    return (graph, *codegen.load(graph, budget))


def cmd_load(args) -> int:
    _, _, report = _load(args)
    text = str(report)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if report.tests.passed == report.tests.total else 1


def cmd_build_process(args) -> int:
    """``extract`` or ``integrate``: print each file the process wrote."""
    graph, projects = _build(args)
    for path in args.process(graph, _project_for(args, projects)):
        print(path)
    return 0


def _service(args) -> Service:
    graph, base, _ = _load(args)
    return Service(graph, base, default_fuel=args.fuel)


def _simplify(service: Service, expr: str, scope: str, xml: bool,
              fuel: int) -> Response:
    return service.simplify_request(expr.encode("utf-8"),
                                    OMXML if xml else TEXT, scope, str(fuel))


def cmd_simplify(args) -> int:
    r = _simplify(_service(args), args.expr, args.scope, args.xml, args.fuel)
    if r.status == 200:
        print(r.body)
        return 0
    if r.status == 422:
        print(r.body)
        print("warning: fuel exhausted, partial result", file=sys.stderr)
    else:
        print(f"error: {r.body.rstrip()}", file=sys.stderr)
    return 1


def cmd_repl(args) -> int:
    service = _service(args)
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
                    service.graph.resolve(parts[1])
                    scope_ref = parts[1]
                except Exception as e:
                    print(f"error: {e}")
            print(f"scope: {scope_ref}")
            continue
        if line.startswith(":fuel"):
            parts = line.split(None, 1)
            if len(parts) == 2:
                try:
                    n = int(parts[1])
                except ValueError:
                    print("error: fuel must be an integer")
                else:
                    try:  # checked as --fuel is; a bad value keeps the old
                        fuel = SimplifyBudget(n).fuel
                    except ValueError as e:
                        print(f"error: {e}")
            print(f"fuel: {fuel}")
            continue
        try:
            r = _simplify(service, line, scope_ref, False, fuel)
        except Exception as e:
            print(f"error: {e}")
            continue
        print(r.body if r.status in (200, 422) else f"error: {r.body.rstrip()}")
    return 0


def cmd_serve(args) -> int:
    serve(_service(args), port=args.port)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="um", description="universal machine over biform theory graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("root", nargs="?", default=None,
                       help="project root (default: the stdlib project)")
        p.add_argument("--no-stdlib", action="store_true",
                       help="do not preload the standard library")
        p.add_argument("--fuel", type=int,
                       default=os.environ.get("UM_FUEL", DEFAULT_FUEL),
                       help="maximum rule applications per simplification")

    p = sub.add_parser("check", help="parse, lint, and check views")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("test", help="load rules and run the FMP test cases")
    common(p)
    p.set_defaults(fn=cmd_load, report=None)

    p = sub.add_parser("load", help="load rules, run tests, print the report")
    common(p)
    p.add_argument("--report", help="also write the report to this file")
    p.set_defaults(fn=cmd_load)

    p = sub.add_parser("extract", help="write realization stub files")
    common(p)
    p.set_defaults(fn=cmd_build_process, process=codegen.extract)

    p = sub.add_parser("integrate",
                       help="merge stub-region edits back into sources")
    common(p)
    p.set_defaults(fn=cmd_build_process, process=codegen.integrate)

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
    p.add_argument("--port", type=int,
                   default=os.environ.get("UM_PORT", 8080))
    p.set_defaults(fn=cmd_serve)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _OptionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
