"""Start ``um serve`` with spans recorded around each layer's entry points.

Usage: ``PYTHONPATH=src python3 perfbench/launcher.py --port N``

The wrappers are installed from outside the package before the server starts;
nothing in ``src/`` is changed.  A span is ``[name, start_ns, end_ns, tail_ns,
span_id, parent_id, request_id, extra]``: ``tail_ns`` is time the tracer
spent after the call (counting nodes) that ancestors must not count as their
own, and ``extra`` holds node counts, simplification steps and the totals of
the leaf calls made inside the span (rule functions and ``mark``), which are
too many to keep one span each.  Spans stay in memory; on SIGTERM the
process prints ``{"import_ms": ..., "spans": [...]}`` as the last line of its
standard output and exits.

No recursive function is wrapped, so each wrapper adds one frame above the
recursion, never one per level.
"""

from __future__ import annotations

import functools
import itertools
import json
import signal
import sys
import threading
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, request: bool = False, nodes=None,
             steps: bool = False):
        """A span around ``fn``; ``request`` opens a new request id.

        ``nodes`` is ``"in"`` or ``"out"``: count the nodes of the first
        argument or of the result, after the span has ended.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if request:
                rid = next(self._requests)
            else:
                rid = parent[6] if parent else 0
            span = [name, _now(), 0, 0, next(self._ids),
                    parent[4] if parent else 0, rid, {}]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
                self.spans.append(span)
            if nodes is not None or steps:
                extra = span[7]
                if nodes == "in":
                    extra["nodes"] = count_nodes(args[0])
                elif nodes == "out":
                    extra["nodes"] = count_nodes(result)
                if steps:
                    extra["steps"] = result.steps
                span[3] = _now() - span[2]
            return result

        return traced

    def leaf(self, name: str, fn):
        """Count calls, time and exceptions of ``fn`` on the enclosing span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            start = _now()
            raised = 0
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                elapsed = _now() - start
                if stack:
                    tot = stack[-1][7].setdefault(name, [0, 0, 0])
                    tot[0] += 1
                    tot[1] += elapsed
                    tot[2] += raised

        return traced


def count_nodes(t) -> int:
    from umachine.terms import App, Bind
    n, todo = 0, [t]
    while todo:
        x = todo.pop()
        n += 1
        if isinstance(x, App):
            todo.append(x.head)
            todo.extend(x.args)
        elif isinstance(x, Bind):
            todo.append(x.binder)
            todo.append(x.scope)
    return n


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the imported package."""
    from umachine import codegen, graph, machine, server

    S = server.Service
    S.simplify_request = tracer.wrap("Service.simplify_request",
                                     S.simplify_request, request=True)
    S.ingest = tracer.wrap("Service.ingest", S.ingest, request=True)
    G = graph.TheoryGraph
    G.resolve = tracer.wrap("TheoryGraph.resolve", G.resolve)
    G.scope_for = tracer.wrap("TheoryGraph.scope_for", G.scope_for)
    server.parse_term = tracer.wrap("parse_term", server.parse_term,
                                    nodes="out")
    server.render_term = tracer.wrap("render_term", server.render_term,
                                     nodes="in")
    server.decode_xml = tracer.wrap("decode_xml", server.decode_xml,
                                    nodes="out")
    server.encode_xml = tracer.wrap("encode_xml", server.encode_xml,
                                    nodes="in")
    server.simplify = tracer.wrap("simplify", server.simplify, steps=True)
    server.ingest_omdoc = tracer.wrap("ingest_omdoc", server.ingest_omdoc)
    codegen.build_graph = tracer.wrap("build_graph", codegen.build_graph)
    codegen.parse_modules = tracer.wrap("parse_modules", codegen.parse_modules)
    codegen.run_tests = tracer.wrap("run_tests", codegen.run_tests)
    machine.mark = tracer.leaf("mark", machine.mark)

    load = tracer.wrap("load", codegen.load)

    @functools.wraps(load)
    def load_and_wrap_rules(*args, **kwargs):
        base, report = load(*args, **kwargs)
        for rule in base.rules():
            object.__setattr__(rule, "fn", tracer.leaf("rule", rule.fn))
        return base, report

    codegen.load = load_and_wrap_rules


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    start = _now()
    from umachine import cli
    import_ms = (_now() - start) / 1e6
    tracer = Tracer()
    install(tracer)

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    try:
        return cli.main(["serve", *argv])
    finally:
        sys.stdout.write("\n" + json.dumps(
            {"import_ms": import_ms, "spans": tracer.spans}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
