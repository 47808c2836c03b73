"""Per-layer metrics from the spans ``launcher.py`` records.

A layer's self time is its span's duration minus the part of that interval
its child spans (with the tracer's own tail after each child) and its leaf
calls cover.  Durations per request are medians; counts per simplification
are means; ``*_ns_per_node`` and shares are ratios of totals.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

NAME, START, END, TAIL, ID, PARENT, RID, EXTRA = range(8)
LEAVES = ("rule", "mark")
SCOPE_SPANS = ("TheoryGraph.resolve", "TheoryGraph.scope_for")

UNITS = {
    "server.request_us": "us", "server.self_us": "us",
    "server.transport_us": "us", "server.connects_per_request": "count",
    "graph.scope_us": "us", "graph.scope_share": "ratio",
    "graph.modules": "count",
    "notation.parse_us": "us", "notation.parse_ns_per_node": "ns",
    "notation.render_us": "us", "notation.render_ns_per_node": "ns",
    "omxml.decode_ns_per_node": "ns", "omxml.encode_ns_per_node": "ns",
    "machine.simplify_us": "us", "machine.steps": "count",
    "machine.steps_per_s": "1/s", "machine.share": "ratio",
    "realization.rule_calls": "count", "realization.fire_ratio": "ratio",
    "realization.rule_raised": "count", "realization.rule_us": "us",
    "terms.mark_calls": "count", "terms.mark_us": "us",
    "omdoc.ingest_us": "us",
    "codegen.build_graph_ms": "ms", "codegen.load_ms": "ms",
    "surface.parse_modules_ms": "ms", "cli.import_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def covered(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END] + s[TAIL]))
    out = {}
    for s in spans:
        leaves = sum(s[EXTRA][k][1] for k in LEAVES if k in s[EXTRA])
        out[s[ID]] = (s[END] - s[START] - leaves
                      - covered(s[START], s[END], children.get(s[ID], ())))
    return out


def _dur(s) -> int:
    return s[END] - s[START]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values, scale: float = 1.0) -> float:
    values = list(values)
    return median(values) / scale if values else 0.0


def per_layer(spans, import_ms: float) -> dict[str, float]:
    """Every span-derived metric of ``UNITS``.

    ``server.transport_us``, ``server.connects_per_request``,
    ``graph.modules``, ``machine.steps`` and ``trace.overhead_ratio`` come
    from the client and are added by the caller.
    """
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        kids[s[PARENT]].append(s)
    selfs = self_times(spans)
    reqs = by_name["Service.simplify_request"]
    req_total = sum(map(_dur, reqs))

    scope = [sum(_dur(c) for c in kids[r[ID]] if c[NAME] in SCOPE_SPANS)
             for r in reqs
             if any(c[NAME] in SCOPE_SPANS for c in kids[r[ID]])]

    def per_node(name):
        ss = by_name[name]
        return ratio(sum(map(_dur, ss)), sum(s[EXTRA]["nodes"] for s in ss))

    simps = by_name["simplify"]
    steps = sum(s[EXTRA]["steps"] for s in simps)
    simp_total = sum(map(_dur, simps))

    def leaf(s, kind, i):
        return s[EXTRA].get(kind, (0, 0, 0))[i]

    rule_calls = sum(leaf(s, "rule", 0) for s in simps)
    setup = [s for s in spans if s[RID] == 0]

    def setup_ms(name):
        return sum(_dur(s) for s in setup if s[NAME] == name) / 1e6

    return {
        "server.request_us": _median(map(_dur, reqs), 1e3),
        "server.self_us": _median((selfs[r[ID]] for r in reqs), 1e3),
        "graph.scope_us": _median(scope, 1e3),
        "graph.scope_share": ratio(sum(scope), req_total),
        "notation.parse_us": _median(map(_dur, by_name["parse_term"]), 1e3),
        "notation.parse_ns_per_node": per_node("parse_term"),
        "notation.render_us": _median(map(_dur, by_name["render_term"]), 1e3),
        "notation.render_ns_per_node": per_node("render_term"),
        "omxml.decode_ns_per_node": per_node("decode_xml"),
        "omxml.encode_ns_per_node": per_node("encode_xml"),
        "machine.simplify_us": _median(map(_dur, simps), 1e3),
        "machine.steps_per_s": ratio(steps * 1e9, simp_total),
        "machine.share": ratio(simp_total, req_total),
        "realization.rule_calls": ratio(rule_calls, len(simps)),
        "realization.fire_ratio": ratio(steps, rule_calls),
        "realization.rule_raised": sum(leaf(s, "rule", 2) for s in simps),
        "realization.rule_us": _median((leaf(s, "rule", 1) for s in simps), 1e3),
        "terms.mark_calls": ratio(sum(leaf(s, "mark", 0) for s in simps),
                                  len(simps)),
        "terms.mark_us": _median((leaf(s, "mark", 1) for s in simps), 1e3),
        "omdoc.ingest_us": _median(map(_dur, by_name["ingest_omdoc"]), 1e3),
        "codegen.build_graph_ms": setup_ms("build_graph"),
        "codegen.load_ms": setup_ms("load"),
        "surface.parse_modules_ms": setup_ms("parse_modules"),
        "cli.import_ms": import_ms,
    }
