"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is exact unless stated otherwise; the
whole suite runs in well under a minute.
"""

import random
import shutil
import threading
import time

import requests

import umachine.stdlib as stdlib
from naive_engine import naive_simplify
from termgen import engine_term, surface_term
from umachine.codegen import build_graph, extract, integrate
from umachine.graph import OM_OBJECT, TheoryGraph
from umachine.machine import Rule, RuleBase, simplify
from umachine.notation import parse_term, render_term
from umachine.omdoc import ingest_omdoc
from umachine.omxml import decode_xml, encode_xml
from umachine.realization import (LOGIC1_TRUE, collect_tests,
                                  install_bifoundations, rules_of, run_tests)
from umachine.server import OMXML, Service, make_server
from umachine.stdlib import rules
from umachine.sts import BINDER, Fixed, Flexible, arity_of
from umachine.surface import parse_modules
from umachine.terms import Const, GlobalName, IntLit, app, strip_marks

CD = "http://www.openmath.org/cd"


def announce(n, ok, desc):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def clist(*vs):
    t = rules.NIL
    for v in reversed(vs):
        t = app(Const(rules.CONS), IntLit(v), t)
    return t


EXPECTED_LIST = clist(1, 2, 3, 4, 5, 6, 7)


def test_criterion_1_end_to_end_uom_scenario():
    t0 = time.monotonic()
    graph = TheoryGraph()
    install_bifoundations(graph)
    doc = (stdlib.root() / "source" / "lists.omdoc").read_text("utf-8")
    ingest_omdoc(graph, doc)
    impl = (stdlib.root() / "source" / "lists_impl.mmt").read_text("utf-8")
    parse_modules(graph, impl, "lists_impl.mmt")
    base = RuleBase()
    for view in ("ListsImpl", "ListsExtImpl"):
        report = rules_of(graph, graph.resolve(view))
        for rule in report.base.rules():
            base.add(rule)
    scenario = app(Const(rules.APPEND_MANY), clist(1, 2, 3), clist(4, 5),
                   clist(6, 7))
    result = simplify(base, scenario)
    elapsed = time.monotonic() - t0
    ok = result.term == EXPECTED_LIST and not result.exhausted \
        and elapsed < 1.0
    announce(1, ok, f"ingest + load + append_many -> [1..7] "
                    f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_maptest(loaded):
    t0 = time.monotonic()
    g = loaded.graph
    scope = g.scope_for(g.resolve("NumbersTest"))
    term = parse_term("{0,1,2} map (x ↦ -x*x+2*x+3) = {3,4}", scope)
    result = simplify(loaded.base, term)
    harness = run_tests(g, loaded.base, collect_tests(g))
    elapsed = time.monotonic() - t0
    ok = result.term == Const(LOGIC1_TRUE) \
        and harness.passed == harness.total == 1 \
        and harness.lines()[0] == f"PASS {CD}?NumbersTest?maptest" \
        and elapsed < 1.0
    announce(2, ok, f"maptest simplifies to logic1?true and the FMP harness "
                    f"reports PASS ({elapsed * 1000:.0f} ms)")


def test_criterion_3_arity_table(loaded):
    g = loaded.graph
    def type_of(module, name):
        return g.lookup(GlobalName(CD, module, name)).type
    ok = (arity_of(type_of("arith1", "plus")) == Flexible(0)
          and arity_of(type_of("arith1", "minus")) == Fixed(2)
          and arity_of(type_of("fns1", "lambda")) == BINDER
          and arity_of(Const(OM_OBJECT)) == Fixed(0))
    announce(3, ok, "plus -> 0*, minus -> 2, lambda -> binder, Object -> 0")


def test_criterion_4_engine_properties(loaded):
    rng = random.Random(20260810)
    failures = 0
    for _ in range(1000):
        t = engine_term(rng, rng.randrange(1, 4))
        first = simplify(loaded.base, t)
        second = simplify(loaded.base, first.term)
        stripped = simplify(loaded.base, strip_marks(first.term))
        slow, _, slow_exhausted = naive_simplify(loaded.base, t)
        good = (not first.exhausted and second.steps == 0
                and second.term == first.term
                and stripped.term == first.term
                and not slow_exhausted
                and strip_marks(first.term) == slow)
        failures += 0 if good else 1
    announce(4, failures == 0,
             f"idempotence, metadata neutrality, naive-oracle agreement on "
             f"1000 generated terms ({1000 - failures}/1000)")


def test_criterion_5_arithmetic_oracle(loaded):
    t0 = time.monotonic()
    rng = random.Random(5)
    base = loaded.base

    def simp(term):
        return simplify(base, term).term

    def big(bits=80):
        v = rng.getrandbits(bits) or 1
        return v if rng.random() < 0.5 else -v

    def C(m, n):
        return Const(GlobalName(CD, m, n))

    checked = 0
    mismatches = 0
    for i in range(10000):
        if i % 5 == 0:
            xs = [big() for _ in range(rng.randrange(1, 5))]
            got = simp(app(C("arith1", "plus"), *[IntLit(v) for v in xs]))
            mismatches += got != IntLit(sum(xs))
        elif i % 5 == 1:
            x, y = big(), big()
            got = simp(app(C("arith1", "minus"), IntLit(x), IntLit(y)))
            mismatches += got != IntLit(x - y)
        elif i % 5 == 2:
            xs = [big(40) for _ in range(rng.randrange(1, 4))]
            got = simp(app(C("arith1", "times"), *[IntLit(v) for v in xs]))
            expected = 1
            for v in xs:
                expected *= v
            mismatches += got != IntLit(expected)
        elif i % 5 == 3:
            x, e = big(18), rng.randrange(0, 5)
            got = simp(app(C("arith1", "power"), IntLit(x), IntLit(e)))
            mismatches += got != IntLit(x ** e)
        else:
            a, b = big(), big(30)
            q = simp(app(C("integer1", "quotient"), IntLit(a), IntLit(b)))
            r = simp(app(C("integer1", "remainder"), IntLit(a), IntLit(b)))
            rr = a % abs(b)
            mismatches += r != IntLit(rr) or q != IntLit((a - rr) // b)
        checked += 1
    # factorial spot checks with an independent product loop
    import math
    for n in (0, 1, 5, 20, 150):
        got = simp(app(C("integer1", "factorial"), IntLit(n)))
        mismatches += got != IntLit(math.factorial(n))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    announce(5, ok, f"{checked} random literal evaluations (|values| up to "
                    f"2^80) agree with the bigint reference "
                    f"({elapsed:.1f} s)")


PARTIAL_VIEW = """\
document http://www.openmath.org/cd

view NumberArith : arith1 -> Computation
  constant plus = (args: List[Term]) "
  "
  constant minus = (a: Term, b: Term) "(OMI(x), OMI(y)) -> OMI(x - y)"
  constant times = (args: List[Term]) "integer product"
  constant unary_minus = (a: Term) "integer negation"
  constant power = (a: Term, b: Term) "integer exponentiation"
"""


def test_criterion_6_view_totality(tmp_path, capsys):
    from umachine.cli import main
    root = tmp_path / "na"
    (root / "source").mkdir(parents=True)
    (root / "source" / "numberarith.mmt").write_text(PARTIAL_VIEW, "utf-8")
    code = main(["check", str(root)])
    out = capsys.readouterr().out
    missing = [l for l in out.splitlines() if "missing assignment" in l]
    ok = code == 1 and len(missing) == 1 and "arith1?plus" in missing[0]
    with capsys.disabled():
        announce(6, ok, "um check exits 1 naming exactly arith1?plus")


def test_criterion_7_codegen_round_trip(tmp_path):
    root = tmp_path / "std"
    shutil.copytree(stdlib.root() / "source", root / "source")

    def project():
        graph, projects, _ = build_graph([root], with_stdlib=False)
        return graph, projects[root.resolve()]

    before = {p.name: p.read_bytes() for p in (root / "source").iterdir()}
    graph, proj = project()
    extract(graph, proj)
    graph, proj = project()
    changed = integrate(graph, proj)
    after = {p.name: p.read_bytes() for p in (root / "source").iterdir()}
    untouched_ok = changed == [] and before == after

    # An edit inside a region survives integrate -> extract verbatim.
    stub = proj.generated_dir / "IntegerArith.native"
    marker, end = "// start IntegerArith?plus", "// end IntegerArith?plus"
    text = stub.read_text()
    edit = "  fold with exact integer addition (edited for criterion 7)"
    head, rest = text.split(marker)
    _, tail = rest.split(end, 1)
    stub.write_text(head + marker + "\n" + edit + "\n  " + end + tail)
    graph, proj = project()
    integrate(graph, proj)
    graph, proj = project()
    extract(graph, proj)
    region = (proj.generated_dir / "IntegerArith.native").read_text() \
        .split(marker)[1].split(end)[0]
    edit_ok = region == "\n" + edit + "\n  "
    announce(7, untouched_ok and edit_ok,
             "integrate(extract(stdlib)) changes zero bytes; region edits "
             "survive verbatim")


def test_criterion_8_http_integration(loaded):
    service = Service(loaded.graph, loaded.base)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        r1 = requests.post(f"{url}/simplify?scope=arith1", data="1+2",
                           headers={"Content-Type": "text/plain"})
        scenario = app(Const(rules.APPEND_MANY), clist(1, 2, 3), clist(4, 5),
                       clist(6, 7))
        r2 = requests.post(f"{url}/simplify", data=encode_xml(scenario),
                           headers={"Content-Type": OMXML})
        r3 = requests.post(f"{url}/simplify?scope=arith1", data="1+",
                           headers={"Content-Type": "text/plain"})
        r4 = requests.post(f"{url}/simplify?scope=arith1&fuel=1",
                           data="1+2*3",
                           headers={"Content-Type": "text/plain"})
        ok = (r1.status_code == 200 and r1.text == "3"
              and r2.status_code == 200
              and decode_xml(r2.text) == EXPECTED_LIST
              and r3.status_code == 400
              and r4.status_code == 422 and r4.text == "1+6"
              and r4.headers["X-Simplify-Exhausted"] == "true")
    finally:
        httpd.shutdown()
        httpd.server_close()
    announce(8, ok, 'text "1+2" -> "3"; XML scenario -> [1..7]; malformed '
                    "-> 400; fuel=1 -> 422 with partial result")


def test_criterion_9_parser_round_trip(loaded, scope_all):
    rng = random.Random(99)
    failures = 0
    for _ in range(1000):
        t = surface_term(rng, rng.randrange(1, 4))
        if parse_term(render_term(t, scope_all), scope_all) != t:
            failures += 1
    shape = parse_term("1+2*3", scope_all)
    plus = Const(GlobalName(CD, "arith1", "plus"))
    times = Const(GlobalName(CD, "arith1", "times"))
    shape_ok = shape == app(plus, IntLit(1),
                            app(times, IntLit(2), IntLit(3)))
    announce(9, failures == 0 and shape_ok,
             f"parse∘render identity on 1000 generated terms "
             f"({1000 - failures}/1000); 1+2*3 associates by precedence")


def test_criterion_10_rule_failure_totalization(loaded):
    head = GlobalName("um:/accept", "m", "fails")

    def broken(a):
        raise RuntimeError("deliberate failure")

    base = RuleBase([Rule(head, Fixed(1), broken)])
    for rule in loaded.base.rules():
        base.add(rule)
    redex = app(Const(head), IntLit(1))
    enclosing = app(Const(GlobalName(CD, "set1", "set")),
                    app(Const(GlobalName(CD, "arith1", "plus")),
                        IntLit(1), IntLit(2)),
                    redex)
    result = simplify(base, enclosing)
    expected = app(Const(GlobalName(CD, "set1", "set")), IntLit(3), redex)
    ok = (not result.exhausted and result.term == expected
          and result.term.simplified)
    announce(10, ok, "a raising rule leaves its redex unchanged and the "
                     "enclosing term still reaches a fixpoint")
