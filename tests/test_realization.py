import re

import pytest

from umachine.codegen import build_graph
from umachine.graph import TheoryGraph, LISTS_DOC_BASE
from umachine.realization import (LOGIC1_TRUE, SEMANTIC, SYNTACTIC,
                                  ArityMismatchError, RealizationError,
                                  TestCase, collect_tests, commutes, rules_of,
                                  run_tests)
from umachine.sts import Fixed, Flexible
from umachine.surface import parse_modules
from umachine.terms import Const, GlobalName, IntLit

CD = "http://www.openmath.org/cd"

NUMBER_ARITH = """
document http://www.openmath.org/cd

view NumberArithX : arith1 -> Computation
  constant plus = (args: List[Term]) "
  "
  constant minus = (a: Term, b: Term) "(OMI(x), OMI(y)) -> OMI(x - y)"
  constant times = (args: List[Term]) "integer product"
  constant unary_minus = (a: Term) "integer negation"
  constant power = (a: Term, b: Term) "integer exponentiation"
"""


def _minus(a, b):
    if isinstance(a, IntLit) and isinstance(b, IntLit):
        return IntLit(a.value - b.value)
    return None


def _registry(**overrides):
    from umachine.stdlib import rules
    reg = {
        "NumberArithX?minus": _minus,
        "NumberArithX?times": rules.times,
        "NumberArithX?unary_minus": rules.unary_minus,
        "NumberArithX?power": rules.power,
    }
    reg.update(overrides)
    return reg


def test_rules_of_partial_realization():
    graph, _, _ = build_graph()
    parse_modules(graph, NUMBER_ARITH, "na.mmt")
    ref = graph.resolve("NumberArithX")
    assert commutes(graph, ref)
    report = rules_of(graph, ref, registry=_registry())
    minus = GlobalName(CD, "arith1", "minus")
    assert report.base.get(minus).arity == Fixed(2)
    assert [g.local for g in report.unimplemented] == ["arith1?plus"]


def test_rules_of_empty_view():
    graph, _, _ = build_graph()
    parse_modules(graph, "document um:/t\n\n"
                         "view Empty : arith1 -> Computation\n", "e.mmt")
    report = rules_of(graph, graph.resolve("Empty"), registry={})
    assert len(report.base) == 0 and report.unimplemented == []


def test_rules_of_lists_realizations(loaded):
    g = loaded.graph
    report = rules_of(g, g.resolve("ListsExtImpl"))
    append = GlobalName(LISTS_DOC_BASE, "lists", "append")
    many = GlobalName(LISTS_DOC_BASE, "lists_ext", "append_many")
    assert report.base.get(append).arity == Fixed(2)
    assert report.base.get(many).arity == Flexible(0)
    assert report.unimplemented == []


def test_arity_mismatch_is_an_error():
    # ``minus`` is typed ``Object × Object → Object``, arity 2.
    graph, _, _ = build_graph()
    parse_modules(graph, NUMBER_ARITH, "na.mmt")
    bad = _registry(**{"NumberArithX?minus": lambda a: None})
    with pytest.raises(ArityMismatchError,
                       match=r"arith1\?minus: .*<lambda> .* arity 2"):
        rules_of(graph, graph.resolve("NumberArithX"), registry=bad)


@pytest.mark.parametrize("constant, fn, arity", [
    ("constant f : naryObject → Object", lambda a, b: None, "0*"),
    ("constant f", lambda a: None, "0"),
], ids=["a flexible constant", "an untyped constant"])
def test_a_function_that_cannot_take_its_constants_arity_is_refused(
        constant, fn, arity):
    graph, _, _ = build_graph()
    parse_modules(graph, f"""document um:/t

theory T : OpenMath
  {constant}

view V : T -> Computation
  constant f = (a: Term) "native"
""", "t.mmt")
    ref = graph.resolve("V")
    with pytest.raises(ArityMismatchError,
                       match=rf"T\?f: .* arity {re.escape(arity)}$"):
        rules_of(graph, ref, registry={"V?f": fn})
    # The same view loads with a function that takes the arity's arguments.
    report = rules_of(graph, ref, registry={"V?f": lambda *args: None})
    assert str(next(report.base.rules()).arity) == arity


def test_a_constant_of_arity_0_is_a_value_whatever_its_snippet():
    # Only a function can be unimplemented: an untyped constant takes no
    # arguments, so a parameter list on its snippet (which ``um check``
    # refuses) asks for nothing.
    graph, _, _ = build_graph(with_stdlib=False)
    parse_modules(graph, """document um:/t
theory T : OpenMath
  constant f
  constant g : Object → Object
view V : T -> Computation
  constant f = (a: Term) "a"
  constant g = (a: Term) "a"
""", "t.mmt")
    report = rules_of(graph, graph.resolve("V"), registry={})
    assert [g.local for g in report.unimplemented] == ["T?g"]


def test_non_syntactic_realizations_are_rejected():
    graph, _, _ = build_graph()
    parse_modules(graph, NUMBER_ARITH, "na.mmt")
    ref = graph.resolve("NumberArithX")
    assert not commutes(graph, ref, embed=SEMANTIC)
    with pytest.raises(RealizationError):
        rules_of(graph, ref, registry=_registry(), embed=SEMANTIC)


def test_all_shipped_realizations_commute(loaded):
    from umachine.codegen import realization_views
    for view in realization_views(loaded.graph):
        assert commutes(loaded.graph, view.name), view.name


def test_bifoundation_embeddings_are_total(loaded):
    assert loaded.graph.check_view(SYNTACTIC) == []
    assert loaded.graph.check_view(SEMANTIC) == []


def test_rule_heads_are_declared(loaded):
    declared = set()
    for view in loaded.graph.views():
        if view.name in (SYNTACTIC, SEMANTIC):
            continue
        declared |= {g for g, _ in loaded.graph.flatten(view.domain)}
    for rule in loaded.base.rules():
        assert rule.head in declared


def test_minimal_redexes_select_the_rule(loaded):
    from umachine.machine import _select_rule
    from umachine.sts import Binder, Fixed, Flexible
    from umachine.terms import Var
    for rule in loaded.base.rules():
        if isinstance(rule.arity, Binder):
            redex = rule.make_redex(("x",), Var("x"))
        elif isinstance(rule.arity, Flexible):
            redex = rule.make_redex(*[Var(f"a{i}")
                                      for i in range(rule.arity.n + 1)])
        elif rule.arity.n == 0:
            redex = rule.make_redex()
        else:
            redex = rule.make_redex(*[Var(f"a{i}")
                                      for i in range(rule.arity.n)])
        hit = _select_rule(loaded.base, redex)
        assert hit is not None and hit[0] is rule


# -- FMP harness ---------------------------------------------------------------------

def test_collect_tests_finds_maptest(loaded):
    cases = collect_tests(loaded.graph)
    assert [c.origin.local for c in cases] == ["NumbersTest?maptest"]


def test_collect_tests_empty_graph():
    assert collect_tests(TheoryGraph()) == []


def test_collect_tests_two_cases_in_order():
    graph, _, _ = build_graph()
    src = """
document um:/t

theory Two : OpenMath
  include arith1
  include relations1
  constant first = FMP(1+1 = 2)
  constant second = FMP(2*2 = 4)
"""
    parse_modules(graph, src, "two.mmt")
    cases = collect_tests(graph)
    assert [c.origin.name for c in cases][-2:] == ["first", "second"]


def test_run_tests_stdlib_passes(loaded):
    report = run_tests(loaded.graph, loaded.base, collect_tests(loaded.graph))
    assert report.passed == report.total == 1
    assert report.lines()[0].startswith("PASS")
    assert report.lines()[-1] == "passed 1/1"


def test_run_tests_failing_case_reports_residual(loaded):
    graph, _, _ = build_graph()
    parse_modules(graph, """
document um:/t

theory Wrong : OpenMath
  include arith1
  include relations1
  constant claim = FMP(1+1 = 3)
""", "wrong.mmt")
    from umachine.codegen import load
    base, _ = load(graph)
    cases = [c for c in collect_tests(graph) if c.origin.name == "claim"]
    report = run_tests(graph, base, cases)
    assert report.passed == 0 and report.total == 1
    line = report.lines()[0]
    assert line.startswith("FAIL") and "logic1?false" in line


def test_run_tests_empty_set(loaded):
    report = run_tests(loaded.graph, loaded.base, [])
    assert report.lines() == ["passed 0/0"]


def test_expected_value_is_logic1_true():
    case = TestCase(GlobalName(CD, "t", "c"), IntLit(1))
    assert case.expected == Const(LOGIC1_TRUE)
