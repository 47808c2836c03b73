"""``TheoryGraph.assignments``: one walk per view, checked against the
recursive per-name search it replaces, and linear on diamond includes."""

import random

import pytest

from umachine.codegen import build_graph
from umachine.graph import (CMP_TERM, COMPUTATION, OM_OBJECT, OPENMATH,
                            Assignment, Constant, Include, Theory, TheoryGraph,
                            UnresolvedModuleError, View)
from umachine.realization import (SYNTACTIC, commutes,
                                  install_bifoundations, rules_of)
from umachine.terms import Const, IntLit, ModuleRef, StrLit


def resolve_by_search(graph, vref, g, _seen=frozenset()):
    """Reference: the assignment for ``g``, searched name by name.  Local
    statements first, then included views in order; each view visited is
    matched against its own flattened domain."""
    if vref in _seen:
        return None
    v = graph.view(vref)
    domain_names = {h for h, _ in graph.flatten(v.domain)}
    if g in domain_names:
        a = v.assignment(g.name)
        if a is not None:
            return (vref, a)
    for inc in v.includes():
        hit = resolve_by_search(graph, inc.target, g, _seen | {vref})
        if hit is not None:
            return hit
    return None


def _every_constant(graph):
    return [m.name.name(c.name) for m in graph.modules.values()
            if isinstance(m, Theory) for c in m.constants()]


def test_agrees_with_the_search_on_the_stdlib():
    graph, _, _ = build_graph()
    names = _every_constant(graph)
    for v in graph.views():
        table = graph.assignments(v.name)
        for g in names:
            assert table.get(g) == resolve_by_search(graph, v.name, g), \
                (v.name, g)


def _random_graph(rng: random.Random) -> TheoryGraph:
    """Theories over a small pool of local names (so domains share names),
    and views with random assignments, some outside their domain, and
    random includes: self-includes, cycles and diamonds among them."""
    graph = TheoryGraph()
    pool = ["a", "b", "c", "d", "e"]
    theories = []
    for i in range(rng.randrange(1, 5)):
        includes = [Include(t.name) for t in theories if rng.random() < 0.4]
        consts = [Constant(n) for n in rng.sample(pool, rng.randrange(0, 4))]
        theories.append(Theory(ModuleRef("um:/r", f"T{i}"), meta=OPENMATH,
                               declarations=includes + consts))
    graph.add(*theories)
    refs = [ModuleRef("um:/r", f"V{i}") for i in range(rng.randrange(1, 9))]
    views = []
    for i, ref in enumerate(refs):
        assigned = [Assignment(n, StrLit(f"{ref.module}.{n}"))
                    for n in rng.sample(pool, rng.randrange(0, 4))]
        targets = rng.sample(refs, rng.randrange(0, min(4, len(refs)) + 1))
        if i >= 2 and rng.random() < 0.5:  # a diamond over the two before
            targets += [refs[i - 1], refs[i - 2]]
        statements = assigned + [Include(t) for t in targets]
        rng.shuffle(statements)
        views.append(View(ref, domain=rng.choice(theories).name,
                          codomain=COMPUTATION, statements=statements))
    graph.add(*views)
    return graph


@pytest.mark.parametrize("seed", range(60))
def test_agrees_with_the_search_on_random_view_graphs(seed):
    graph = _random_graph(random.Random(seed))
    names = _every_constant(graph)
    for v in graph.views():
        table = graph.assignments(v.name)
        for g in names:
            assert table.get(g) == resolve_by_search(graph, v.name, g), \
                (v.name, g)


def _diamond(levels: int):
    """A chain of diamonds: each of two views per level includes both views
    of the level below; the bottom view assigns every constant but ``d``,
    the top view includes the two views of the last level.  A search for
    ``d`` by name walks every one of the 2^levels include paths."""
    graph = TheoryGraph()
    install_bifoundations(graph)
    t = Theory(ModuleRef("um:/d", "T"), meta=OPENMATH, declarations=[
        Constant(n, type=Const(OM_OBJECT)) for n in ("a", "b", "c", "d")])
    bottom = View(ModuleRef("um:/d", "V0"), domain=t.name,
                  codomain=COMPUTATION, statements=[
                      Assignment(n, Const(CMP_TERM)) for n in ("a", "b", "c")])
    views, below = [bottom], [bottom.name]
    for i in range(1, levels + 1):
        level = [View(ModuleRef("um:/d", f"{side}{i}"), domain=t.name,
                      codomain=COMPUTATION,
                      statements=[Include(r) for r in below])
                 for side in "LR"]
        views += level
        below = [v.name for v in level]
    top = View(ModuleRef("um:/d", "Top"), domain=t.name, codomain=COMPUTATION,
               statements=[Include(r) for r in below])
    graph.add(t, *views, top)
    return graph, top.name, len(views) + 1


@pytest.fixture()
def view_calls(monkeypatch):
    calls = []
    view = TheoryGraph.view

    def counting(self, ref):
        calls.append(ref)
        return view(self, ref)

    monkeypatch.setattr(TheoryGraph, "view", counting)
    return calls


def test_check_view_on_a_diamond_is_linear_in_its_views(view_calls):
    graph, top, n_views = _diamond(10)
    assert n_views == 22
    assert graph.check_view(top) == [ModuleRef("um:/d", "T").name("d")]
    assert len(view_calls) <= 2 * n_views


def test_rules_of_on_a_diamond_is_linear_in_its_views(view_calls):
    graph, top, n_views = _diamond(10)

    def one():
        return IntLit(1)

    registry = {"V0?a": one}
    report = rules_of(graph, top, registry=registry)
    assert [r.head.name for r in report.base.rules()] == ["a"]
    assert len(view_calls) <= 3 * n_views


def test_commutes_builds_each_table_once(monkeypatch):
    graph, _, _ = build_graph()
    ref = graph.resolve("IntegerArith")
    calls = []
    assignments = TheoryGraph.assignments

    def counting(self, vref):
        calls.append(vref)
        return assignments(self, vref)

    monkeypatch.setattr(TheoryGraph, "assignments", counting)
    assert commutes(graph, ref)
    assert sorted(map(str, calls)) == sorted(map(str, [ref, SYNTACTIC]))


def test_an_included_view_that_cannot_be_walked_fails_every_lookup():
    # The table is built whole, so an included view whose domain does not
    # flatten fails a lookup the view itself could answer.
    graph = TheoryGraph()
    t = Theory(ModuleRef("um:/t", "T"), meta=OPENMATH,
               declarations=[Constant("c")])
    broken = Theory(ModuleRef("um:/t", "Broken"), meta=OPENMATH,
                    declarations=[Include(ModuleRef("um:/t", "Missing"))])
    w = View(ModuleRef("um:/t", "W"), domain=broken.name,
             codomain=COMPUTATION)
    own = Assignment("c", Const(CMP_TERM))
    v = View(ModuleRef("um:/t", "V"), domain=t.name, codomain=COMPUTATION,
             statements=[own, Include(w.name)])
    graph.add(t, broken, w, v)
    assert resolve_by_search(graph, v.name, t.name.name("c")) == (v.name, own)
    with pytest.raises(UnresolvedModuleError, match=r"um:/t\?Missing"):
        graph.assignments(v.name)
    with pytest.raises(UnresolvedModuleError, match=r"um:/t\?Missing"):
        graph.check_view(v.name)
