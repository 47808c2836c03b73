import time
from dataclasses import FrozenInstanceError

import pytest

from umachine.codegen import build_graph
from umachine.graph import (COMPUTATION, OPENMATH, Assignment, Constant,
                            DuplicateModuleError, Include, IncludeCycleError,
                            MorphismError, Theory, TheoryGraph,
                            UnresolvedModuleError, View,
                            CMP_FUNCTION, CMP_LIST, CMP_TERM, OM_MAPSTO,
                            OM_OBJECT)
from umachine.realization import SYNTACTIC, install_bifoundations
from umachine.notation import ParseScope, parse_term, render_term
from umachine.surface import parse_modules
from umachine.terms import Const, GlobalName, IntLit, ModuleRef, app

CD = "http://www.openmath.org/cd"


def test_flatten_lists_ext(loaded):
    g = loaded.graph
    flat = g.flatten(g.resolve("lists_ext"))
    names = [str(n.local) for n, _ in flat]
    assert names == ["lists?elem", "lists?list", "lists?nil", "lists?cons",
                     "lists?append", "lists_ext?append_many"]


def test_flatten_without_includes_keeps_declaration_order(loaded):
    g = loaded.graph
    flat = g.flatten(g.resolve("arith1"))
    assert [n.name for n, _ in flat] == ["plus", "minus", "times",
                                         "unary_minus", "power"]


def test_flatten_numbers_test_is_the_union(loaded):
    g = loaded.graph
    flat = [n for n, _ in g.flatten(g.resolve("NumbersTest"))]
    expected = []
    for ref in ("arith1", "fns1", "set1", "relation1"):
        expected.extend(n for n, _ in g.flatten(g.resolve(ref)))
    expected.append(g.resolve("NumbersTest").name("maptest"))
    assert flat == expected


def test_flatten_is_idempotent(loaded):
    g = loaded.graph
    ref = g.resolve("NumbersTest")
    once = g.flatten(ref)
    flat_theory = Theory(ModuleRef("um:/tmp", "flatNT"), meta=OPENMATH,
                         declarations=[c for _, c in once])
    g2 = TheoryGraph()
    g2.add(flat_theory)
    again = g2.flatten(flat_theory.name)
    assert [c for _, c in again] == [c for _, c in once]


def test_repeated_include_is_a_noop():
    g = TheoryGraph()
    a = Theory(ModuleRef("um:/t", "A"), meta=OPENMATH,
               declarations=[Constant("c")])
    g.add(a)
    b = Theory(ModuleRef("um:/t", "B"), meta=OPENMATH,
               declarations=[Include(a.name), Include(a.name)])
    g.add(b)
    assert [n.local for n, _ in g.flatten(b.name)] == ["A?c"]


def test_include_cycle_is_detected():
    g = TheoryGraph()
    a = Theory(ModuleRef("um:/t", "A"), meta=OPENMATH,
               declarations=[Include(ModuleRef("um:/t", "B"))])
    b = Theory(ModuleRef("um:/t", "B"), meta=OPENMATH,
               declarations=[Include(a.name)])
    g.add(a, b)
    with pytest.raises(IncludeCycleError) as e:
        g.flatten(a.name)
    assert str(e.value) == "include cycle: um:/t?A -> um:/t?B -> um:/t?A"
    # The cycle is named from the walk's root to the module met again.
    c = Theory(ModuleRef("um:/t", "C"), meta=OPENMATH,
               declarations=[Include(b.name)])
    g.add(c)
    with pytest.raises(IncludeCycleError) as e:
        g.flatten(c.name)
    assert str(e.value) == ("include cycle: um:/t?C -> um:/t?B -> um:/t?A"
                            " -> um:/t?B")


def _include_chain(n: int) -> TheoryGraph:
    """A graph of ``n`` theories, each including the one before."""
    g = TheoryGraph()
    g.add(*[Theory(ModuleRef("um:/chain", f"t{i}"), meta=None, declarations=[
        *([Include(ModuleRef("um:/chain", f"t{i - 1}"))] if i else []),
        Constant("c")]) for i in range(n)])
    return g


def test_flatten_walks_an_include_chain_in_linear_time():
    def seconds(n):
        g = _include_chain(n)
        last = ModuleRef("um:/chain", f"t{n - 1}")
        assert len(g.flatten(last)) == n
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            g.flatten(last)
            best = min(best, time.perf_counter() - start)
        return best

    # Far deeper than the recursion limit; 4 times longer takes about 4
    # times as long (a walk that scanned the modules under way would take
    # 16 times).
    assert seconds(8000) < 8 * seconds(2000)


# -- scopes ------------------------------------------------------------------

OPENMATH_NAMES = ["OpenMath?mapsto", "OpenMath?Object", "OpenMath?naryObject",
                  "OpenMath?binder", "OpenMath?FMP"]


def _theory(g, name, *decls, meta=OPENMATH):
    t = Theory(ModuleRef("um:/t", name), meta=meta, declarations=[
        Constant(d) if isinstance(d, str) else d for d in decls])
    g.add(t)
    return t


def test_scope_lists_an_included_meta_theory_once_at_the_include():
    g = TheoryGraph()
    m = _theory(g, "M", "m1", "m2")
    t = _theory(g, "T", "c1", Include(m.name), "c2", meta=m.name)
    assert list(g.scope_for(t.name).by_qualified) == [
        "T?c1", "M?m1", "M?m2", "T?c2", *OPENMATH_NAMES]


def test_scope_over_several_theories_lists_a_shared_include_once():
    g = TheoryGraph()
    a = _theory(g, "A", "a1", "a2")
    b = _theory(g, "B", Include(a.name), "b1")
    scope = ParseScope(g.scope_for(a.name), g.scope_for(b.name))
    assert list(scope.by_qualified) == [
        "A?a1", "A?a2", *OPENMATH_NAMES, "B?b1"]


def test_bare_name_resolves_to_the_include_before_the_meta_theory():
    g = TheoryGraph()
    m = _theory(g, "M", "x")
    i = _theory(g, "I", "x")
    t = _theory(g, "T", Include(i.name), meta=m.name)
    scope = g.scope_for(t.name)
    assert scope.by_local["x"] == i.name.name("x")
    assert parse_term("x", scope) == Const(i.name.name("x"))


def test_scope_ends_a_meta_cycle_and_raises_on_an_include_cycle():
    g = TheoryGraph()
    a = _theory(g, "A", "a", meta=ModuleRef("um:/t", "B"))
    b = _theory(g, "B", "b", meta=a.name)
    assert list(g.scope_for(a.name).by_qualified) == ["A?a", "B?b"]
    c = _theory(g, "C", Include(ModuleRef("um:/t", "D")))
    _theory(g, "D", Include(c.name))
    with pytest.raises(IncludeCycleError):
        ParseScope(*map(g.scope_for, [a.name, c.name]))


def test_resolve_qualified_reference(loaded):
    g = loaded.graph
    assert g.resolve(f" {CD}?arith1 ") == ModuleRef(CD, "arith1")
    with pytest.raises(UnresolvedModuleError):
        g.resolve(f"{CD}?nosuch")
    with pytest.raises(UnresolvedModuleError):
        g.resolve("um:/nosuch?arith1")


def test_duplicate_module_rejected():
    g = TheoryGraph()
    g.add(Theory(ModuleRef("um:/t", "A")))
    with pytest.raises(DuplicateModuleError):
        g.add(Theory(ModuleRef("um:/t", "A")))


def test_add_registers_a_batch_whole_or_not_at_all():
    g = TheoryGraph()
    g.add(Theory(ModuleRef("um:/t", "A")))
    before = dict(g.modules)
    for names in (["B", "A"], ["C", "C"]):
        with pytest.raises(DuplicateModuleError, match="already loaded"):
            g.add(*(Theory(ModuleRef("um:/t", n)) for n in names))
        assert g.modules == before
    with pytest.raises(UnresolvedModuleError):
        g.resolve("B")


def test_a_module_is_a_value_checked_once():
    t = Theory(ModuleRef("um:/t", "T"), declarations=[Constant("c")])
    assert t.declarations == (Constant("c"),)
    with pytest.raises(FrozenInstanceError):
        t.declarations = ()
    with pytest.raises(FrozenInstanceError):
        t.declarations[0].name = "d"
    with pytest.raises(DuplicateModuleError,
                       match="duplicate constant c in um:/t\\?T"):
        Theory(t.name, declarations=[Constant("c"), Include(OPENMATH),
                                     Constant("c")])
    with pytest.raises(DuplicateModuleError,
                       match="duplicate assignment c in um:/t\\?V"):
        View(ModuleRef("um:/t", "V"), OPENMATH, COMPUTATION,
             statements=[Assignment("c", IntLit(1)),
                         Assignment("c", IntLit(2))])


def test_an_unregistered_theory_gets_the_scope_registering_it_gives():
    # A theory registered after the scopes it reads were kept gets the
    # scope of a graph that registers it with the rest.
    def graph():
        g = TheoryGraph()
        return g, _theory(g, "M", "m1"), _theory(g, "I", "i1")

    g, m, i = graph()
    g.scope_for(m.name)
    g.scope_for(i.name)
    t = _theory(g, "T", "c1", Include(i.name), meta=m.name)
    fresh, _, _ = graph()
    fresh.add(t)
    assert list(g.scope_for(t.name).by_qualified) == ["T?c1", "I?i1", "M?m1",
                                                      *OPENMATH_NAMES]
    assert list(g.scope_for(t.name).by_qualified) == \
        list(fresh.scope_for(t.name).by_qualified)


# -- views -------------------------------------------------------------------

PARTIAL_VIEW = """
document http://www.openmath.org/cd

view NumberArith : arith1 -> Computation
  constant plus = (args: List[Term]) "
  "
  constant minus = (a: Term, b: Term) "
    (OMI(x), OMI(y)) -> OMI(x - y)
  "
  constant times = (args: List[Term]) "integer product"
  constant unary_minus = (a: Term) "integer negation"
  constant power = (a: Term, b: Term) "integer exponentiation"
"""


def _graph_with_partial_view():
    from umachine.codegen import build_graph
    graph, _, _ = build_graph()
    parse_modules(graph, PARTIAL_VIEW, "numberarith.mmt")
    return graph


def test_check_view_names_the_stub():
    graph = _graph_with_partial_view()
    missing = graph.check_view(graph.resolve("NumberArith"))
    assert [m.local for m in missing] == ["arith1?plus"]


def test_check_view_total_view_is_clean(loaded):
    g = loaded.graph
    assert g.check_view(g.resolve("IntegerArith")) == []
    assert g.check_view(SYNTACTIC) == []


def test_check_view_ignores_defined_constants():
    g = TheoryGraph()
    t = Theory(ModuleRef("um:/t", "T"), meta=OPENMATH,
               declarations=[Constant("c", definiens=IntLit(1))])
    g.add(t)
    from umachine.graph import View
    v = View(ModuleRef("um:/t", "V"), domain=t.name, codomain=COMPUTATION)
    g.add(v)
    assert g.check_view(v.name) == []


# -- morphism application -------------------------------------------------------

def test_apply_morphism_object_to_term(loaded):
    g = loaded.graph
    assert g.apply_morphism(SYNTACTIC, Const(OM_OBJECT)) == Const(CMP_TERM)


def test_apply_morphism_fixes_literals(loaded):
    assert loaded.graph.apply_morphism(SYNTACTIC, IntLit(7)) == IntLit(7)


def test_apply_morphism_is_homomorphic(loaded):
    # mapsto(Object, Object) maps to Function(Term, Term) under the
    # syntactic embedding (computed by hand from its assignments).
    g = loaded.graph
    t = app(Const(OM_MAPSTO), Const(OM_OBJECT), Const(OM_OBJECT))
    assert g.apply_morphism(SYNTACTIC, t) == app(
        Const(CMP_FUNCTION), Const(CMP_TERM), Const(CMP_TERM))


def test_apply_morphism_unassigned_constant_is_an_error(loaded):
    g = loaded.graph
    stray = Const(GlobalName(CD, "arith1", "plus"))
    with pytest.raises(MorphismError):
        g.apply_morphism(SYNTACTIC, stray)


def test_a_definiens_that_names_itself_does_not_expand_forever():
    g = TheoryGraph()
    install_bifoundations(g)
    t = Theory(ModuleRef("um:/p", "T"), declarations=[
        Constant("o"),
        Constant("d", definiens=app(Const(GlobalName("um:/p", "T", "d")),
                                    Const(GlobalName("um:/p", "T", "o"))))])
    v = View(ModuleRef("um:/p", "V"), domain=t.name, codomain=COMPUTATION,
             statements=[Assignment("o", Const(CMP_TERM))])
    g.add(t, v)
    assert g.apply_morphism(v.name, Const(t.name.name("o"))) == Const(CMP_TERM)
    with pytest.raises(MorphismError,
                       match="^definiens expansion does not terminate$"):
        g.apply_morphism(v.name, Const(t.name.name("d")))


# -- pushout ---------------------------------------------------------------------

def test_pushout_arith1_along_syntactic(loaded):
    g = loaded.graph
    out = g.pushout(SYNTACTIC, g.resolve("arith1"))
    assert out.meta == COMPUTATION
    plus = out.constant("plus")
    # naryObject -> Object becomes Function(List[Term], Term).
    assert plus.type == app(Const(CMP_FUNCTION),
                            app(Const(CMP_LIST), Const(CMP_TERM)),
                            Const(CMP_TERM))
    assert [c.name for c in out.constants()] == \
        [c.name for c in g.theory(g.resolve("arith1")).constants()]


def test_pushout_types_read_back_in_its_scope():
    # Each type is a Computation?Function term, which renders call-style.
    g, _, _ = build_graph()
    out = g.pushout(SYNTACTIC, g.resolve("arith1"))
    g.add(out)
    scope = g.scope_for(out.name)
    types = [c.type for c in out.constants() if c.type is not None]
    assert types and all(t.head == Const(CMP_FUNCTION) for t in types)
    for t in types:
        assert parse_term(render_term(t, scope), scope) == t


def test_pushout_of_empty_theory(loaded):
    g = TheoryGraph()
    install_bifoundations(g)
    empty = Theory(ModuleRef("um:/t", "E"), meta=OPENMATH)
    g.add(empty)
    out = g.pushout(SYNTACTIC, empty.name)
    assert out.meta == COMPUTATION and out.declarations == ()


def test_pushout_along_identity_is_renaming():
    from umachine.graph import View, Assignment
    g = TheoryGraph()
    ident = View(ModuleRef("um:/t", "Id"), domain=OPENMATH, codomain=OPENMATH,
                 statements=[Assignment(name, Const(OPENMATH.name(name)))
                             for name in ("mapsto", "Object", "naryObject",
                                          "binder", "FMP")])
    g.add(ident)
    t = Theory(ModuleRef("um:/t", "T"), meta=OPENMATH,
               declarations=[Constant("c", type=Const(OM_OBJECT))])
    g.add(t)
    out = g.pushout(ident.name, t.name)
    assert out.meta == OPENMATH
    assert [c.name for c in out.constants()] == ["c"]
    assert out.constant("c").type == Const(OM_OBJECT)


def test_pushout_falls_back_to_the_definiens():
    # V assigns only o, which check_view calls total because d = o has a
    # definiens; the pushout translates S's type d as apply_morphism does.
    g = TheoryGraph()
    install_bifoundations(g)
    t = Theory(ModuleRef("um:/p", "T"), declarations=[
        Constant("o"), Constant("d", definiens=Const(GlobalName("um:/p", "T", "o")))])
    v = View(ModuleRef("um:/p", "V"), domain=t.name, codomain=COMPUTATION,
             statements=[Assignment("o", Const(CMP_TERM))])
    s = Theory(ModuleRef("um:/p", "S"), meta=t.name, declarations=[
        Constant("c", type=Const(t.name.name("d")))])
    g.add(t, v, s)
    assert g.check_view(v.name) == []
    assert g.apply_morphism(v.name, Const(t.name.name("d"))) == Const(CMP_TERM)
    out = g.pushout(v.name, s.name)
    assert out.meta == COMPUTATION
    assert out.constant("c").type == Const(CMP_TERM)


def test_pushout_meta_mismatch(loaded):
    g = loaded.graph
    with pytest.raises(MorphismError):
        g.pushout(SYNTACTIC, COMPUTATION)  # Computation has no meta-theory


def test_local_assignments_shadow_included_views():
    # Assignment lookup: local statements first, then included views in order.
    from umachine.graph import Assignment, View, CMP_ANY
    from umachine.realization import install_bifoundations
    g = TheoryGraph()
    install_bifoundations(g)
    t = Theory(ModuleRef("um:/t", "T"), meta=OPENMATH,
               declarations=[Constant("c")])
    g.add(t)
    inner = View(ModuleRef("um:/t", "Inner"), domain=t.name,
                 codomain=COMPUTATION,
                 statements=[Assignment("c", Const(CMP_TERM))])
    g.add(inner)
    from umachine.graph import Include
    outer = View(ModuleRef("um:/t", "Outer"), domain=t.name,
                 codomain=COMPUTATION,
                 statements=[Include(inner.name),
                             Assignment("c", Const(CMP_ANY))])
    g.add(outer)
    provider, a = g.assignments(outer.name)[t.name.name("c")]
    assert provider == outer.name and a.target == Const(CMP_ANY)
    # Without a local assignment the included view provides it.
    bare = View(ModuleRef("um:/t", "Bare"), domain=t.name,
                codomain=COMPUTATION, statements=[Include(inner.name)])
    g.add(bare)
    provider, a = g.assignments(bare.name)[t.name.name("c")]
    assert provider == inner.name and a.target == Const(CMP_TERM)


def test_morphism_resolves_meta_constants_through_included_views():
    # A view over a CD delegates meta-theory constants to an included
    # embedding, so types translate through it as well.
    from umachine.graph import Assignment, View, Include
    from umachine.realization import SYNTACTIC as SYN, install_bifoundations
    g = TheoryGraph()
    install_bifoundations(g)
    t = Theory(ModuleRef("um:/t", "T"), meta=OPENMATH,
               declarations=[Constant("c", type=Const(OM_OBJECT))])
    g.add(t)
    v = View(ModuleRef("um:/t", "V"), domain=t.name, codomain=COMPUTATION,
             statements=[Include(SYN), Assignment("c", Const(CMP_TERM))])
    g.add(v)
    translated = g.apply_morphism(
        v.name, app(Const(OM_MAPSTO), Const(OM_OBJECT), Const(OM_OBJECT)))
    assert translated == app(Const(CMP_FUNCTION), Const(CMP_TERM),
                             Const(CMP_TERM))
    assert g.apply_morphism(v.name, Const(t.name.name("c"))) == Const(CMP_TERM)


def test_total_view_gives_total_morphism(loaded):
    # check_view == [] implies apply_morphism is defined on every term over
    # the flattened domain.
    g = loaded.graph
    ia = g.resolve("IntegerArith")
    assert g.check_view(ia) == []
    every = app(*(Const(n) for n, _ in g.flatten(g.resolve("arith1"))))
    g.apply_morphism(ia, every)  # must not raise


def test_morphism_commutes_with_closed_substitution(loaded):
    # Functoriality on terms: translate-then-substitute equals
    # substitute-then-translate for closed replacement terms, on random
    # small terms over the embedding's domain.
    import random
    from umachine.graph import OM_NARYOBJECT
    from umachine.terms import Var, substitute
    g = loaded.graph
    rng = random.Random(31)
    consts = [Const(OM_OBJECT), Const(OM_NARYOBJECT), Const(OM_MAPSTO)]

    def gen(depth, closed=False):
        if depth == 0:
            leaves = consts + [IntLit(7)]
            if not closed:
                leaves = leaves + [Var("x"), Var("y")]
            return rng.choice(leaves)
        return app(rng.choice(consts),
                   *[gen(depth - 1, closed) for _ in range(rng.randrange(1, 4))])

    for _ in range(200):
        body = gen(rng.randrange(1, 4))
        repl = {"x": gen(rng.randrange(0, 2), closed=True),
                "y": rng.choice(consts)}
        lhs = g.apply_morphism(SYNTACTIC, substitute(body, repl))
        rhs = substitute(g.apply_morphism(SYNTACTIC, body),
                         {k: g.apply_morphism(SYNTACTIC, v)
                          for k, v in repl.items()})
        assert lhs == rhs
