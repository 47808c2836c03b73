import pytest

from umachine.graph import (OM_BINDER, OM_MAPSTO, OM_NARYOBJECT, OM_OBJECT,
                            OPENMATH, Constant, Theory, TheoryGraph)
from umachine.codegen import build_graph
from umachine.sts import (BINDER, Fixed, Flexible, IllFormedTypeError,
                          argument_count, arity_of, lint_theory, lint_view,
                          well_formed_type)
from umachine.surface import parse_modules
from umachine.terms import Bind, Const, IntLit, ModuleRef, Var, app

OBJ = Const(OM_OBJECT)
NARY = Const(OM_NARYOBJECT)


def mapsto(*args):
    return app(Const(OM_MAPSTO), *args)


def test_object_is_well_formed():
    assert well_formed_type(OBJ)


def test_nary_to_object_is_well_formed():
    assert well_formed_type(mapsto(NARY, OBJ))


def test_bare_nary_is_not_a_type():
    assert not well_formed_type(NARY)


def test_binder_is_well_formed():
    assert well_formed_type(Const(OM_BINDER))


def test_result_must_be_object():
    assert not well_formed_type(mapsto(OBJ, NARY))


def test_arity_binary():
    assert arity_of(mapsto(OBJ, OBJ, OBJ)) == Fixed(2)


def test_arity_flexible():
    assert arity_of(mapsto(NARY, OBJ)) == Flexible(0)
    assert arity_of(mapsto(OBJ, NARY, OBJ)) == Flexible(1)


def test_arity_binder_and_object():
    assert arity_of(Const(OM_BINDER)) == BINDER
    assert arity_of(OBJ) == Fixed(0)


def test_arity_rejects_ill_formed():
    with pytest.raises(IllFormedTypeError):
        arity_of(NARY)


# -- lint -----------------------------------------------------------------------

def _theory_with(defs):
    g = TheoryGraph()
    t = Theory(ModuleRef("um:/lint", "T"), meta=OPENMATH, declarations=[
        Constant("minus", type=mapsto(OBJ, OBJ, OBJ)),
        Constant("plus", type=mapsto(NARY, OBJ)),
        *(Constant(name, definiens=term) for name, term in defs)])
    g.add(t)
    return g, t


def test_lint_flags_fixed_arity_violation():
    g, t = _theory_with([("bad", app(Const(t_name("minus")), IntLit(1)))])
    diags = lint_theory(g, t.name)
    assert len(diags) == 1
    assert "minus" in str(diags[0]) and "error" in str(diags[0])


def t_name(n):
    return ModuleRef("um:/lint", "T").name(n)


def test_lint_allows_single_argument_sequences():
    g, t = _theory_with([("ok", app(Const(t_name("plus")), IntLit(1)))])
    assert lint_theory(g, t.name) == []


def test_lint_flags_ill_formed_type():
    g = TheoryGraph()
    t = Theory(ModuleRef("um:/lint", "T2"), meta=OPENMATH,
               declarations=[Constant("c", type=NARY)])
    g.add(t)
    diags = lint_theory(g, t.name)
    assert len(diags) == 1 and "ill-formed" in str(diags[0])


def test_lint_flags_non_binder_in_binding_position():
    g, t = _theory_with([
        ("bad", Bind(Const(t_name("minus")), ("x",), Var("x")))])
    diags = lint_theory(g, t.name)
    assert len(diags) == 1 and "binder" in str(diags[0])


def test_lint_flags_too_few_sequence_arguments_and_an_applied_binder():
    ref = ModuleRef("um:/lint", "T3")
    t = Theory(ref, meta=OPENMATH, declarations=[
        Constant("fold", type=mapsto(OBJ, OBJ, NARY, OBJ)),
        Constant("lam", type=Const(OM_BINDER)),
        Constant("few", definiens=app(Const(ref.name("fold")), IntLit(1))),
        Constant("enough", definiens=app(Const(ref.name("fold")),
                                         IntLit(1), IntLit(2))),
        Constant("applied", definiens=app(Const(ref.name("lam")),
                                          IntLit(1)))])
    g = TheoryGraph()
    g.add(t)
    assert [str(d) for d in lint_theory(g, ref)] == [
        "error -:0 T3?few T3?fold expects at least 2 argument(s), got 1",
        "error -:0 T3?applied T3?lam is a binder, not an operator"]


def test_stdlib_theories_lint_clean(loaded):
    g = loaded.graph
    for name in ("arith1", "logic1", "relation1", "set1", "fns1", "integer1",
                 "NumbersTest", "lists", "lists_ext"):
        assert lint_theory(g, g.resolve(name)) == [], name


def test_lint_leaves_no_cyclic_garbage(loaded):
    import gc
    g = loaded.graph
    arith1 = g.resolve("arith1")
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            lint_theory(g, arith1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lint_on_generated_corpus(loaded):
    # Arity-correct generated terms attached to a scratch theory stay clean.
    import random
    from termgen import engine_term
    g = loaded.graph
    rng = random.Random(5)
    scratch = Theory(ModuleRef("um:/lint", "Corpus"), meta=OPENMATH,
                     declarations=[Constant(f"e{i}",
                                            definiens=engine_term(rng, 3))
                                   for i in range(50)])
    g2 = TheoryGraph()
    g2.add(scratch)
    # resolve against the loaded graph for arities: copy the relevant theories
    for name in ("arith1", "logic1", "relation1", "set1", "fns1", "integer1"):
        g2.modules[g.resolve(name)] = g.modules[g.resolve(name)]
    assert lint_theory(g2, scratch.name) == []


# -- lint_view --------------------------------------------------------------

def test_argument_count_of_each_arity():
    assert [argument_count(a) for a in (Fixed(0), Fixed(2), Flexible(0),
                                        Flexible(2), BINDER)] == [0, 2, 1, 3, 2]


def test_lint_view_refuses_a_parameter_list_its_arity_cannot_take():
    graph, _, _ = build_graph(with_stdlib=False)
    parse_modules(graph, """document um:/t
theory T : OpenMath
  constant f
  constant g : Object → Object
  constant h : Object → Object
  constant n : naryObject → Object
  constant b : binder
  constant c : binder
  constant k
  constant m : Object → Object
  constant v : Object
  constant w : naryObject
  constant missing
view V : T -> Computation
  constant f = (a: Term) "an untyped constant is a value"
  constant g = (a: Term) "one argument"
  constant h = (a: Term, b: Term) "arity 1 takes one"
  constant n = (l: List[Term]) "the sequence as one list"
  constant b = (ctx: Context, body: Term) "context and body"
  constant c = (body: Term) "a binder takes two"
  constant k = "no parameter list"
  constant m = "no parameter list"
  constant v = (a: Term) "arity 0 takes none"
  constant w = (a: Term) "an ill-formed type is arity 0"
""", "t.mmt")
    assert [str(d) for d in lint_view(graph, graph.resolve("V"))] == [
        "error t.mmt:14 T?missing missing assignment in view V",
        "error t.mmt:15 T?f parameter list in view V has 1 parameter(s); "
        "arity 0 takes 0",
        "error t.mmt:17 T?h parameter list in view V has 2 parameter(s); "
        "arity 1 takes 1",
        "error t.mmt:20 T?c parameter list in view V has 1 parameter(s); "
        "arity binder takes 2",
        "error t.mmt:23 T?v parameter list in view V has 1 parameter(s); "
        "arity 0 takes 0",
        "error t.mmt:24 T?w parameter list in view V has 1 parameter(s); "
        "arity 0 takes 0"]
