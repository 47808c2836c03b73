import gc
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, strategies as st

from termgen import marked
from umachine.terms import (App, Bind, Const, FloatLit, Foreign, GlobalName,
                            IntLit, StrLit, Var, app, free_vars,
                            normalize_uri, strip_marks, substitute, term_key)

L = GlobalName("http://www.openmath.org/cd", "fns1", "lambda")
PLUS = GlobalName("http://www.openmath.org/cd", "arith1", "plus")


def lam(x, body):
    return Bind(Const(L), (x,), body)


# -- names ---------------------------------------------------------------

def test_uri_normalization():
    a = GlobalName("HTTP://CDS.OMDoc.org/unsorted/uom.omdoc/", "lists", "nil")
    b = GlobalName("http://cds.omdoc.org/unsorted/uom.omdoc", "lists", "nil")
    assert a == b
    assert str(b) == "http://cds.omdoc.org/unsorted/uom.omdoc?lists?nil"


def test_uri_normalization_keeps_path_case():
    assert normalize_uri("http://X.org/Path/") == "http://x.org/Path"


# -- structural invariants -------------------------------------------------

def test_app_needs_arguments():
    with pytest.raises(ValueError):
        App(Var("f"), ())


def test_bind_context_distinct():
    with pytest.raises(ValueError):
        Bind(Const(L), ("x", "x"), Var("x"))


def test_const_needs_a_global_name():
    for head in [None, "fns1?lambda", (L.base, L.module, L.name)]:
        with pytest.raises(TypeError, match="Const expects a GlobalName"):
            Const(head)


def test_app_stores_its_arguments_as_a_tuple():
    t = App(Var("f"), [IntLit(1), IntLit(2)])
    assert t.args == (IntLit(1), IntLit(2)) and type(t.args) is tuple
    assert App(Var("f"), iter([Var("x")])).args == (Var("x"),)
    with pytest.raises(ValueError, match="at least one argument"):
        App(Var("f"), [])
    with pytest.raises(ValueError, match="at least one argument"):
        App(Var("f"))


def test_bind_stores_distinct_names_as_a_tuple():
    t = Bind(Const(L), ["x", "y"], Var("x"))
    assert t.context == ("x", "y") and type(t.context) is tuple
    assert Bind(Const(L), (), Var("x")).context == ()
    with pytest.raises(ValueError, match="pairwise distinct"):
        Bind(Const(L), ["x", "y", "x"], Var("x"))


EVERY_VARIANT = [
    (Const(L), "Const(head=GlobalName(base='http://www.openmath.org/cd', "
               "module='fns1', name='lambda'))"),
    (Var("x"), "Var(name='x')"),
    (IntLit(5), "IntLit(value=5)"),
    (FloatLit(0.5), "FloatLit(value=0.5)"),
    (StrLit("s"), "StrLit(value='s')"),
    (App(Var("f"), (IntLit(1),)),
     "App(head=Var(name='f'), args=(IntLit(value=1),))"),
    (Bind(Var("b"), ("x",), Var("x")),
     "Bind(binder=Var(name='b'), context=('x',), scope=Var(name='x'))"),
    (Foreign("f", "c"), "Foreign(format='f', content='c')"),
]


@pytest.mark.parametrize("t, text", EVERY_VARIANT,
                         ids=[type(t).__name__ for t, _ in EVERY_VARIANT])
def test_every_variant_is_frozen_and_prints_as_before(t, text):
    assert repr(t) == repr(marked(t)) == text
    for f in fields(t):
        with pytest.raises(FrozenInstanceError):
            setattr(t, f.name, getattr(t, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(t, f.name)
    # A name that is not a field is refused alike, not with a TypeError.
    with pytest.raises(FrozenInstanceError, match="'foo'"):
        t.foo = 1
    with pytest.raises(FrozenInstanceError, match="'foo'"):
        del t.foo
    payload = [getattr(t, f.name) for f in fields(t) if f.name != "simplified"]
    again = type(t)(*payload)
    assert again == t and hash(again) == hash(term_key(t))
    if isinstance(t, (App, Bind)):
        # Only applications and bindings carry the marker.
        mark = type(t)(*payload, simplified=True)
        assert not again.simplified and mark.simplified
        assert mark == again and hash(mark) == hash(again)
    else:
        # A leaf answers by its class: final, but for a constant, whose
        # finality depends on a rule base's nullary rules.
        assert again.simplified is t.simplified is (type(t) is not Const)
        with pytest.raises(TypeError):
            type(t)(*payload, simplified=True)
        with pytest.raises(FrozenInstanceError):
            t.simplified = not t.simplified
        assert t.simplified is again.simplified
    assert t != StrLit("other") and t != repr(t)


def test_a_global_name_is_frozen_and_hashes_its_fields():
    g = GlobalName("HTTP://www.OpenMath.org/cd/", "fns1", "lambda")
    assert repr(g) == ("GlobalName(base='http://www.openmath.org/cd', "
                       "module='fns1', name='lambda')")
    assert hash(g) == hash(("http://www.openmath.org/cd", "fns1", "lambda"))
    for name in ["base", "module", "name"]:
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, "x")
        with pytest.raises(FrozenInstanceError):
            delattr(g, name)
    with pytest.raises(FrozenInstanceError):
        g.foo = 1


def test_global_names_equal_up_to_uri_normalization_hash_equal():
    a = GlobalName("HTTP://CDS.OMDoc.org/unsorted/uom.omdoc/", "lists", "nil")
    b = GlobalName("http://cds.omdoc.org/unsorted/uom.omdoc", "lists", "nil")
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != GlobalName(b.base, "lists", "cons")
    assert a != GlobalName(b.base, "lists_ext", "nil")
    assert a != GlobalName(b.base + "/x", "lists", "nil")
    assert a != (a.base, a.module, a.name) and (a.base, a.module, a.name) != a
    assert a != str(a)


def test_equality_ignores_simplified_flag():
    t = app(Const(PLUS), IntLit(1), Var("x"))
    assert marked(t) == t
    assert hash(marked(t)) == hash(t)
    assert marked(t).simplified and not t.simplified


def test_strip_marks_is_deep():
    t = marked(app(Const(PLUS), marked(app(Var("f"), IntLit(1))), IntLit(2)))
    s = strip_marks(t)
    assert s == t
    assert not s.simplified and not s.args[0].simplified


# -- substitution ----------------------------------------------------------

def test_substitute_direct_replacement():
    assert substitute(Var("x"), {"x": IntLit(2)}) == IntLit(2)


def test_substitute_shadowed_by_binder():
    t = lam("x", Var("x"))
    assert substitute(t, {"x": IntLit(2)}) == t


def test_substitute_renames_on_capture():
    # (lambda x. f x y)[y := x] must not capture the inserted x.
    t = lam("x", app(Var("f"), Var("x"), Var("y")))
    s = substitute(t, {"y": Var("x")})
    assert s.context == ("x1",)
    assert s.scope == app(Var("f"), Var("x1"), Var("x"))


def test_free_vars():
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(lam("x", Var("x"))) == set()
    t = app(Const(PLUS), Var("x"), lam("x", Var("x")))
    assert free_vars(t) == {"x"}


def _cyclic_garbage_of(call, times=100) -> int:
    """Objects that ``times`` calls leave to the cyclic garbage collector."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(times):
            call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("call", [
    lambda: substitute(lam("x", app(Var("f"), Var("x"), Var("y"))),
                       {"y": IntLit(2)}),
    lambda: free_vars(lam("x", app(Var("f"), Var("x"), Var("y")))),
], ids=["substitute", "free_vars"])
def test_traversals_leave_no_cyclic_garbage(call):
    assert _cyclic_garbage_of(call) == 0


# -- property tests ---------------------------------------------------------

names = st.sampled_from(["x", "y", "z", "w"])


def _mk_app(pair):
    head, args = pair
    return App(head, tuple(args))


def _mk_bind(pair):
    (x, body) = pair
    return Bind(Const(L), (x,), body)


terms = st.recursive(
    st.one_of(st.integers(-5, 5).map(IntLit), names.map(Var),
              st.just(Const(PLUS))),
    lambda sub: st.one_of(
        st.tuples(sub, st.lists(sub, min_size=1, max_size=3)).map(_mk_app),
        st.tuples(names, sub).map(_mk_bind)),
    max_leaves=12)


def naive_substitute(t, bnd):
    """Rebuild-everything reference with the same renaming scheme."""
    if isinstance(t, Var):
        return bnd.get(t.name, t)
    if isinstance(t, App):
        return App(naive_substitute(t.head, bnd),
                   tuple(naive_substitute(a, bnd) for a in t.args))
    if isinstance(t, Bind):
        inner = {k: v for k, v in bnd.items()
                 if k not in t.context and k in free_vars(t.scope)}
        ctx, scope = list(t.context), t.scope
        if inner:
            clash = [x for x in ctx
                     if any(x in free_vars(v) for v in inner.values())]
            avoid = set(free_vars(scope)) | set(ctx)
            for v in inner.values():
                avoid |= free_vars(v)
            for i, x in enumerate(ctx):
                if x in clash:
                    j = 1
                    while f"{x}{j}" in avoid:
                        j += 1
                    avoid.add(f"{x}{j}")
                    scope = naive_substitute(scope, {x: Var(f"{x}{j}")})
                    ctx[i] = f"{x}{j}"
            scope = naive_substitute(scope, inner)
        return Bind(naive_substitute(t.binder, bnd), tuple(ctx), scope)
    return t


@given(terms, st.integers(-5, 5))
def test_substitute_matches_naive_reference(t, n):
    bnd = {"x": IntLit(n), "y": app(Const(PLUS), Var("z"), IntLit(1))}
    assert substitute(t, bnd) == naive_substitute(t, bnd)


def bound_names(t):
    if isinstance(t, App):
        out = bound_names(t.head)
        for a in t.args:
            out |= bound_names(a)
        return out
    if isinstance(t, Bind):
        return set(t.context) | bound_names(t.binder) | bound_names(t.scope)
    return set()


@given(terms, terms, terms)
def test_substitution_composition(t, u, v):
    # The classical substitution lemma, structurally: it needs y free-for-t
    # and no binder of t or u clashing with a replacement's free variables
    # (otherwise capture-avoiding renaming makes the sides alpha-variants).
    if "y" in (free_vars(t) - {"x"}):
        return
    if bound_names(t) & (free_vars(u) | free_vars(v)):
        return
    if bound_names(u) & free_vars(v):
        return
    lhs = substitute(substitute(t, {"x": u}), {"y": v})
    rhs = substitute(t, {"x": substitute(u, {"y": v}), "y": v})
    assert lhs == rhs


@given(terms, terms)
def test_free_vars_after_substitution(t, u):
    got = free_vars(substitute(t, {"x": u}))
    assert got <= (free_vars(t) - {"x"}) | free_vars(u)
