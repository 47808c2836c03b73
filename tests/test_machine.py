import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import umachine
from naive_engine import naive_simplify
from reference_walks import ref_eq, ref_simplify
from termgen import engine_term
from umachine import machine
from umachine.codegen import load
from umachine.machine import (MAX_FUEL, DuplicateRuleError, Rule, RuleBase,
                              SimplifyBudget, rewrite_step, simplify)
from umachine.omxml import decode_xml
from umachine.stdlib import rules
from umachine.sts import BINDER, Fixed, Flexible
from umachine.terms import (App, Bind, Const, GlobalName, IntLit, Var, app,
                            strip_marks)

CD = "http://www.openmath.org/cd"
MINUS = GlobalName(CD, "arith1", "minus")
PLUS = GlobalName(CD, "arith1", "plus")


# -- rule base ------------------------------------------------------------------

def test_add_rule_and_lookup():
    base = RuleBase()
    r = Rule(MINUS, Fixed(2), lambda a, b: None)
    base.add(r)
    assert base.get(MINUS) is r
    assert len(base) == 1


def test_duplicate_registration_rejected():
    base = RuleBase()
    base.add(Rule(MINUS, Fixed(2), lambda a, b: None))
    with pytest.raises(DuplicateRuleError):
        base.add(Rule(MINUS, Fixed(2), lambda a, b: IntLit(0)))


def test_re_adding_the_same_rule_is_a_noop():
    base = RuleBase()
    r = Rule(MINUS, Fixed(2), lambda a, b: None)
    base.add(r)
    base.add(r)
    assert len(base) == 1


def test_a_second_rule_for_a_head_is_refused():
    base = RuleBase()
    base.add(Rule(PLUS, Fixed(2), lambda a, b: None))
    with pytest.raises(DuplicateRuleError):
        base.add(Rule(PLUS, Flexible(0), lambda rest: None))
    assert len(base) == 1 and base.get(PLUS).arity == Fixed(2)


ARITIES = [Fixed(0), Fixed(2), Flexible(0), Flexible(1), BINDER]


@pytest.mark.parametrize("arity", ARITIES, ids=str)
def test_get_and_duplicates_for_every_arity_kind(arity):
    h = GlobalName("um:/t", "m", "all")
    rule = Rule(h, arity, lambda *args: None)
    base = RuleBase([rule])
    assert base.get(h) is rule and base.get(MINUS) is None
    # A second rule for the head is refused at every arity, its own too,
    # and so is the same function at another arity.
    for a in ARITIES:
        with pytest.raises(DuplicateRuleError):
            base.add(Rule(h, a, lambda *args: IntLit(0)))
        if a != arity:
            with pytest.raises(DuplicateRuleError):
                base.add(Rule(h, a, rule.fn))
    # The same rule again, or the same realization anew: a no-op.
    base.add(rule)
    base.add(Rule(h, arity, rule.fn))
    assert len(base) == 1 and base.get(h) is rule


# -- rewrite_step ------------------------------------------------------------------

def test_rewrite_step_examples(loaded):
    base = loaded.base
    assert rewrite_step(base, app(Const(MINUS), IntLit(5), IntLit(3))) \
        == IntLit(2)
    assert rewrite_step(base, app(Const(PLUS), Var("x"), IntLit(1))) is None
    assert rewrite_step(base, Var("x")) is None


A, B, C, D = map(Var, "abcd")


def _shapes(h: GlobalName) -> dict:
    """A redex of each shape, with the head ``h``, by name."""
    c = Const(h)
    return {"bare": c, "1": app(c, A), "2": app(c, A, B),
            "4": app(c, A, B, C, D), "binding": Bind(c, ("x",), A)}


@pytest.mark.parametrize("arity, applies", [
    (Fixed(0), {"bare": ()}),
    (Fixed(2), {"2": (A, B)}),
    (Flexible(0), {"1": ((A,),), "2": ((A, B),), "4": ((A, B, C, D),)}),
    (Flexible(2), {"2": (A, B, ()), "4": (A, B, (C, D))}),
    (BINDER, {"binding": (("x",), A)}),
], ids=["0", "2", "0*", "2*", "binder"])
def test_the_redex_shapes_each_arity_applies_to(arity, applies):
    # ``applies`` maps each shape the rule applies to to its call arguments.
    h = GlobalName("um:/t", "m", "shape")
    calls = []
    base = RuleBase([Rule(h, arity,
                          lambda *args: calls.append(args) or IntLit(0))])
    for shape, t in _shapes(h).items():
        calls.clear()
        want = applies.get(shape)
        if want is None:
            assert rewrite_step(base, t) is None and calls == [], shape
        else:
            assert rewrite_step(base, t) == IntLit(0), shape
            assert calls == [want], shape
        _agrees_with_the_reference(base, t)


def test_nullary_rule_on_bare_constant():
    h = GlobalName("um:/t", "m", "c")
    base = RuleBase([Rule(h, Fixed(0), lambda: IntLit(42))])
    assert rewrite_step(base, Const(h)) == IntLit(42)


def test_binder_rule():
    h = GlobalName("um:/t", "m", "b")
    base = RuleBase([Rule(h, BINDER, lambda ctx, scope: scope)])
    t = Bind(Const(h), ("x",), IntLit(1))
    assert rewrite_step(base, t) == IntLit(1)


def test_equal_result_counts_as_decline():
    h = GlobalName("um:/t", "m", "idem")
    base = RuleBase([Rule(h, Fixed(1), lambda a: app(Const(h), a))])
    t = app(Const(h), IntLit(1))
    assert rewrite_step(base, t) is None
    r = simplify(base, t)
    assert r.term == t and r.steps == 0 and not r.exhausted


# -- simplify ------------------------------------------------------------------------

def test_simplify_identity_on_rule_free_terms(loaded):
    r = simplify(loaded.base, Var("x"))
    assert r.term == Var("x") and r.steps == 0 and not r.exhausted
    assert r.term.simplified


def test_simplify_marks_every_subterm(loaded):
    t = app(Const(PLUS), Var("x"), app(Const(MINUS), Var("y"), Var("z")))
    r = simplify(loaded.base, t)
    assert r.term.simplified
    assert all(a.simplified for a in r.term.args)


def test_marked_terms_are_returned_without_traversal(loaded):
    calls = []
    h = GlobalName("um:/t", "m", "spy")
    base = RuleBase([Rule(h, Fixed(1), lambda a: calls.append(1) or None)])
    t = app(Const(h), IntLit(1))
    first = simplify(base, t)
    assert calls == [1]
    second = simplify(base, first.term)
    assert calls == [1] and second.steps == 0


def test_fuel_exhaustion_reports_partial_result(loaded):
    scope_term = app(Const(PLUS), IntLit(1),
                     app(Const(GlobalName(CD, "arith1", "times")),
                         IntLit(2), IntLit(3)))
    r = simplify(loaded.base, scope_term, SimplifyBudget(fuel=1))
    assert r.exhausted and r.steps == 1
    assert r.term == app(Const(PLUS), IntLit(1), IntLit(6))
    # What was final when the fuel ran out keeps its mark; the redex does
    # not, and its head is the input's own constant.
    assert not r.term.simplified
    assert r.term.head is scope_term.head
    assert all(a.simplified for a in r.term.args)
    full = simplify(loaded.base, scope_term, SimplifyBudget(fuel=2))
    assert not full.exhausted and full.term == IntLit(7)


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        SimplifyBudget(0)


def test_budget_is_bounded_by_max_fuel():
    assert SimplifyBudget(MAX_FUEL).fuel == MAX_FUEL
    with pytest.raises(ValueError, match=f"fuel out of range: {MAX_FUEL + 1}"):
        SimplifyBudget(MAX_FUEL + 1)


def test_rule_failure_is_absorbed(loaded):
    h = GlobalName("um:/t", "m", "boom")

    def explode(a):
        raise RuntimeError("native failure")

    base = RuleBase([Rule(h, Fixed(1), explode)])
    for rule in loaded.base.rules():
        base.add(rule)
    redex = app(Const(h), IntLit(1))
    enclosing = app(Const(PLUS), IntLit(1), IntLit(2),
                    app(Const(GlobalName(CD, "set1", "size")), redex))
    r = simplify(base, enclosing)
    assert not r.exhausted
    # The failing redex stays in place; unrelated foldable parts are out
    # of reach of plus (non-literal argument), so the term keeps its shape.
    size = GlobalName(CD, "set1", "size")
    assert r.term == app(Const(PLUS), IntLit(1), IntLit(2),
                         app(Const(size), redex))


# -- engine properties on generated corpora ---------------------------------------

def _corpus(n, seed=99):
    rng = random.Random(seed)
    return [engine_term(rng, rng.randrange(1, 4)) for _ in range(n)]


def test_idempotence(loaded):
    for t in _corpus(150):
        first = simplify(loaded.base, t)
        assert not first.exhausted
        second = simplify(loaded.base, first.term)
        assert second.steps == 0 and second.term == first.term


def test_metadata_stripping_neutrality(loaded):
    for t in _corpus(150, seed=3):
        first = simplify(loaded.base, t)
        again = simplify(loaded.base, strip_marks(first.term))
        assert again.term == first.term


def test_congruence_when_no_head_rule_fires(loaded):
    sizec = Const(GlobalName(CD, "set1", "size"))
    for t in _corpus(60, seed=4):
        wrapped = app(Var("f"), t, IntLit(1))
        r = simplify(loaded.base, wrapped)
        inner = simplify(loaded.base, t)
        assert r.term.args[0] == inner.term


def _nodes(t):
    todo = [t]
    while todo:
        x = todo.pop()
        yield x
        if isinstance(x, App):
            todo += [x.head, *x.args]
        elif isinstance(x, Bind):
            todo += [x.binder, x.scope]


def test_every_node_of_a_result_is_marked(loaded):
    calls = []
    spied = RuleBase(
        Rule(r.head, r.arity, lambda *a, _r=r: calls.append(_r) or _r.fn(*a))
        for r in loaded.base.rules())
    for t in _corpus(150, seed=21):
        first = simplify(loaded.base, t)
        assert not first.exhausted
        # Every node but a constant, which carries no marker.
        assert all(x.simplified or x.__class__ is Const
                   for x in _nodes(first.term))
        again = simplify(spied, first.term)
        assert calls == [] and again.steps == 0 and again.term is first.term


def test_leaves_a_firing_rule_consumes_are_never_copied(loaded, monkeypatch):
    # Every marked node is built by ``machine.mark``, which a tracer wraps.
    calls = []
    mark = machine.mark
    monkeypatch.setattr(machine, "mark", lambda node, parts: calls.append(
        (node, parts)) or mark(node, parts))
    f, x = Var("f"), Var("x")
    t = app(f, app(Const(PLUS), *map(IntLit, range(50))), x)
    r = simplify(loaded.base, t)
    assert r.term == app(f, IntLit(1225), x) and r.term.simplified
    # One node is marked, the application whose head rule declines; the
    # leaves are its own, and the sum's are consumed without a copy.
    assert calls == [(t, (f, IntLit(1225), x))]
    assert r.term.head is f and r.term.args[1] is x
    # The sum alone marks nothing: its result is a literal.
    assert simplify(loaded.base, t.args[0]).term == IntLit(1225)
    assert len(calls) == 1


def test_a_rules_shared_cells_and_nil_come_out_as_they_are(loaded):
    # ``append`` builds its cells on ``rules._CONS``; the second list is
    # built on it too, and ends in ``rules.NIL``.
    first = Const(rules.NIL.head)
    for i in reversed(range(3)):
        first = app(Const(rules.CONS), IntLit(i), first)
    second = rules.NIL
    for i in reversed(range(3, 6)):
        second = app(rules._CONS, IntLit(i), second)
    r = simplify(loaded.base, app(Const(rules.APPEND), first, second))
    assert not r.exhausted and r.steps == 4
    t, cells = r.term, 0
    while t.__class__ is App:
        assert t.head is rules._CONS and t.simplified
        assert t.args[0] == IntLit(cells)
        t, cells = t.args[1], cells + 1
    assert cells == 6 and t is rules.NIL


def test_a_rules_shared_constant_is_the_result_itself(loaded):
    eq = Const(GlobalName(CD, "relation1", "eq"))
    r = simplify(loaded.base, app(eq, IntLit(1), IntLit(1)))
    assert r.term is rules.LOGIC_TRUE and r.steps == 1


def test_a_decoded_symbol_passes_through_unchanged(loaded):
    term = decode_xml(f'<OMOBJ cdbase="{CD}"><OMA><OMS cd="arith1" '
                      'name="plus"/><OMV name="x"/><OMI>1</OMI></OMA></OMOBJ>')
    r = simplify(loaded.base, term)
    assert r.steps == 0 and r.term == term and r.term.simplified
    assert r.term.head is term.head
    assert r.term.args[0] is term.args[0] and r.term.args[1] is term.args[1]


def test_agreement_with_naive_engine(loaded):
    for t in _corpus(200, seed=11):
        fast = simplify(loaded.base, t)
        slow, steps, exhausted = naive_simplify(loaded.base, t)
        assert not exhausted
        assert strip_marks(fast.term) == slow


def test_deep_list_recursion(loaded):
    # Structural recursion depth must be bounded by fuel, not by the
    # interpreter's default recursion limit.
    import sys
    from umachine.stdlib import rules as r
    t = r.NIL
    for i in range(600):
        t = app(Const(r.CONS), IntLit(i), t)
    before = sys.getrecursionlimit()
    result = simplify(loaded.base, app(Const(r.APPEND), t, r.NIL),
                      SimplifyBudget(10000))
    assert not result.exhausted and result.steps == 601
    assert sys.getrecursionlimit() == before


def _marks(t) -> list:
    """Which nodes of ``t`` carry the mark, in the order ``_nodes`` visits
    them."""
    return [x.simplified for x in _nodes(t)]


def _agrees_with_the_reference(base, t):
    """``simplify`` agrees with ``reference_walks.ref_simplify`` on ``t`` at
    every fuel from 1 to its steps + 1; the result with ample fuel."""
    full = ref_simplify(base, t)
    assert not full.exhausted
    for fuel in range(1, full.steps + 2):
        got = simplify(base, t, SimplifyBudget(fuel))
        want = ref_simplify(base, t, SimplifyBudget(fuel))
        assert (got.steps, got.exhausted) == (want.steps, want.exhausted)
        assert ref_eq(got.term, want.term) and repr(got.term) == repr(want.term)
        assert _marks(got.term) == _marks(want.term)
    return full


def test_head_position_rewriting():
    # A nullary rule may rewrite the head of an application; the head is
    # simplified first, so the new head's rule can then fire.
    alias = GlobalName("um:/t", "m", "alias")
    real = GlobalName("um:/t", "m", "real")
    base = RuleBase([
        Rule(alias, Fixed(0), lambda: Const(real)),
        Rule(real, Fixed(1), lambda a: IntLit(99)),
    ])
    t = app(Const(alias), IntLit(1))
    r = simplify(base, t)
    assert r.term == IntLit(99) and r.steps == 2
    # A flexible rule and a binder rule, each behind an alias of its own.
    many_alias = GlobalName("um:/t", "m", "many_alias")
    many = GlobalName("um:/t", "m", "many")
    lam_alias = GlobalName("um:/t", "m", "lam_alias")
    lam = GlobalName("um:/t", "m", "lam")
    base.add(Rule(many_alias, Fixed(0), lambda: Const(many)))
    base.add(Rule(many, Flexible(1), lambda a, rest: app(
        Const(many_alias if len(rest) > 1 else alias), *rest)))
    base.add(Rule(lam_alias, Fixed(0), lambda: Const(lam)))
    base.add(Rule(lam, BINDER, lambda ctx, scope: scope))
    for t in [app(Const(alias), IntLit(1)),
              app(Const(many_alias), IntLit(1), IntLit(2), IntLit(3)),
              app(Const(alias), app(Const(many_alias), Var("x"), IntLit(2))),
              Bind(Const(lam_alias), ("x",), app(Const(alias), IntLit(1))),
              app(Var("f"), Const(alias), app(Const(alias), IntLit(4)))]:
        _agrees_with_the_reference(base, t)
    assert _agrees_with_the_reference(
        base, app(Const(many_alias), IntLit(1), IntLit(2), IntLit(3))).term \
        == IntLit(99)


def test_a_head_whose_nullary_rule_declines():
    # The head stays where it is, and its application, which no rule fits,
    # is marked; another head's rule fires around it.
    h = GlobalName("um:/t", "m", "shy")
    k = GlobalName("um:/t", "m", "k")
    asked = []
    base = RuleBase([
        Rule(h, Fixed(0), lambda: asked.append(1)),
        Rule(k, Fixed(2), lambda a, b: a if b == IntLit(0) else None)])
    for t in [app(Const(h), Var("x"), IntLit(0)),
              app(Const(k), app(Const(h), IntLit(1), IntLit(0)), Var("y")),
              app(Const(k), Const(h), IntLit(0)),
              Bind(Const(h), ("x",), app(Const(k), Var("x"), IntLit(0))),
              Const(h)]:
        _agrees_with_the_reference(base, t)
    asked.clear()
    t = app(Const(k), app(Const(h), app(Const(h), IntLit(1), IntLit(0)),
                          IntLit(0)), IntLit(0))
    r = simplify(base, t)
    # Asked once per occurrence of the head, as each goes round the loop.
    assert r.term == t.args[0] and r.steps == 1 and len(asked) == 2


def test_a_binder_head_with_a_nullary_rule():
    # ``b`` rewrites to ``lam``, whose binder rule then fires; ``d``'s
    # nullary rule declines, and its binding stays; ``e``'s binder rule
    # fires on ``e`` itself.
    b = GlobalName("um:/t", "m", "b")
    d = GlobalName("um:/t", "m", "d")
    e = GlobalName("um:/t", "m", "e")
    lam = GlobalName("um:/t", "m", "lam")
    base = RuleBase([
        Rule(b, Fixed(0), lambda: Const(lam)),
        Rule(lam, BINDER, lambda ctx, scope: app(Const(lam), scope)
             if len(ctx) == 1 else None),
        Rule(d, Fixed(0), lambda: None),
        Rule(e, BINDER, lambda ctx, scope: IntLit(len(ctx)))])
    for t in [Bind(Const(b), ("x",), Var("x")),
              Bind(Const(b), ("x", "y"), Bind(Const(b), ("z",), Var("x"))),
              Bind(Const(d), ("x", "y"), Var("x")),
              Bind(Const(e), ("x", "y"), Var("x")),
              app(Const(b), Bind(Const(d), (), Bind(Const(b), ("x",),
                                                    Const(d)))),
              app(Const(b), Bind(Const(e), (), Bind(Const(b), ("x",),
                                                    Const(d))))]:
        _agrees_with_the_reference(base, t)
    r = simplify(base, Bind(Const(b), ("x",), Bind(Const(e), ("y",), Var("y"))))
    assert r.term == app(Const(lam), IntLit(1)) and r.steps == 3


@pytest.mark.parametrize("aliased", [False, True],
                         ids=["heads as written", "heads behind aliases"])
def test_heads_with_fixed_flexible_and_binder_rules(aliased):
    # One head per rule; behind aliases, each head is a constant whose
    # nullary rule rewrites it to the head, so the head goes round the loop
    # and its rule is read as its frame finishes.
    names = ["fixed1", "fixed3", "flex2", "flex4", "bind"]
    h = {n: GlobalName("um:/t", "m", n) for n in names}
    base = RuleBase([
        Rule(h["fixed1"], Fixed(1), lambda a: app(Const(h["flex2"]), a, a)),
        Rule(h["fixed3"], Fixed(3), lambda a, b, c: None),
        Rule(h["flex2"], Flexible(2),
             lambda a, b, rest: IntLit(0) if a == b else None),
        Rule(h["flex4"], Flexible(4),
             lambda a, b, c, d, rest: IntLit(-4 - len(rest))),
        Rule(h["bind"], BINDER,
             lambda ctx, scope: app(Const(h["fixed1"]), scope))])
    written = {n: Const(h[n]) for n in names}
    if aliased:
        for n in names:
            alias = GlobalName("um:/t", "m", f"{n}_alias")
            base.add(Rule(alias, Fixed(0), lambda n=n: Const(h[n])))
            written[n] = Const(alias)
    f1, f3, x2, x4, bd = (written[n] for n in names)
    x, one = Var("x"), IntLit(1)
    # No fallback when a rule declines.
    for t, want in [
            (app(f1, x), IntLit(0)),  # fixed 1, then flexible 2
            (app(x2, x, one), None),  # flexible 2 declines
            (app(f3, x, x, one), None),  # fixed 3 declines
            (app(x4, x, one, x, one), IntLit(-4)),  # flexible 4
            (app(x4, x, one, x, one, x), IntLit(-5)),
            (Bind(bd, ("x",), x), IntLit(0)),  # binder, fixed 1, flexible 2
            (app(x2, Bind(bd, ("y",), one), IntLit(0)), IntLit(0)),
            (app(Var("f"), f1, app(x2, x, one)), None)]:
        r = _agrees_with_the_reference(base, t)
        if want is not None:
            assert r.term == want


def test_fuel_monotonicity(loaded):
    for t in _corpus(80, seed=12):
        full = simplify(loaded.base, t)
        for fuel in (1, 2, 5):
            r = simplify(loaded.base, t, SimplifyBudget(fuel))
            assert r.steps <= fuel
            if r.exhausted:
                assert r.steps == fuel
            else:
                assert r.term == full.term


# -- rules are read when they are called ----------------------------------------

def test_a_rule_fn_replaced_after_load_is_the_one_called(loaded):
    # A tracer wraps the rules of a loaded base by setting ``Rule.fn``.
    base, _ = load(loaded.graph)
    for rule in base.rules():
        if rule.head == PLUS:
            object.__setattr__(rule, "fn", lambda *args: IntLit(-1))
    r = simplify(base, app(Const(PLUS), IntLit(1), IntLit(2)))
    assert r.term == IntLit(-1) and r.steps == 1


def test_a_rule_added_after_a_first_simplify_fires():
    base = RuleBase()
    for i, (arity, fn) in enumerate([
            (Flexible(0), lambda rest: IntLit(0)),
            (Flexible(1), lambda a, rest: IntLit(1)),
            (Fixed(2), lambda a, b: IntLit(2))]):
        h = GlobalName("um:/t", "m", f"late{i}")
        t = app(Const(h), Var("a"), Var("b"))
        assert simplify(base, t).steps == 0
        base.add(Rule(h, arity, fn))
        r = simplify(base, t)
        assert r.term == IntLit(i) and r.steps == 1


def test_a_head_constants_rule_is_read_once():
    # A head constant with no nullary rule joins its frame as it stands:
    # its rule, or the lack of one, is read once, as the frame is pushed.
    reads = []

    class Counting(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    h = GlobalName("um:/t", "m", "two")
    g = GlobalName("um:/t", "m", "none")
    base = RuleBase([Rule(h, Fixed(2), lambda a, b: None)])
    base._rules = Counting(base._rules)
    r = simplify(base, app(Const(h), Var("x"), app(Const(g), Var("y"))))
    assert r.steps == 0 and reads == [h, g]


# -- the engine does not recurse -------------------------------------------------

def test_simplify_leaves_the_recursion_limit_alone():
    h = GlobalName("um:/t", "m", "probe")
    seen = []
    base = RuleBase([Rule(h, Fixed(1), lambda a: seen.append(
        sys.getrecursionlimit()))])
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        simplify(base, app(Const(h), IntLit(1)))
    finally:
        sys.setrecursionlimit(before)
    assert seen == [5000]


def test_long_rewrite_chain_at_the_default_limit(loaded):
    # The append chain nests one cons cell per step; the term is 10 000
    # levels deep, ten times the interpreter's default recursion limit.
    t = rules.NIL
    for i in range(10000):
        t = app(Const(rules.CONS), IntLit(i), t)
    t = app(Const(rules.APPEND), t, rules.NIL)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = simplify(loaded.base, t, SimplifyBudget(20000))
    except RecursionError:
        result = None  # reported below, without its 10 000-frame traceback
    finally:
        sys.setrecursionlimit(before)
    assert result is not None, "simplify recursed along the rewrite chain"
    assert not result.exhausted and result.steps == 10001


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_resource_errors_are_not_declines(error):
    h = GlobalName("um:/t", "m", "deep")

    def give_out(a):
        raise error("out of resources")

    base = RuleBase([Rule(h, Fixed(1), give_out)])
    with pytest.raises(error):
        simplify(base, app(Const(PLUS), IntLit(1), app(Const(h), IntLit(2))))
    with pytest.raises(error):
        rewrite_step(base, app(Const(h), IntLit(2)))


CONCURRENT_SCRIPT = """
import sys, threading
from umachine.codegen import build_graph, load
from umachine.machine import SimplifyBudget, simplify
from umachine.stdlib import rules as r
from umachine.terms import Const, GlobalName, IntLit, app

graph, _, _ = build_graph()
base, _ = load(graph)
deep = r.NIL
for i in range(1500):
    deep = app(Const(r.CONS), IntLit(i), deep)
deep = app(Const(r.APPEND), deep, r.NIL)
shallow = app(Const(GlobalName("http://www.openmath.org/cd", "arith1",
                               "plus")), IntLit(1), IntLit(2))
steps = []

def run(term, times):
    for _ in range(times):
        steps.append(simplify(base, term, SimplifyBudget(10000)).steps)

sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=run, args=(deep, 2)) for _ in range(8)]
threads += [threading.Thread(target=run, args=(shallow, 100))
            for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(sorted(set(steps)), len(steps))
"""


def test_deep_and_shallow_simplifications_run_concurrently():
    # In a subprocess: an engine that changes the process-wide recursion
    # limit per call lets threads race on it and can abort the interpreter.
    env = dict(os.environ,
               PYTHONPATH=str(Path(umachine.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", CONCURRENT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == f"[1, 1501] {8 * 2 + 8 * 100}"
