import itertools
import math
import random
import sys

from reference_walks import ref_canonical_set, ref_eq
from termgen import engine_term, marked, surface_term
from umachine.machine import simplify
from umachine.stdlib import rules
from umachine.sts import Fixed, Flexible
from umachine.terms import (Bind, Const, FloatLit, GlobalName, IntLit,
                            StrLit, Term, Var, app)

CD = "http://www.openmath.org/cd"


def G(m, n):
    return Const(GlobalName(CD, m, n))


TRUE, FALSE = rules.LOGIC_TRUE, rules.LOGIC_FALSE
SET, EMPTY = Const(rules.SET), rules.EMPTYSET
NIL, CONS = rules.NIL, Const(rules.CONS)


def ints(*vs):
    return tuple(IntLit(v) for v in vs)


def clist(*vs):
    t = NIL
    for v in reversed(vs):
        t = app(CONS, IntLit(v), t)
    return t


# -- arith ---------------------------------------------------------------------

def test_plus_folds_literals():
    assert rules.plus(ints(1, 2, 3)) == IntLit(6)


def test_minus():
    assert rules.minus(IntLit(5), IntLit(3)) == IntLit(2)


def test_times_and_power():
    assert rules.times(ints(2, 3, 4)) == IntLit(24)
    assert rules.power(IntLit(2), IntLit(10)) == IntLit(1024)
    assert rules.power(IntLit(2), IntLit(-1)) is None


def test_power_declines_from_the_digit_limit_on():
    # 10^(L-1) has L digits, as many as an integer may render; 10^L has one
    # more.
    limit = sys.get_int_max_str_digits()
    assert rules.power(IntLit(10), IntLit(limit)) is None
    assert rules.power(IntLit(10), IntLit(limit - 1)) == IntLit(10 ** (limit - 1))


def test_rules_decline_on_open_terms(loaded):
    assert rules.plus((Var("x"), IntLit(1))) is None
    t = app(G("arith1", "plus"), Var("x"), IntLit(1))
    r = simplify(loaded.base, t)
    assert r.term == t and r.steps == 0  # fixpoint: declined, unchanged


def test_binary_arith_rules_decline_on_one_open_argument():
    # Called directly: inside the engine a rule that raised would look
    # like one that declined.
    for rule in (rules.minus, rules.quotient, rules.remainder):
        assert rule(Var("x"), IntLit(3)) is None, rule.__name__
        assert rule(IntLit(3), Var("x")) is None, rule.__name__


def test_float_arguments_decline():
    assert rules.plus((FloatLit(1.0), IntLit(1))) is None
    assert rules.minus(FloatLit(1.0), FloatLit(0.5)) is None


def test_ints_declines_on_anything_but_integer_literals():
    assert rules._ints(ints(3, 1, 2)) == [3, 1, 2] and rules._ints(()) == []
    summed = marked(app(G("arith1", "plus"), IntLit(1), IntLit(2)))
    for other in [FloatLit(1.0), Var("x"), summed]:
        for args in [(other,), (IntLit(1), other), (other, IntLit(1))]:
            assert rules._ints(args) is None
            assert rules.plus(args) is None and rules.times(args) is None


# -- logic / relations ------------------------------------------------------------

def test_boolean_tables():
    assert rules.logic_and((TRUE, TRUE)) == TRUE
    assert rules.logic_and((TRUE, FALSE)) == FALSE
    assert rules.logic_or((FALSE, FALSE)) == FALSE
    assert rules.logic_not(TRUE) == FALSE
    assert rules.implies(TRUE, FALSE) == FALSE
    assert rules.implies(FALSE, FALSE) == TRUE
    assert rules.logic_and((TRUE, Var("p"))) is None


def test_implies_declines_on_an_open_argument(loaded):
    t = app(G("logic1", "implies"), TRUE, Var("p"))
    assert rules.implies(TRUE, Var("p")) is None
    r = simplify(loaded.base, t)
    assert r.term == t and r.steps == 0


def test_eq_on_integers():
    assert rules.eq(IntLit(2), IntLit(2)) == TRUE
    assert rules.eq(IntLit(2), IntLit(3)) == FALSE


def test_eq_on_canonical_sets(loaded):
    # {3,4} and {4,3} canonicalize identically, so equality holds.
    t = app(G("relation1", "eq"),
            app(SET, IntLit(3), IntLit(4)),
            app(SET, IntLit(4), IntLit(3)))
    assert simplify(loaded.base, t).term == TRUE


def test_eq_on_cons_lists():
    assert rules.eq(clist(1, 2), clist(1, 2)) == TRUE
    assert rules.eq(clist(1, 2), clist(2, 1)) == FALSE


def test_comparisons_decline_on_open_terms():
    assert rules.lt(Var("x"), IntLit(1)) is None
    assert rules.lt(IntLit(0), IntLit(1)) == TRUE


def test_comparisons_of_equal_integers():
    three = IntLit(3)
    assert rules.gt(three, three) == FALSE and rules.lt(three, three) == FALSE
    assert rules.geq(three, three) == TRUE and rules.leq(three, three) == TRUE


# -- sets --------------------------------------------------------------------------

def test_set_canonicalization_removes_duplicates(loaded):
    t = app(SET, IntLit(3), IntLit(4), IntLit(3))
    r = simplify(loaded.base, t).term
    assert r == app(SET, IntLit(3), IntLit(4))


def test_set_canonicalization_is_order_insensitive():
    for perm in itertools.permutations([1, 2, 3, 4, 5]):
        args = ints(*perm)
        out = rules.set_canon(args)
        if out is None:  # declined: the set is left as it is
            out = app(SET, *args)
        assert out == app(SET, *ints(1, 2, 3, 4, 5))


def test_canonical_set_agrees_with_the_reference():
    # Elements of every variant, with repeats that are equal but other
    # objects, marked copies, and NaN floats, which all share one key.
    rng = random.Random(24)
    pool = [engine_term(rng, rng.randrange(3)) for _ in range(60)]
    pool += [surface_term(rng, rng.randrange(3)) for _ in range(30)]
    pool += [FloatLit(math.nan), FloatLit(float("nan")), FloatLit(-0.0),
             FloatLit(0.0), StrLit(""), StrLit("1"), Var("x"), IntLit(1),
             IntLit(1), EMPTY, NIL]
    pool += [marked(t) for t in pool[:20]]
    for n in range(400):
        elems = [rng.choice(pool) for _ in range(rng.randrange(9))]
        elems += rng.sample(elems, min(len(elems), rng.randrange(4)))
        rng.shuffle(elems)
        got, want = rules._canonical_set(elems), ref_canonical_set(elems)
        assert ref_eq(got, want) and repr(got) == repr(want)
        if want is not EMPTY:
            # Among equal keys the first occurrence wins: the same objects.
            assert all(map(lambda a, b: a is b, got.args, want.args))
    nan, first = FloatLit(math.nan), IntLit(1)
    got = rules._canonical_set(
        [nan, first, FloatLit(math.nan), IntLit(1), FloatLit(0.5)])
    assert len(got.args) == 3 and got.args[0] is first and got.args[2] is nan
    assert rules._canonical_set([]) is EMPTY


def test_set_canonicalization_idempotent():
    out = rules.set_canon(ints(2, 1, 2))
    assert rules.set_canon(out.args) is None  # already canonical: declined


def test_set_canon_declines_exactly_the_sets_the_reference_keeps():
    rng = random.Random(25)
    pool = [engine_term(rng, rng.randrange(3)) for _ in range(60)]
    pool += [surface_term(rng, rng.randrange(3)) for _ in range(30)]
    pool += [FloatLit(math.nan), FloatLit(math.nan), IntLit(1), IntLit(1)]
    declined = 0
    for n in range(600):
        elems = [rng.choice(pool) for _ in range(rng.randrange(7))]
        want = ref_canonical_set(elems)
        if n % 2 and want is not EMPTY:
            elems = list(want.args)  # a canonical set, as a rule builds it
        kept = want is not EMPTY and len(want.args) == len(elems) and all(
            map(lambda a, b: a is b, want.args, elems))
        got = rules.set_canon(tuple(elems))
        assert (got is None) == kept, elems
        declined += kept
        if not kept:
            assert ref_eq(got, want) and repr(got) == repr(want)
    assert 200 < declined < 500


def test_membership_union_intersection_size():
    s = app(SET, *ints(1, 2, 3))
    assert rules.set_in(IntLit(2), s) == TRUE
    assert rules.set_in(IntLit(9), s) == FALSE
    assert rules.set_in(Var("x"), s) is None
    assert rules.set_union((s, app(SET, *ints(3, 4)))) \
        == app(SET, *ints(1, 2, 3, 4))
    assert rules.set_intersect((s, app(SET, *ints(2, 3, 9)))) \
        == app(SET, *ints(2, 3))
    assert rules.set_size(s) == IntLit(3)
    assert rules.set_size(EMPTY) == IntLit(0)


def test_map_with_lambda_substitutes(loaded):
    # x maps through -x*x+2*x+3 over {0,1,2}: values 3, 4, 3 collapse to {3,4}.
    lam = Bind(G("fns1", "lambda"), ("x",),
               app(G("arith1", "plus"),
                   app(G("arith1", "times"),
                       app(G("arith1", "unary_minus"), Var("x")), Var("x")),
                   app(G("arith1", "times"), IntLit(2), Var("x")),
                   IntLit(3)))
    t = app(G("set1", "map"), lam, app(SET, *ints(0, 1, 2)))
    r = simplify(loaded.base, t)
    assert r.term == app(SET, *ints(3, 4))


def test_map_declines_on_non_sets():
    assert rules.set_map(Var("f"), Var("s")) is None


def test_map_over_empty_set():
    assert rules.set_map(Var("f"), EMPTY) == EMPTY


def test_map_applies_a_function_that_is_not_a_lambda():
    f = Var("f")
    assert rules.set_map(f, app(SET, *ints(1, 2))) \
        == app(SET, app(f, IntLit(1)), app(f, IntLit(2)))


# -- lists ---------------------------------------------------------------------------

def test_append_nil_is_identity():
    assert rules.lists_append(NIL, clist(1, 2)) == clist(1, 2)


def test_append_steps_through_cons(loaded):
    t = app(Const(rules.APPEND), clist(1), clist(2))
    assert simplify(loaded.base, t).term == clist(1, 2)


def test_append_declines_on_malformed():
    assert rules.lists_append(IntLit(1), NIL) is None


def test_append_many_empty_sequence_is_nil():
    assert rules.lists_append_many(()) == NIL


def test_append_many_scenario(loaded):
    t = app(Const(rules.APPEND_MANY), clist(1, 2, 3), clist(4, 5),
            clist(6, 7))
    assert simplify(loaded.base, t).term == clist(1, 2, 3, 4, 5, 6, 7)


def test_append_associativity(loaded):
    rng = random.Random(17)
    ap = Const(rules.APPEND)
    for _ in range(30):
        a, b, c = (clist(*[rng.randrange(10) for _ in range(rng.randrange(4))])
                   for _ in range(3))
        left = simplify(loaded.base, app(ap, app(ap, a, b), c)).term
        right = simplify(loaded.base, app(ap, a, app(ap, b, c))).term
        assert left == right


# -- integer1 ---------------------------------------------------------------------------

def test_quotient_is_euclidean():
    assert rules.quotient(IntLit(7), IntLit(2)) == IntLit(3)
    # remainder is always nonnegative, quotient matches: a = b*q + r
    for a in (-7, -1, 0, 5, 7):
        for b in (-3, -2, 2, 3):
            q = rules.quotient(IntLit(a), IntLit(b)).value
            r = rules.remainder(IntLit(a), IntLit(b)).value
            assert 0 <= r < abs(b)
            assert a == b * q + r


def test_factorial():
    assert rules.factorial(IntLit(0)) == IntLit(1)
    assert rules.factorial(IntLit(10)) == IntLit(math.factorial(10))
    assert rules.factorial(IntLit(-1)) is None


def test_factorial_declines_from_the_digit_limit_on():
    # n is the smallest with lgamma(n + 1) / ln 10 >= L: 1559 at the default
    # L of 4300.  (n - 1)! has at most L digits and renders.
    limit = sys.get_int_max_str_digits()
    n = next(n for n in itertools.count()
             if math.lgamma(n + 1) / math.log(10) >= limit)
    assert rules.factorial(IntLit(n)) is None
    below = rules.factorial(IntLit(n - 1))
    assert below == IntLit(math.factorial(n - 1))
    assert len(str(below.value)) <= limit


def test_zero_divisor_declines(loaded):
    t = app(G("integer1", "remainder"), IntLit(7), IntLit(0))
    assert simplify(loaded.base, t).term == t


# -- catalog coherence --------------------------------------------------------------------

def test_rule_arities_match_declared_types(loaded):
    from umachine.sts import declared_arity
    for rule in loaded.base.rules():
        declared = declared_arity(loaded.graph.lookup(rule.head))
        assert declared == rule.arity, rule.head


# Arguments of every kind a rule may be called with: integers (0, ±1, one
# past every digit limit), floats (NaN too), strings and variables, truth
# values, cons lists well formed and not, sets canonical and not, and λs
# of one and two variables.
_X, _Y, _LAMBDA = Var("x"), Var("y"), Const(rules.LAMBDA)
_POOL = [
    IntLit(0), IntLit(1), IntLit(-1), IntLit(7), IntLit(-12),
    IntLit(10 ** 5000), FloatLit(0.5), FloatLit(-2.0), FloatLit(math.nan),
    FloatLit(math.inf), StrLit(""), StrLit("a"), _X, _Y, TRUE, FALSE, NIL,
    clist(1, 2), app(CONS, IntLit(1)), app(CONS, IntLit(1), IntLit(2)),
    app(CONS, IntLit(1), NIL, NIL), EMPTY, app(SET, IntLit(1), IntLit(2)),
    app(SET, IntLit(2), IntLit(1), IntLit(2)), app(SET, _X),
    Bind(_LAMBDA, ("x",), app(G("arith1", "plus"), _X, IntLit(1))),
    Bind(_LAMBDA, ("x",), _Y), Bind(_LAMBDA, ("x", "y"), _X)]
_CONTEXTS = [(), ("x",), ("x", "y")]


def _call_shapes(arity):
    """The argument counts to call a rule of ``arity`` with: ``(n, rest)``
    for ``n*``, ``(n, None)`` for ``n``, and ``None`` for a binder.  The
    empty rest of a ``0*`` rule is a call the engine never makes (an
    application has an argument), but a direct caller may."""
    if isinstance(arity, Flexible):
        return [(arity.n, k) for k in range(4)]
    if isinstance(arity, Fixed):
        return [(arity.n, None)]
    return [None]


def test_every_rule_declines_or_answers_a_term_and_never_raises(loaded):
    rng = random.Random(7)
    wrong = []
    for rule in loaded.base.rules():
        for shape in _call_shapes(rule.arity):
            for _ in range(400):
                if shape is None:
                    args = (rng.choice(_CONTEXTS), rng.choice(_POOL))
                else:
                    n, rest = shape
                    args = tuple(rng.choice(_POOL) for _ in range(n))
                    if rest is not None:
                        args += (tuple(rng.choice(_POOL)
                                       for _ in range(rest)),)
                try:
                    result = rule.fn(*args)
                except Exception as e:  # noqa: BLE001 (reported below)
                    result = e
                if result is not None and not isinstance(result, Term):
                    wrong.append((rule.head.local, args, result))
    assert wrong == []


def test_rules_never_invent_free_variables(loaded):
    # A rule result may only use free variables present in its inputs.
    from termgen import engine_term
    from umachine.machine import rewrite_step
    from umachine.terms import free_vars
    rng = random.Random(23)
    fired = 0
    for _ in range(500):
        t = engine_term(rng, 3)
        r = rewrite_step(loaded.base, t)
        if r is not None:
            assert free_vars(r) <= free_vars(t)
            fired += 1
    assert fired > 50


def test_polynomial_substitution_then_simplify(loaded):
    # The mapped polynomial at x=2: -2*2 + 2*2 + 3 folds to 3.
    from umachine.terms import Var, substitute
    body = app(G("arith1", "plus"),
               app(G("arith1", "times"),
                   app(G("arith1", "unary_minus"), Var("x")), Var("x")),
               app(G("arith1", "times"), IntLit(2), Var("x")),
               IntLit(3))
    at2 = substitute(body, {"x": IntLit(2)})
    assert simplify(loaded.base, at2).term == IntLit(3)


def test_relation_decline_is_a_fixpoint(loaded):
    t = app(G("relation1", "lt"), Var("x"), IntLit(1))
    r = simplify(loaded.base, t)
    assert r.term == t and r.steps == 0


def test_arith_rules_agree_with_bigint_reference():
    rng = random.Random(2)
    for _ in range(2000):
        x = rng.randrange(-2 ** 70, 2 ** 70)
        y = rng.randrange(-2 ** 70, 2 ** 70)
        assert rules.plus(ints(x, y)).value == x + y
        assert rules.minus(IntLit(x), IntLit(y)).value == x - y
        assert rules.times(ints(x, y)).value == x * y
        assert rules.unary_minus(IntLit(x)).value == -x
