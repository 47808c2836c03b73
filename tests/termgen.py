"""Seeded random term generators over the stdlib vocabulary.

Two flavors: ``engine_term`` builds arity-correct terms for exercising the
rewrite engine (bounded literals so folds stay cheap); ``surface_term``
builds terms that must survive render-then-parse exactly (no Foreign, only
cleanly-rendering floats).
"""

import random

from umachine.graph import OPENMATH_CD_BASE, LISTS_DOC_BASE
from umachine.terms import (App, Bind, Const, FloatLit, GlobalName, IntLit,
                            StrLit, Var, app)

CD = OPENMATH_CD_BASE


def g(module, name):
    base = LISTS_DOC_BASE if module in ("lists", "lists_ext") else CD
    return GlobalName(base, module, name)


TRUE = Const(g("logic1", "true"))
FALSE = Const(g("logic1", "false"))
NIL = Const(g("lists", "nil"))
CONS = Const(g("lists", "cons"))
APPEND = Const(g("lists", "append"))
APPEND_MANY = Const(g("lists_ext", "append_many"))
SET = Const(g("set1", "set"))
EMPTYSET = Const(g("set1", "emptyset"))
LAMBDA = Const(g("fns1", "lambda"))

VARS = ["u", "v", "w", "x", "y", "z"]


def marked(t):
    """``t`` carrying the simplified marker, as a term a rule returns may:
    an application or binding as a marked copy whatever its children, a
    leaf as it is (only applications and bindings carry the marker)."""
    if isinstance(t, App):
        return App(t.head, t.args, simplified=True)
    if isinstance(t, Bind):
        return Bind(t.binder, t.context, t.scope, simplified=True)
    return t


def int_list(rng: random.Random, max_len=4):
    t = NIL
    for _ in range(rng.randrange(max_len + 1)):
        t = app(CONS, IntLit(rng.randrange(-9, 10)), t)
    return t


def engine_term(rng: random.Random, depth=3):
    """Arity-correct stdlib terms with small literals."""
    if depth <= 0:
        return rng.choice([
            IntLit(rng.randrange(-20, 21)), IntLit(rng.randrange(0, 5)),
            TRUE, FALSE, EMPTYSET, NIL, Var(rng.choice(VARS)),
        ])

    def sub():
        return engine_term(rng, depth - 1)

    def small():
        return IntLit(rng.randrange(-6, 7))

    kind = rng.randrange(14)
    if kind == 0:
        return app(Const(g("arith1", "plus")),
                   *[sub() for _ in range(rng.randrange(1, 4))])
    if kind == 1:
        return app(Const(g("arith1", "minus")), sub(), sub())
    if kind == 2:
        return app(Const(g("arith1", "times")),
                   *[sub() for _ in range(rng.randrange(1, 4))])
    if kind == 3:
        return app(Const(g("arith1", "unary_minus")), sub())
    if kind == 4:
        return app(Const(g("arith1", "power")), small(),
                   IntLit(rng.randrange(0, 4)))
    if kind == 5:
        op = rng.choice(["eq", "neq", "lt", "gt", "leq", "geq"])
        return app(Const(g("relation1", op)), sub(), sub())
    if kind == 6:
        op = rng.choice(["and", "or"])
        return app(Const(g("logic1", op)),
                   *[sub() for _ in range(rng.randrange(1, 4))])
    if kind == 7:
        return app(Const(g("logic1", "not")), sub())
    if kind == 8:
        return app(SET, *[sub() for _ in range(rng.randrange(1, 4))])
    if kind == 9:
        op = rng.choice(["union", "intersect"])
        return app(Const(g("set1", op)),
                   *[app(SET, *[small() for _ in range(rng.randrange(1, 3))])
                     for _ in range(rng.randrange(1, 3))])
    if kind == 10:
        x = rng.choice(VARS)
        body = app(Const(g("arith1", "plus")), Var(x), small())
        return app(Const(g("set1", "map")), Bind(LAMBDA, (x,), body),
                   app(SET, *[small() for _ in range(rng.randrange(1, 4))]))
    if kind == 11:
        op = rng.choice(["quotient", "remainder"])
        return app(Const(g("integer1", op)), sub(), small())
    if kind == 12:
        return app(Const(g("integer1", "factorial")),
                   IntLit(rng.randrange(0, 8)))
    return app(APPEND_MANY,
               *[int_list(rng) for _ in range(rng.randrange(1, 4))]) \
        if rng.random() < 0.5 else app(APPEND, int_list(rng), int_list(rng))


def surface_term(rng: random.Random, depth=3):
    """Terms whose rendering re-parses to an equal term."""
    if depth <= 0:
        choice = rng.randrange(7)
        if choice == 0:
            return IntLit(rng.randrange(-50, 51))
        if choice == 1:
            return FloatLit(rng.randrange(-8, 9) / 2.0)
        if choice == 2:
            return StrLit(rng.choice(["", "a b", 'say "hi"', "back\\slash"]))
        if choice == 3:
            return Var(rng.choice(VARS))
        if choice == 4:
            return rng.choice([TRUE, FALSE, NIL])
        if choice == 5:
            return EMPTYSET
        return Const(g("nums1", rng.choice(["pi", "e"])))

    def sub():
        return surface_term(rng, depth - 1)

    kind = rng.randrange(12)
    if kind == 0:
        return app(Const(g("arith1", "plus")),
                   *[sub() for _ in range(rng.randrange(1, 4))])
    if kind == 1:
        return app(Const(g("arith1", "minus")), sub(), sub())
    if kind == 2:
        return app(Const(g("arith1", "times")),
                   *[sub() for _ in range(rng.randrange(1, 4))])
    if kind == 3:
        return app(Const(g("arith1", "unary_minus")), sub())
    if kind == 4:
        return app(Const(g("arith1", "power")), sub(), sub())
    if kind == 5:
        op = rng.choice(["eq", "neq", "lt", "gt", "leq", "geq"])
        return app(Const(g("relation1", op)), sub(), sub())
    if kind == 6:
        return app(SET, *[sub() for _ in range(rng.randrange(1, 4))])
    if kind == 7:
        x = rng.choice(VARS)
        return Bind(LAMBDA, (x,), sub())
    if kind == 8:
        return app(Const(g("set1", "map")), sub(), sub())
    if kind == 9:
        op = rng.choice(["quotient", "remainder", "factorial", "size"])
        mod = "set1" if op == "size" else "integer1"
        n = 1 if op in ("factorial", "size") else 2
        return app(Const(g(mod, op)), *[sub() for _ in range(n)])
    if kind == 10:
        return app(APPEND if rng.random() < 0.5 else CONS, sub(), sub())
    return app(Const(g("logic1", rng.choice(["and", "or"]))),
               *[sub() for _ in range(rng.randrange(1, 4))])
