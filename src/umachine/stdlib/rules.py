"""Native rule implementations for the shipped content dictionaries.

Every function is partial: it declines by returning ``None`` on any argument
outside its domain (non-literal arguments, malformed lists, zero divisors),
as the escaped snippets in the views pattern-match, and never raises for
one: ``machine._apply`` absorbs an exception only as a safety net, not as a
way to decline.  Only integer arithmetic is realized; floats decline.
"""

from __future__ import annotations

import math
import operator
import sys

from ..graph import OPENMATH_CD_BASE, LISTS_DOC_BASE
from ..realization import register
from ..terms import (App, Bind, Const, GlobalName, IntLit, Term, app,
                     substitute, term_key)

_CD = OPENMATH_CD_BASE

LOGIC_TRUE = Const(GlobalName(_CD, "logic1", "true"))
LOGIC_FALSE = Const(GlobalName(_CD, "logic1", "false"))
SET = GlobalName(_CD, "set1", "set")
EMPTYSET = Const(GlobalName(_CD, "set1", "emptyset"))
LAMBDA = GlobalName(_CD, "fns1", "lambda")

NIL = Const(GlobalName(LISTS_DOC_BASE, "lists", "nil"))
CONS = GlobalName(LISTS_DOC_BASE, "lists", "cons")
APPEND = GlobalName(LISTS_DOC_BASE, "lists", "append")
APPEND_MANY = GlobalName(LISTS_DOC_BASE, "lists_ext", "append_many")

# The heads of the applications the rules build, shared by every result.
_SET = Const(SET)
_CONS = Const(CONS)
_APPEND = Const(APPEND)
_APPEND_MANY = Const(APPEND_MANY)


def _int(t: Term):
    return t.value if isinstance(t, IntLit) else None


def _ints(ts):
    """The values of ``ts`` if all are integer literals, else None."""
    for t in ts:
        if t.__class__ is not IntLit:
            return None
    return [t.value for t in ts]


def _bool(t: Term):
    if t == LOGIC_TRUE:
        return True
    if t == LOGIC_FALSE:
        return False
    return None


def _from_bool(b: bool) -> Term:
    return LOGIC_TRUE if b else LOGIC_FALSE


def _is_set(t: Term) -> bool:
    if t == EMPTYSET:
        return True
    return isinstance(t, App) and isinstance(t.head, Const) \
        and t.head.head == SET


def _set_elements(t: Term) -> tuple:
    return () if t == EMPTYSET else t.args


def _is_cons_list(t: Term) -> bool:
    if t == NIL:
        return True
    return isinstance(t, App) and isinstance(t.head, Const) \
        and t.head.head == CONS and len(t.args) == 2


def _is_value(t: Term) -> bool:
    """Ground values: structural equality coincides with semantic equality.
    An integer, a truth value, a set of values or a cons list of values."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, IntLit) or _bool(t) is not None or t == NIL:
            continue
        if _is_set(t):
            todo += _set_elements(t)
        elif _is_cons_list(t):
            todo += t.args
        else:
            return False
    return True


def _canonical_set(elems, keys=None) -> Term:
    """The set of ``elems`` sorted by ``term_key``, the first of equal ones
    kept; each key is computed once, or given as ``keys``."""
    if keys is None:
        keys = [term_key(e) for e in elems]
    out = []
    seen = set()
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        k = keys[i]
        if k not in seen:
            seen.add(k)
            out.append(elems[i])
    if not out:
        return EMPTYSET
    return app(_SET, *out)


# -- arith1 -------------------------------------------------------------------

def plus(args):
    vals = _ints(args)
    return None if vals is None else IntLit(sum(vals))


def minus(a, b):
    x, y = _int(a), _int(b)
    return None if x is None or y is None else IntLit(x - y)


def times(args):
    vals = _ints(args)
    if vals is None:
        return None
    out = 1
    for v in vals:
        out *= v
    return IntLit(out)


def unary_minus(a):
    x = _int(a)
    return None if x is None else IntLit(-x)


def _max_digits() -> float:
    """``sys.get_int_max_str_digits()``, infinite where that is 0."""
    return sys.get_int_max_str_digits() or math.inf


def power(a, b):
    x, y = _int(a), _int(b)
    if x is None or y is None or y < 0:
        return None
    # Decline, before computing it, a result too long to render.
    if abs(x) > 1 and y >= _max_digits() / math.log10(abs(x)):
        return None
    return IntLit(x ** y)


# -- logic1 -------------------------------------------------------------------

def logic_and(args):
    vals = [_bool(a) for a in args]
    return None if any(v is None for v in vals) else _from_bool(all(vals))


def logic_or(args):
    vals = [_bool(a) for a in args]
    return None if any(v is None for v in vals) else _from_bool(any(vals))


def logic_not(a):
    v = _bool(a)
    return None if v is None else _from_bool(not v)


def implies(a, b):
    x, y = _bool(a), _bool(b)
    if x is None or y is None:
        return None
    return _from_bool((not x) or y)


# -- relation1 ----------------------------------------------------------------

def eq(a, b):
    if _is_value(a) and _is_value(b):
        return _from_bool(a == b)
    return None


def neq(a, b):
    r = eq(a, b)
    return None if r is None else _from_bool(r == LOGIC_FALSE)


def _int_cmp(op):
    def rule(a, b):
        x, y = _int(a), _int(b)
        return None if x is None or y is None else _from_bool(op(x, y))
    return rule


lt = _int_cmp(lambda x, y: x < y)
gt = _int_cmp(lambda x, y: x > y)
leq = _int_cmp(lambda x, y: x <= y)
geq = _int_cmp(lambda x, y: x >= y)


# -- set1 ---------------------------------------------------------------------

def set_canon(args):
    # Declines a set that is already canonical, its keys strictly
    # increasing, rather than build it again to be found equal.
    keys = [term_key(e) for e in args]
    if args and all(map(operator.lt, keys, keys[1:])):
        return None
    return _canonical_set(args, keys)


def set_in(e, s):
    if not _is_set(s):
        return None
    elems = _set_elements(s)
    if any(e == x for x in elems):
        return LOGIC_TRUE
    if _is_value(e) and all(_is_value(x) for x in elems):
        return LOGIC_FALSE
    return None


def set_union(args):
    if not all(_is_set(a) for a in args):
        return None
    elems = [e for a in args for e in _set_elements(a)]
    return _canonical_set(elems)


def set_intersect(args):
    # The intersection of no sets is not a set: decline.
    if not args or not all(_is_set(a) for a in args):
        return None
    if not all(_is_value(e) for a in args for e in _set_elements(a)):
        return None
    keys = [set(term_key(e) for e in _set_elements(a)) for a in args]
    common = set.intersection(*keys)
    elems = [e for e in _set_elements(args[0]) if term_key(e) in common]
    return _canonical_set(elems)


def set_size(s):
    if not _is_set(s):
        return None
    elems = _set_elements(s)
    if not all(_is_value(e) for e in elems):
        return None
    distinct = {term_key(e) for e in elems}
    return IntLit(len(distinct))


def set_map(f, s):
    if not _is_set(s):
        return None
    elems = _set_elements(s)
    if not elems:
        return EMPTYSET
    if isinstance(f, Bind) and isinstance(f.binder, Const) \
            and f.binder.head == LAMBDA and len(f.context) == 1:
        x = f.context[0]
        mapped = [substitute(f.scope, {x: e}) for e in elems]
    else:
        mapped = [app(f, e) for e in elems]
    return app(_SET, *mapped)


# -- integer1 -----------------------------------------------------------------

def _euclid(a, b):
    r = a % abs(b)
    return (a - r) // b, r


def quotient(a, b):
    x, y = _int(a), _int(b)
    if x is None or y is None or y == 0:
        return None
    return IntLit(_euclid(x, y)[0])


def remainder(a, b):
    x, y = _int(a), _int(b)
    if x is None or y is None or y == 0:
        return None
    return IntLit(_euclid(x, y)[1])


def factorial(a):
    x = _int(a)
    if x is None or x < 0:
        return None
    # As in power.  Testing x >= limit first keeps a huge x from lgamma:
    # n! has more than n digits from n = 25 on, and the limit is >= 640.
    limit = _max_digits()
    if x >= limit or math.lgamma(x + 1) / math.log(10) >= limit:
        return None
    return IntLit(math.factorial(x))


# -- lists / lists_ext ----------------------------------------------------------

def lists_append(l, m):
    if l == NIL:
        return m
    if isinstance(l, App) and isinstance(l.head, Const) \
            and l.head.head == CONS and len(l.args) == 2:
        head, tail = l.args
        return app(_CONS, head, app(_APPEND, tail, m))
    return None


def lists_append_many(args):
    if not all(_is_cons_list(a) for a in args):
        return None
    if not args:
        return NIL
    if len(args) == 1:
        return app(_APPEND, args[0], NIL)
    return app(_APPEND, args[0], app(_APPEND_MANY, *args[1:]))


def register_all():
    register("IntegerArith", "plus", plus)
    register("IntegerArith", "minus", minus)
    register("IntegerArith", "times", times)
    register("IntegerArith", "unary_minus", unary_minus)
    register("IntegerArith", "power", power)

    register("LogicOps", "and", logic_and)
    register("LogicOps", "or", logic_or)
    register("LogicOps", "not", logic_not)
    register("LogicOps", "implies", implies)

    register("RelationOps", "eq", eq)
    register("RelationOps", "neq", neq)
    register("RelationOps", "lt", lt)
    register("RelationOps", "gt", gt)
    register("RelationOps", "leq", leq)
    register("RelationOps", "geq", geq)

    register("SetOps", "set", set_canon)
    register("SetOps", "in", set_in)
    register("SetOps", "union", set_union)
    register("SetOps", "intersect", set_intersect)
    register("SetOps", "size", set_size)
    register("SetOps", "map", set_map)

    register("IntegerOps", "quotient", quotient)
    register("IntegerOps", "remainder", remainder)
    register("IntegerOps", "factorial", factorial)

    register("ListsImpl", "append", lists_append)
    register("ListsExtImpl", "append_many", lists_append_many)


register_all()
