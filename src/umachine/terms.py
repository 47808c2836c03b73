"""Core term language: OpenMath-style objects, qualified names, substitution.

Terms are immutable values that are safe to share between threads.
``simplified`` says that no rule applies to a term or inside it, as it
stands.  A literal, variable or foreign object is final by its class: rules
are keyed by constants, so none rewrites it, and it answers ``True``.  A
``Const`` answers ``False``: whether it is final depends on a rule base's
nullary rules, which the engine looks up.  Only an application or a binding
carries the marker, as a slot set when the node is built (the keyword
``simplified``); it never takes part in structural equality or hashing.

Each variant's constructor is written out: it writes the node's slots
through their member descriptors, with the checks that keep a term well
formed (a ``Const`` names a ``GlobalName``, an ``App`` has at least one
argument, a ``Bind`` binds distinct names), so building a node costs its
slot writes.  A ``GlobalName`` computes its hash once, when it is built.

No walk over a term recurses along it: equality, hashing, ``term_key``,
``free_vars``, ``substitute`` and ``strip_marks`` keep their own stacks, so
a term of any depth is handled whatever the interpreter's recursion limit.
Substitution is one loop whose frames carry the mapping in force; it asks
for the free variables of a binding's scope only when a replacement could
be captured there, and one walk keeps those of the scopes inside that may
ask next.  A name renamed away from capture joins the mapping its scope
goes under.  A mapping skips a scope whose free variables are known and
hold none of its names, so bindings that each capture a different name
cost a linear number of calls.  Each renamed binding copies the mapping.
``run`` drives the parser's generators.  The front ends refuse an input
nested deeper than ``MAX_TERM_DEPTH`` while building it (``TermTooDeepError``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass, field
from operator import is_
from typing import Callable, Generator, Mapping
from urllib.parse import urlsplit, urlunsplit

# How deeply an input may nest: in text, the operands and parentheses
# nested around its innermost part; in XML, the OMA and OMBIND elements.  A
# stated budget, not an option: the parser and the XML decoder refuse a
# deeper input.
MAX_TERM_DEPTH = 10_000


class TermTooDeepError(ValueError):
    """An input nests deeper than ``MAX_TERM_DEPTH``."""

    def __init__(self):
        super().__init__("term nested too deeply")


def run(gen: Generator):
    """The return value of ``gen``, where a generator that yields a generator
    waits for that one's return value, sent back to it.  The waiting
    generators are kept on a stack, so none of them recurses."""
    waiting = []
    value = None
    while True:
        try:
            sub = gen.send(value)
        except StopIteration as done:
            if not waiting:
                return done.value
            gen, value = waiting.pop(), done.value
            continue
        waiting.append(gen)
        gen, value = sub, None


# Normalized URIs kept (see ``normalize_uri``): a stated memory budget.
URI_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=URI_CACHE_SIZE)
def normalize_uri(uri: str) -> str:
    """Normalize a document URI: lowercase scheme and host, drop trailing
    slashes.  Cached: every ``ModuleRef`` and ``GlobalName`` calls it."""
    uri = uri.strip()
    parts = urlsplit(uri)
    if not parts.scheme:
        return uri.rstrip("/")
    path = parts.path.rstrip("/")
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), path,
                       parts.query, parts.fragment))


@dataclass(frozen=True, slots=True)
class ModuleRef:
    """A module (theory or view) qualified by its document base."""

    base: str
    module: str

    def __post_init__(self):
        object.__setattr__(self, "base", normalize_uri(self.base))

    def name(self, constant: str) -> "GlobalName":
        return GlobalName(self.base, self.module, constant)

    def __str__(self) -> str:
        return f"{self.base}?{self.module}"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class GlobalName:
    """A constant qualified by document base and module: ``base?module?name``.

    Built once per name and hashed on every rule lookup, so the hash is
    computed once, in the constructor."""

    base: str
    module: str
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, base: str, module: str, name: str):
        base = normalize_uri(base)
        _set_base(self, base)
        _set_module(self, module)
        _set_name(self, name)
        _set_hash(self, hash((base, module, name)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not GlobalName:
            return NotImplemented
        return (self._hash == other._hash and self.name == other.name
                and self.module == other.module and self.base == other.base)

    def __hash__(self):
        return self._hash

    @property
    def module_ref(self) -> ModuleRef:
        return ModuleRef(self.base, self.module)

    @property
    def local(self) -> str:
        """Short ``module?name`` form, used by renderers and reports."""
        return f"{self.module}?{self.name}"

    def __str__(self) -> str:
        return f"{self.base}?{self.module}?{self.name}"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Term:
    """Base of the term variants.

    Two terms are equal when they have the same variant and payload and
    their children are equal in order; the marker takes no part.  The
    variants inherit ``==`` and ``hash`` from here, since the dataclass
    versions recurse along the term.  ``simplified`` is a class constant of
    the leaves, ``True`` but for ``Const``; ``App`` and ``Bind`` override it
    with a slot."""

    simplified = True

    def __eq__(self, other):
        if self is other:
            return True
        cls = self.__class__
        if other.__class__ is not cls:
            return False if isinstance(other, Term) else NotImplemented
        if cls is not App and cls is not Bind:
            return _same_leaf(self, other)
        # Pairs of applications or bindings of the same variant to compare;
        # their leaves are compared on the spot.
        pairs = [(self, other)]
        for a, b in pairs:
            if a.__class__ is App:
                if len(a.args) != len(b.args):
                    return False
                kids = zip((a.head, *a.args), (b.head, *b.args))
            else:
                if a.context != b.context:
                    return False
                kids = ((a.binder, b.binder), (a.scope, b.scope))
            for x, y in kids:
                if x is y:
                    continue
                cls = x.__class__
                if y.__class__ is not cls:
                    return False
                if cls is App or cls is Bind:
                    pairs.append((x, y))
                elif not _same_leaf(x, y):
                    return False
        return True

    def __hash__(self):
        return hash(term_key(self))


def _same_leaf(a: Term, b: Term) -> bool:
    """Whether two terms of the same variant, neither an application nor a
    binding, have the same payload; a NaN float equals only itself."""
    cls = a.__class__
    if cls is Const:
        return a.head is b.head or a.head == b.head
    if cls is Var:
        return a.name == b.name
    if cls is Foreign:
        return a.format == b.format and a.content == b.content
    return a.value is b.value or a.value == b.value


# The variants.  A constructor writes each slot through its member
# descriptor (the ``_set_*`` functions below): the frozen dataclass
# ``__setattr__`` refuses every write after construction.

@dataclass(frozen=True, slots=True, weakref_slot=True, eq=False, init=False)
class Const(Term):
    """A symbol; weakly referable so decoders can share one per name.  Not
    final by class: a rule base may hold a nullary rule for it."""

    head: GlobalName
    simplified = False

    def __init__(self, head: GlobalName = None):
        if not isinstance(head, GlobalName):
            raise TypeError("Const expects a GlobalName")
        _set_const_head(self, head)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Var(Term):
    name: str

    def __init__(self, name: str = ""):
        _set_var_name(self, name)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class IntLit(Term):
    value: int

    def __init__(self, value: int = 0):
        _set_int(self, value)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class FloatLit(Term):
    value: float

    def __init__(self, value: float = 0.0):
        _set_float(self, value)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class StrLit(Term):
    value: str

    def __init__(self, value: str = ""):
        _set_str(self, value)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class App(Term):
    head: Term
    args: tuple
    simplified: bool = field(compare=False, repr=False)

    def __init__(self, head: Term = None, args=(), *,
                 simplified: bool = False):
        if args.__class__ is not tuple:
            args = tuple(args)
        if not args:
            raise ValueError("an application needs at least one argument")
        _set_app_head(self, head)
        _set_args(self, args)
        _set_app_simplified(self, simplified)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Bind(Term):
    binder: Term
    context: tuple
    scope: Term
    simplified: bool = field(compare=False, repr=False)

    def __init__(self, binder: Term = None, context=(), scope: Term = None,
                 *, simplified: bool = False):
        if context.__class__ is not tuple:
            context = tuple(context)
        if len(context) > 1 and len(set(context)) != len(context):
            raise ValueError("bound variable names must be pairwise distinct")
        _set_binder(self, binder)
        _set_context(self, context)
        _set_scope(self, scope)
        _set_bind_simplified(self, simplified)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Foreign(Term):
    """An escaped non-term payload, preserved verbatim and never executed."""

    format: str
    content: str

    def __init__(self, format: str = "", content: str = ""):
        _set_format(self, format)
        _set_content(self, content)


# The setters of the slots' member descriptors, through which the
# constructors write.
_set_base = GlobalName.base.__set__
_set_module = GlobalName.module.__set__
_set_name = GlobalName.name.__set__
_set_hash = GlobalName._hash.__set__
_set_const_head = Const.head.__set__
_set_var_name = Var.name.__set__
_set_int = IntLit.value.__set__
_set_float = FloatLit.value.__set__
_set_str = StrLit.value.__set__
_set_app_head = App.head.__set__
_set_args = App.args.__set__
_set_app_simplified = App.simplified.__set__
_set_binder = Bind.binder.__set__
_set_context = Bind.context.__set__
_set_scope = Bind.scope.__set__
_set_bind_simplified = Bind.simplified.__set__
_set_format = Foreign.format.__set__
_set_content = Foreign.content.__set__


def _refuse_write(self, name, *value):
    """Refuse every write, as a frozen dataclass refuses one to a field; its
    own ``__setattr__`` raises a TypeError for any other name with slots."""
    raise FrozenInstanceError(
        f"cannot {'assign to' if value else 'delete'} field {name!r}")


for _cls in (ModuleRef, GlobalName, Term, Const, Var, IntLit, FloatLit,
             StrLit, App, Bind, Foreign):
    _cls.__setattr__ = _cls.__delattr__ = _refuse_write


def app(head: Term, *args: Term) -> App:
    return App(head, args)


def rebuild(t: Term, leaf: Callable[[Term], Term]) -> Term:
    """``t`` with every leaf ``x`` replaced by ``leaf(x)``.  An application
    or binding is built again, unmarked, when a child changed or it is
    marked; a subtree that stays as it was is shared."""
    done: list = []  # the results their parents have not yet taken
    # Terms, and after a node's children: (the node, its children).
    todo: list = [t]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is App or cls is Bind:
            kids = (t.head, *t.args) if cls is App else (t.binder, t.scope)
            todo.append((t, kids))
            todo += kids[::-1]
        elif cls is tuple:
            node, kids = t
            got = done[-len(kids):]
            del done[-len(kids):]
            done.append(
                node if not node.simplified and all(map(is_, got, kids))
                else App(got[0], tuple(got[1:])) if node.__class__ is App
                else Bind(got[0], node.context, got[1]))
        else:
            done.append(leaf(t))
    return done[0]


def strip_marks(t: Term) -> Term:
    """Remove every simplified marker in ``t``, sharing untouched subtrees."""
    return rebuild(t, lambda x: x)


def free_vars(t: Term) -> frozenset:
    """The variables of ``t`` occurring outside any binder that binds them."""
    return _free_vars(t, {}, ())


def _free_vars(t: Term, memo: dict, watch) -> frozenset:
    """``free_vars(t)``, from ``memo`` if there, else found in one walk that
    enters in ``memo``, by ``id``, ``t`` and the scope of each binding in it
    that binds a name in ``watch``, each held beside its free variables."""
    if id(t) not in memo:
        found = set()  # the free variables of the scope under way
        # Terms, and after a binding's scope: (the set around, the binding).
        todo: list = [t]
        while todo:
            u = todo.pop()
            cls = u.__class__
            if cls is Var:
                found.add(u.name)
            elif cls is App:
                todo += u.args
                todo.append(u.head)
            elif cls is Bind:
                todo += (u.binder, (found, u), u.scope)
                found = set()
            elif cls is tuple:
                outer, u = u
                if watch and not watch.isdisjoint(u.context):
                    memo[id(u.scope)] = u.scope, frozenset(found)
                found.difference_update(u.context)
                if len(found) < len(outer):  # merge the smaller into the other
                    found, outer = outer, found
                found |= outer
        memo[id(t)] = t, frozenset(found)  # held, so that no id is reused
    return memo[id(t)][1]


def fresh_name(base: str, avoid) -> str:
    """Append the smallest positive integer suffix not occurring in ``avoid``."""
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def substitute(t: Term, bindings: Mapping[str, Term]) -> Term:
    """Capture-avoiding substitution of free variables.

    Rebuilt nodes lose their simplified marker; untouched subtrees (and the
    inserted replacement terms) are shared as-is.
    """
    if not bindings:
        return t
    # The mapping in force, and the free variables of its replacements,
    # computed when a binding first asks for them.
    env = [dict(bindings), None]
    memo: dict = {}  # the free variables found so far, for _free_vars
    # One frame per App or Bind under way: the node, its children (a
    # binding's binder only), the results so far and the mapping they are
    # under.  A binding whose binder is done becomes a frame with no
    # children: the node, then its binder and its names, until its scope,
    # under the one mapping that ``_scope_mappings`` gives, is done.
    stack: list[tuple] = []
    while True:
        cls = t.__class__
        if cls is App:
            stack.append((t, (t.head, *t.args), [], env))
            t = t.head
            continue
        if cls is Bind:
            stack.append((t, (t.binder,), [], env))
            t = t.binder
            continue
        if cls is Var:
            t = env[0].get(t.name, t)
        # t is done: hand it to its frame with the leaves after it, and
        # finish each frame whose children are all done.
        while True:
            if not stack:
                return t
            node, kids, done, env = stack[-1]
            if kids is None:
                binder, ctx = done
                stack.pop()
                t = (node if binder is node.binder and ctx is node.context
                     and t is node.scope else Bind(binder, ctx, t))
                continue
            done.append(t)
            bnd = env[0]
            i = len(done)
            while i < len(kids):
                t = kids[i]
                cls = t.__class__
                if cls is App or cls is Bind:
                    break
                done.append(bnd.get(t.name, t) if cls is Var else t)
                i += 1
            else:
                stack.pop()
                if node.__class__ is App:
                    t = (node if all(map(is_, done, kids))
                         else App(done[0], tuple(done[1:])))
                    continue
                binder = done[0]
                ctx, env = _scope_mappings(node, env, memo)
                if env is None:
                    t = (node if binder is node.binder
                         else Bind(binder, ctx, node.scope))
                    continue
                stack.append((node, None, (binder, ctx), None))
                t = node.scope
            break


def _scope_mappings(node: Bind, env: list,
                    memo: dict) -> tuple[tuple, list | None]:
    """The names ``node`` binds once renamed away from capture, and the
    mapping (with the free variables of its replacements, or ``None`` until
    asked for) that its scope goes under when its binding is under ``env``,
    or ``None`` if the scope stays as it is.  A renamed ``x`` maps to an
    ``x′`` free in neither the scope nor a replacement, so no replacement
    mentions one.  Free variables are found through ``memo``."""
    bnd, reach = env
    ctx = node.context
    if not bnd.keys().isdisjoint(ctx):
        bnd = {k: v for k, v in bnd.items() if k not in ctx}
        if not bnd:
            return ctx, None
    if reach is None:
        reach = env[1] = set().union(
            *[_free_vars(v, memo, ()) for v in env[0].values()])
    if reach.isdisjoint(ctx) and id(node.scope) not in memo:
        # No replacement has a free variable that ``node`` binds: nothing
        # is captured, whichever of them occur free in the scope.  When the
        # scope's free variables are known, the path below uses them to
        # skip a scope where no key occurs free.
        return ctx, [bnd, reach]
    # The scopes inside that bind a name in ``reach`` may ask next.
    scope_fvs = _free_vars(node.scope, memo, reach)
    inner = {k: v for k, v in bnd.items() if k in scope_fvs}
    if not inner:
        return ctx, None
    reach = set().union(*[_free_vars(v, memo, ()) for v in inner.values()])
    clashing = [x for x in ctx if x in reach]
    if not clashing:
        return ctx, [inner, reach]
    # Rename bound names that would capture a replacement's free variable.
    avoid = {*scope_fvs, *ctx, *reach}
    for x in clashing:
        avoid.add(nx := fresh_name(x, avoid))
        inner[x] = Var(nx)
        reach.add(nx)
    return (tuple(inner[x].name if x in inner else x for x in ctx),
            [inner, reach])


def _leaf_key(t: Term) -> tuple:
    """The key of a term other than an application or binding."""
    if isinstance(t, Const):
        return (0, (t.head.base, t.head.module, t.head.name))
    if isinstance(t, Var):
        return (1, t.name)
    if isinstance(t, IntLit):
        return (2, t.value)
    if isinstance(t, FloatLit):
        return (3, (1, 0.0) if math.isnan(t.value) else (0, t.value))
    if isinstance(t, StrLit):
        return (4, t.value)
    if isinstance(t, Foreign):
        return (7, (t.format, t.content))
    raise TypeError(f"not a term: {t!r}")


def term_key(t: Term) -> tuple:
    """A total-order key on terms: the preorder of ``t`` as one flat tuple.

    A leaf gives its tag and payload; an application 5, its head, its
    argument count and its arguments; a binding 6, its binder, its
    variables and its scope.  No key is a proper prefix of another, so
    keys compare as the terms' variant tag, then payload, then children."""
    if not isinstance(t, (App, Bind)):
        return _leaf_key(t)
    key = []
    # Terms, and one-element tuples holding a payload that goes in as is.
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            key.append(5)
            todo += t.args[::-1]
            todo.append((len(t.args),))
            todo.append(t.head)
        elif isinstance(t, Bind):
            key.append(6)
            todo += (t.scope, (t.context,), t.binder)
        elif isinstance(t, tuple):
            key.append(t[0])
        else:
            key += _leaf_key(t)
    return tuple(key)
