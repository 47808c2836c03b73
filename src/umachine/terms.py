"""Core term language: OpenMath-style objects, qualified names, substitution.

Terms are immutable values that are safe to share between threads.  The
``simplified`` marker is metadata: it never takes part in structural equality
or hashing, and it is only ever "set" by building a new term value.

No walk over a term recurses along it: equality, hashing, ``term_key``,
``free_vars``, ``substitute`` and ``strip_marks`` keep their own stacks, so
a term of any depth is handled whatever the interpreter's recursion limit.
The front ends refuse an input nested deeper than ``MAX_TERM_DEPTH`` while
they build it, with ``TermTooDeepError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
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


@functools.lru_cache(maxsize=1024)
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


@dataclass(frozen=True, slots=True)
class GlobalName:
    """A constant qualified by document base and module: ``base?module?name``."""

    base: str
    module: str
    name: str

    def __post_init__(self):
        object.__setattr__(self, "base", normalize_uri(self.base))

    @property
    def module_ref(self) -> ModuleRef:
        return ModuleRef(self.base, self.module)

    @property
    def local(self) -> str:
        """Short ``module?name`` form, used by renderers and reports."""
        return f"{self.module}?{self.name}"

    def __str__(self) -> str:
        return f"{self.base}?{self.module}?{self.name}"


@dataclass(frozen=True, slots=True)
class Term:
    """Base of the term variants; carries the ``simplified`` marker.

    Two terms are equal when they have the same variant and payload and
    their children are equal in order; the marker takes no part.  The
    variants inherit ``==`` and ``hash`` from here (``eq=False``), since the
    dataclass versions recurse along the term."""

    simplified: bool = field(default=False, compare=False, repr=False, kw_only=True)

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


class _WeakReferable:
    """A ``__weakref__`` slot for a slotted dataclass; the dataclass option
    ``weakref_slot`` needs Python 3.11."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True, eq=False)
class Const(Term, _WeakReferable):
    """A symbol; weakly referable so decoders can share one per name."""

    head: GlobalName = None  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.head, GlobalName):
            raise TypeError("Const expects a GlobalName")


@dataclass(frozen=True, slots=True, eq=False)
class Var(Term):
    name: str = ""


@dataclass(frozen=True, slots=True, eq=False)
class IntLit(Term):
    value: int = 0


@dataclass(frozen=True, slots=True, eq=False)
class FloatLit(Term):
    value: float = 0.0


@dataclass(frozen=True, slots=True, eq=False)
class StrLit(Term):
    value: str = ""


@dataclass(frozen=True, slots=True, eq=False)
class App(Term):
    head: Term = None  # type: ignore[assignment]
    args: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("an application needs at least one argument")


@dataclass(frozen=True, slots=True, eq=False)
class Bind(Term):
    binder: Term = None  # type: ignore[assignment]
    context: tuple = ()
    scope: Term = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "context", tuple(self.context))
        if len(set(self.context)) != len(self.context):
            raise ValueError("bound variable names must be pairwise distinct")


@dataclass(frozen=True, slots=True, eq=False)
class Foreign(Term):
    """An escaped non-term payload, preserved verbatim and never executed."""

    format: str = ""
    content: str = ""


def app(head: Term, *args: Term) -> App:
    return App(head, args)


_PAYLOAD = {cls: tuple(f.name for f in fields(cls) if f.name != "simplified")
            for cls in (Const, Var, IntLit, FloatLit, StrLit, App, Bind, Foreign)}
_set = object.__setattr__


def _twin(t: Term, simplified: bool) -> Term:
    """``t`` with another marker.  The copy skips the constructor's checks,
    which ``t`` has passed."""
    twin = object.__new__(t.__class__)
    for name in _PAYLOAD[t.__class__]:
        _set(twin, name, getattr(t, name))
    _set(twin, "simplified", simplified)
    return twin


def mark(t: Term) -> Term:
    """Return ``t`` carrying the simplified marker (no-op if already set).

    Only ``t`` itself is marked; its children are shared as they are."""
    return t if t.simplified else _twin(t, True)


def rebuild(t: Term, leaf: Callable[[Term], Term]) -> Term:
    """``t`` with every leaf ``x`` replaced by ``leaf(x)``.  An application
    or binding is built again, unmarked, when a child changed or it is
    marked; a subtree that stays as it was is shared."""
    # One frame per App or Bind under way: the node, its children and the
    # results of those done so far, as in ``machine.simplify``.
    stack: list[tuple[Term, tuple, list]] = []
    while True:
        if isinstance(t, App):
            stack.append((t, (t.head, *t.args), []))
            t = t.head
            continue
        if isinstance(t, Bind):
            stack.append((t, (t.binder, t.scope), []))
            t = t.binder
            continue
        t = leaf(t)
        while True:
            if not stack:
                return t
            node, kids, done = stack[-1]
            done.append(t)
            if len(done) < len(kids):
                t = kids[len(done)]
                break
            stack.pop()
            if not node.simplified and all(a is b for a, b in zip(done, kids)):
                t = node
            elif isinstance(node, App):
                t = App(done[0], tuple(done[1:]))
            else:
                t = Bind(done[0], node.context, done[1])


def strip_marks(t: Term) -> Term:
    """Remove every simplified marker in ``t``, sharing untouched subtrees."""
    return rebuild(t, lambda x: _twin(x, False) if x.simplified else x)


def free_vars(t: Term) -> frozenset:
    """The variables of ``t`` occurring outside any binder that binds them."""
    found = set()
    bound: dict[str, int] = {}  # name -> the bindings around here of it
    # Terms, and (step, names): a binding's names come into scope (step 1)
    # after its binder and leave it (step -1) after its scope.
    todo: list = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            if not bound.get(t.name):
                found.add(t.name)
        elif isinstance(t, App):
            todo += t.args[::-1]
            todo.append(t.head)
        elif isinstance(t, Bind):
            todo += ((-1, t.context), t.scope, (1, t.context), t.binder)
        elif t.__class__ is tuple:
            step, names = t
            for x in names:
                bound[x] = bound.get(x, 0) + step
    return frozenset(found)


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
    return run(_substituted(t, dict(bindings)))


def _substituted(t: Term, bnd: dict):
    """A generator for ``run``: ``t`` under ``bnd``.  The scope of a binding
    goes under another mapping (the names it binds left out, and perhaps
    renamed first), each by a generator of its own."""
    stack: list[tuple[Term, tuple, list]] = []
    while True:
        if isinstance(t, App):
            stack.append((t, (t.head, *t.args), []))
            t = t.head
            continue
        if isinstance(t, Bind):
            stack.append((t, (t.binder,), []))
            t = t.binder
            continue
        if isinstance(t, Var):
            t = bnd.get(t.name, t)
        while True:
            if not stack:
                return t
            node, kids, done = stack[-1]
            done.append(t)
            if len(done) < len(kids):
                t = kids[len(done)]
                break
            stack.pop()
            if isinstance(node, App):
                t = (node if all(a is b for a, b in zip(done, kids))
                     else App(done[0], tuple(done[1:])))
                continue
            binder = done[0]
            inner = {k: v for k, v in bnd.items() if k not in node.context}
            ctx, scope = node.context, node.scope
            if inner:
                scope_fvs = free_vars(scope)
                inner = {k: v for k, v in inner.items() if k in scope_fvs}
            if inner:
                # Rename bound names that would capture a replacement's free
                # variable.
                clashing = [x for x in ctx
                            if any(x in free_vars(v) for v in inner.values())]
                if clashing:
                    avoid = set(scope_fvs) | set(ctx)
                    for v in inner.values():
                        avoid |= free_vars(v)
                    renaming = {}
                    new_ctx = []
                    for x in ctx:
                        if x in clashing:
                            nx = fresh_name(x, avoid)
                            avoid.add(nx)
                            renaming[x] = Var(nx)
                            new_ctx.append(nx)
                        else:
                            new_ctx.append(x)
                    ctx = tuple(new_ctx)
                    scope = yield _substituted(scope, renaming)
                scope = yield _substituted(scope, inner)
            if binder is node.binder and ctx == node.context \
                    and scope is node.scope:
                t = node
            else:
                t = Bind(binder, ctx, scope)


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
