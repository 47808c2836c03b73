"""Core term language: OpenMath-style objects, qualified names, substitution.

Terms are immutable values that are safe to share between threads.  The
``simplified`` marker is metadata: it never takes part in structural equality
or hashing, and it is only ever "set" by building a new term value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Mapping
from urllib.parse import urlsplit, urlunsplit


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
    """Base of the term variants; carries the ``simplified`` marker."""

    simplified: bool = field(default=False, compare=False, repr=False, kw_only=True)


class _WeakReferable:
    """A ``__weakref__`` slot for a slotted dataclass; the dataclass option
    ``weakref_slot`` needs Python 3.11."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Const(Term, _WeakReferable):
    """A symbol; weakly referable so decoders can share one per name."""

    head: GlobalName = None  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.head, GlobalName):
            raise TypeError("Const expects a GlobalName")


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str = ""


@dataclass(frozen=True, slots=True)
class IntLit(Term):
    value: int = 0


@dataclass(frozen=True, slots=True)
class FloatLit(Term):
    value: float = 0.0


@dataclass(frozen=True, slots=True)
class StrLit(Term):
    value: str = ""


@dataclass(frozen=True, slots=True)
class App(Term):
    head: Term = None  # type: ignore[assignment]
    args: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("an application needs at least one argument")


@dataclass(frozen=True, slots=True)
class Bind(Term):
    binder: Term = None  # type: ignore[assignment]
    context: tuple = ()
    scope: Term = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "context", tuple(self.context))
        if len(set(self.context)) != len(self.context):
            raise ValueError("bound variable names must be pairwise distinct")


@dataclass(frozen=True, slots=True)
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


def strip_marks(t: Term) -> Term:
    """Remove every simplified marker in ``t``, sharing untouched subtrees."""
    if isinstance(t, App):
        head = strip_marks(t.head)
        args = tuple(strip_marks(a) for a in t.args)
        if head is t.head and all(a is b for a, b in zip(args, t.args)) and not t.simplified:
            return t
        return App(head, args)
    if isinstance(t, Bind):
        binder = strip_marks(t.binder)
        scope = strip_marks(t.scope)
        if binder is t.binder and scope is t.scope and not t.simplified:
            return t
        return Bind(binder, t.context, scope)
    return _twin(t, False) if t.simplified else t


def free_vars(t: Term) -> frozenset:
    """The variables of ``t`` occurring outside any binder that binds them."""
    return _free_vars(t, frozenset())


# ``_free_vars`` and ``_substitute`` are module functions, not nested
# closures: a closure that calls itself is a reference cycle, left for the
# cyclic garbage collector after every call.
def _free_vars(t: Term, bound: frozenset) -> frozenset:
    if isinstance(t, Var):
        return frozenset() if t.name in bound else frozenset((t.name,))
    if isinstance(t, App):
        acc = _free_vars(t.head, bound)
        for a in t.args:
            acc |= _free_vars(a, bound)
        return acc
    if isinstance(t, Bind):
        return (_free_vars(t.binder, bound)
                | _free_vars(t.scope, bound | frozenset(t.context)))
    return frozenset()


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
    return _substitute(t, dict(bindings))


def _substitute(t: Term, bnd: dict) -> Term:
    if isinstance(t, Var):
        return bnd.get(t.name, t)
    if isinstance(t, App):
        head = _substitute(t.head, bnd)
        args = tuple(_substitute(a, bnd) for a in t.args)
        if head is t.head and all(a is b for a, b in zip(args, t.args)):
            return t
        return App(head, args)
    if isinstance(t, Bind):
        binder = _substitute(t.binder, bnd)
        inner = {k: v for k, v in bnd.items() if k not in t.context}
        ctx, scope = t.context, t.scope
        if inner:
            scope_fvs = free_vars(scope)
            inner = {k: v for k, v in inner.items() if k in scope_fvs}
        if inner:
            # Rename bound names that would capture a replacement's free variable.
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
                scope = _substitute(scope, renaming)
            scope = _substitute(scope, inner)
        if binder is t.binder and ctx == t.context and scope is t.scope:
            return t
        return Bind(binder, ctx, scope)
    return t


def term_key(t: Term):
    """A total-order key on terms: variant tag, then payload, then children."""
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
    if isinstance(t, App):
        return (5, (term_key(t.head), len(t.args), tuple(term_key(a) for a in t.args)))
    if isinstance(t, Bind):
        return (6, (term_key(t.binder), t.context, term_key(t.scope)))
    if isinstance(t, Foreign):
        return (7, (t.format, t.content))
    raise TypeError(f"not a term: {t!r}")
