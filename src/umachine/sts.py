"""The weakened arity type system over the OpenMath meta-theory.

Well-formed types are ``Object``, ``binder``, and
``mapsto(Object, ..., Object, A, Object)`` with ``A`` either ``Object`` or
``naryObject``.  Each well-formed type induces an arity: the shape of redexes
a rule for the constant may match.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (OM_BINDER, OM_FMP, OM_MAPSTO, OM_NARYOBJECT, OM_OBJECT,
                    Assignment, Constant, SourcePos, TheoryGraph)
from .terms import App, Bind, Const, Foreign, GlobalName, Term


class Arity:
    pass


@dataclass(frozen=True)
class Fixed(Arity):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("arity must be nonnegative")

    def __str__(self):
        return str(self.n)


@dataclass(frozen=True)
class Flexible(Arity):
    """``n`` fixed arguments followed by a sequence argument."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("arity must be nonnegative")

    def __str__(self):
        return f"{self.n}*"


@dataclass(frozen=True)
class Binder(Arity):
    def __str__(self):
        return "binder"


BINDER = Binder()


def argument_count(arity: Arity) -> int:
    """The arguments a rule of ``arity`` is called with: ``n``, ``n + 1``
    for ``n*`` (the sequence comes as one list), 2 for ``binder``."""
    return 2 if isinstance(arity, Binder) \
        else arity.n + isinstance(arity, Flexible)


class IllFormedTypeError(ValueError):
    pass


def _is(t: Term, g: GlobalName) -> bool:
    return isinstance(t, Const) and t.head == g


def well_formed_type(t: Term) -> bool:
    if _is(t, OM_OBJECT) or _is(t, OM_BINDER):
        return True
    if isinstance(t, App) and _is(t.head, OM_MAPSTO) and len(t.args) >= 2:
        *firsts, a, result = t.args
        return (all(_is(x, OM_OBJECT) for x in firsts)
                and (_is(a, OM_OBJECT) or _is(a, OM_NARYOBJECT))
                and _is(result, OM_OBJECT))
    return False


def arity_of(t: Term) -> Arity:
    if not well_formed_type(t):
        raise IllFormedTypeError(f"not a well-formed type: {t!r}")
    if _is(t, OM_OBJECT):
        return Fixed(0)
    if _is(t, OM_BINDER):
        return BINDER
    k = len(t.args) - 2
    a = t.args[-2]
    return Flexible(k) if _is(a, OM_NARYOBJECT) else Fixed(k + 1)


@dataclass
class Diagnostic:
    severity: str
    pos: SourcePos | None
    subject: GlobalName
    message: str

    def __str__(self):
        pos = str(self.pos) if self.pos else "-:0"
        return f"{self.severity} {pos} {self.subject.local} {self.message}"


def declared_arity(c: Constant | None) -> Arity | None:
    """The arity of a constant's type; None if no constant or no such type."""
    if c is None or c.type is None or not well_formed_type(c.type):
        return None
    return arity_of(c.type)


def lint_theory(graph: TheoryGraph, ref) -> list[Diagnostic]:
    """Arity-conformance diagnostics for a theory's own declarations.

    FMP is a marker, not an operator: FMP-headed applications are skipped
    (their argument is still checked).
    """
    theory = graph.theory(ref)
    out: list[Diagnostic] = []
    for c in theory.constants():
        g = theory.name.name(c.name)
        if c.type is not None and declared_arity(c) is None:
            out.append(Diagnostic("error", c.pos, g, "ill-formed type"))
        elif c.type is not None:
            _check_term(graph, c.type, g, c.pos, out)
        if c.definiens is not None:
            _check_term(graph, c.definiens, g, c.pos, out)
    return out


def lint_view(graph: TheoryGraph, ref) -> list[Diagnostic]:
    """A view's diagnostics: each domain constant it leaves unassigned
    (``TheoryGraph.check_view``), then each of its own snippets with a
    parameter list of other than its constant's ``argument_count``.  A
    constant without a well-formed type is a value, of arity 0."""
    view = graph.view(ref)
    out = [Diagnostic("error", view.pos, g,
                      f"missing assignment in view {ref.module}")
           for g in graph.check_view(ref)]
    own = {s.name: s for s in view.statements if isinstance(s, Assignment)}
    for g, c in graph.flatten(view.domain):
        a = own.get(c.name)
        if a is None or not isinstance(a.target, Bind) \
                or not isinstance(a.target.scope, Foreign):
            continue
        arity = declared_arity(c) or Fixed(0)
        n, k = argument_count(arity), len(a.target.context)
        if n != k:
            out.append(Diagnostic(
                "error", a.pos, g,
                f"parameter list in view {ref.module} has {k} parameter(s); "
                f"arity {arity} takes {n}"))
    return out


def _check_term(graph: TheoryGraph, t: Term, subject: GlobalName, pos,
                out: list):
    """Append the arity diagnostics of ``t`` to ``out``, in preorder."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            if isinstance(t.head, Const) and t.head.head != OM_FMP:
                a = declared_arity(graph.lookup(t.head.head))
                if isinstance(a, Fixed) and a.n != len(t.args):
                    out.append(Diagnostic(
                        "error", pos, subject,
                        f"{t.head.head.local} expects {a.n} argument(s), "
                        f"got {len(t.args)}"))
                elif isinstance(a, Flexible) and len(t.args) < a.n:
                    out.append(Diagnostic(
                        "error", pos, subject,
                        f"{t.head.head.local} expects at least {a.n} "
                        f"argument(s), got {len(t.args)}"))
                elif isinstance(a, Binder):
                    out.append(Diagnostic(
                        "error", pos, subject,
                        f"{t.head.head.local} is a binder, not an operator"))
            todo += t.args[::-1]
            todo.append(t.head)
        elif isinstance(t, Bind):
            if isinstance(t.binder, Const):
                a = declared_arity(graph.lookup(t.binder.head))
                if a is not None and not isinstance(a, Binder):
                    out.append(Diagnostic(
                        "error", pos, subject,
                        f"{t.binder.head.local} lacks binder arity"))
            todo.append(t.scope)
            todo.append(t.binder)
