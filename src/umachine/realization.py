"""Realizations: views into the Computation target backed by native functions.

The registry binds ``View?constant`` to an in-process function; its rule
takes its arity from the constant's type.  The escaped snippet stored in the
view is documentation and codegen payload, never executed.  A view assigns a
constant by its own statements first, then by its included views in include
order; the first hit wins, and the view providing it keys the registry.  A
realization is syntactic (``commutes``) when the bifoundation embedding
translates every assigned constant's type to the term-shaped Computation
types; only those induce rules (``rules_of``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

from .graph import (BUILTIN_BASE, CMP_ANY, CMP_CONTEXT, CMP_FUNCTION,
                    CMP_LAMBDA, CMP_LIST, CMP_TERM, COMPUTATION, OPENMATH,
                    OPENMATH_CD_BASE, Assignment, GraphError, TheoryGraph,
                    View, snippet_is_stub)
from .machine import Rule, RuleBase, SimplifyBudget, simplify
from .notation import render_term
from .sts import (Arity, Binder, Fixed, Flexible, argument_count,
                  declared_arity)
from .terms import (App, Bind, Const, Foreign, GlobalName, ModuleRef, Term,
                    app)


class RealizationError(GraphError):
    pass


class ArityMismatchError(RealizationError):
    pass


LOGIC1_TRUE = GlobalName(OPENMATH_CD_BASE, "logic1", "true")

SYNTACTIC = ModuleRef(BUILTIN_BASE, "Syntactic")
SEMANTIC = ModuleRef(BUILTIN_BASE, "Semantic")


@dataclass(frozen=True)
class Bifoundation:
    """A logic, a computational target, and the embedding between them."""

    logic: ModuleRef
    target: ModuleRef
    embed: ModuleRef

    def validate(self, graph: TheoryGraph):
        missing = graph.check_view(self.embed)
        if missing:
            raise RealizationError(
                f"bifoundation embedding {self.embed} is not total: "
                + ", ".join(str(m) for m in missing))


def install_bifoundations(graph: TheoryGraph) -> Bifoundation:
    """Add the Syntactic and Semantic embeddings and return the former."""
    term, any_ = Const(CMP_TERM), Const(CMP_ANY)
    ctx = Const(CMP_CONTEXT)

    graph.add(
        View(SYNTACTIC, domain=OPENMATH, codomain=COMPUTATION, statements=(
            Assignment("Object", term),
            Assignment("mapsto", Const(CMP_FUNCTION)),
            Assignment("naryObject", app(Const(CMP_LIST), term)),
            Assignment("binder", app(Const(CMP_FUNCTION), ctx, term, term)),
            Assignment("FMP", Bind(Const(CMP_LAMBDA), ("x",), Foreign(
                "native", "assert(x == OMS(logic1.true))"))))),
        View(SEMANTIC, domain=OPENMATH, codomain=COMPUTATION, statements=(
            Assignment("Object", any_),
            Assignment("mapsto", Const(CMP_FUNCTION)),
            Assignment("naryObject", app(Const(CMP_LIST), any_)),
            Assignment("binder", app(Const(CMP_FUNCTION), ctx, term, any_)),
            Assignment("FMP", Bind(Const(CMP_LAMBDA), ("x",), Foreign(
                "native", "assert(x == true)"))))))

    bf = Bifoundation(OPENMATH, COMPUTATION, SYNTACTIC)
    bf.validate(graph)
    return bf


def syntactic_shape(arity: Arity) -> Term:
    """The Computation type a syntactic realization maps an arity to."""
    term = Const(CMP_TERM)
    if isinstance(arity, Binder):
        return app(Const(CMP_FUNCTION), Const(CMP_CONTEXT), term, term)
    if isinstance(arity, Flexible):
        return app(Const(CMP_FUNCTION),
                   *([term] * arity.n), app(Const(CMP_LIST), term), term)
    return app(Const(CMP_FUNCTION), *([term] * arity.n), term) \
        if arity.n else term


# ---------------------------------------------------------------------------
# Native-function registry (populated at import/startup, frozen afterwards)


REGISTRY: dict[str, Callable] = {}


def register(view: str, constant: str, fn: Callable):
    """Bind a native function under ``view?constant``."""
    key = f"{view}?{constant}"
    existing = REGISTRY.get(key)
    if existing is not None and existing is not fn:
        raise RealizationError(f"{key} is already registered")
    REGISTRY[key] = fn
    return fn


def commutes(graph: TheoryGraph, view_ref: ModuleRef,
             embed: ModuleRef = SYNTACTIC) -> bool:
    """Whether the triangle with the bifoundation embedding commutes.

    Each assigned, well-typed constant's type, translated along ``embed``,
    must be the term-shaped Computation type of the constant's arity.
    """
    table = graph.assignments(view_ref)
    along = graph.morphism(embed)
    return all(along(c.type) == syntactic_shape(arity)
               for g, c in graph.flatten(graph.view(view_ref).domain)
               if g in table and (arity := declared_arity(c)) is not None)


@dataclass
class RulesReport:
    base: RuleBase
    unimplemented: list[GlobalName] = field(default_factory=list)


def _check_signature(g: GlobalName, fn: Callable, arity: Arity):
    """Refuse ``fn`` when it cannot take the ``argument_count`` arguments
    a rule of ``arity`` is called with."""
    n = argument_count(arity)
    try:
        inspect.signature(fn).bind(*range(n))
    except TypeError:
        raise ArityMismatchError(
            f"{g}: {getattr(fn, '__qualname__', fn)} cannot take the {n} "
            f"argument(s) of arity {arity}") from None


def rules_of(graph: TheoryGraph, view_ref: ModuleRef,
             registry: dict[str, Callable] | None = None,
             embed: ModuleRef = SYNTACTIC) -> RulesReport:
    """The rule base a syntactic realization induces.

    One rule per registered constant, at the arity of its type (``0`` when
    it has none, or one that is not well formed); a function that cannot
    take that arity's arguments is an ``ArityMismatchError``.  Assigned
    constants whose snippet is a stub, or of an arity other than ``0`` (a
    value) and without a registry binding, are reported as unimplemented.
    """
    if not commutes(graph, view_ref, embed):
        raise RealizationError(f"{view_ref} is not a syntactic realization")
    registry = REGISTRY if registry is None else registry
    table = graph.assignments(view_ref)
    report = RulesReport(RuleBase())
    for g, c in graph.flatten(graph.view(view_ref).domain):
        if g not in table:
            continue
        provider, assignment = table[g]
        arity = declared_arity(c) or Fixed(0)
        fn = registry.get(f"{provider.module}?{c.name}")
        if fn is None:
            if snippet_is_stub(assignment.target) or arity != Fixed(0):
                report.unimplemented.append(g)
            continue
        _check_signature(g, fn, arity)
        report.base.add(Rule(g, arity, fn))
    return report


# ---------------------------------------------------------------------------
# FMP test harness


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # not a pytest class

    origin: GlobalName
    formula: Term

    @property
    def expected(self) -> Term:
        return Const(LOGIC1_TRUE)


def collect_tests(graph: TheoryGraph) -> list[TestCase]:
    """Every constant whose definiens is ``FMP(F)`` yields a test asserting
    that ``F`` simplifies to logic1's truth constant."""
    from .graph import OM_FMP, Theory
    out = []
    for module in graph.modules.values():
        if not isinstance(module, Theory):
            continue
        for c in module.constants():
            d = c.definiens
            if (isinstance(d, App) and isinstance(d.head, Const)
                    and d.head.head == OM_FMP and len(d.args) == 1):
                out.append(TestCase(module.name.name(c.name), d.args[0]))
    return out


@dataclass
class TestOutcome:
    case: TestCase
    passed: bool
    residual: str | None = None

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.case.origin}"
        return f"FAIL {self.case.origin} residual: {self.residual}"


@dataclass
class TestReport:
    outcomes: list[TestOutcome] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.passed)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def lines(self) -> list[str]:
        return [o.line() for o in self.outcomes] \
            + [f"passed {self.passed}/{self.total}"]

    def __str__(self):
        return "\n".join(self.lines())


def run_tests(graph: TheoryGraph, base: RuleBase, tests,
              budget: SimplifyBudget = SimplifyBudget()) -> TestReport:
    report = TestReport()
    for case in tests:
        result = simplify(base, case.formula, budget)
        ok = (not result.exhausted) and result.term == case.expected
        residual = None
        if not ok:
            scope = graph.scope_for(case.origin.module_ref)
            residual = render_term(result.term, scope)
        report.outcomes.append(TestOutcome(case, ok, residual))
    return report
