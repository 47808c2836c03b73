"""The universal machine: rule base and exhaustive simplification.

A rule is a native partial function keyed by (constant, arity).  Rules may
decline (return ``None``) or raise; both are absorbed, and the redex is left
in place and marked simplified, so a failing rule can never cause a livelock.
Resource errors (``RecursionError``, ``MemoryError``) are not declines: they
propagate to the caller.  Simplification is innermost-leftmost (head, then
arguments, then the head rule), consumes one unit of fuel per successful
application, and marks every fully simplified subterm so later calls skip it
without re-traversal.  It is a loop over an explicit stack and never touches
the interpreter's recursion limit; rules and the helpers they call (structural
equality, substitution) still recurse along the term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .sts import BINDER, Arity, Binder, Fixed, Flexible
from .terms import App, Bind, Const, GlobalName, Term, mark


class DuplicateRuleError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    """A native implementation of a constant at one arity.

    The callable receives, per arity: Fixed n — n terms; Flexible n — n terms
    plus one tuple of terms; Binder — the context tuple and the scope term.
    It returns a term, or ``None`` to decline.
    """

    head: GlobalName
    arity: Arity
    fn: Callable

    def make_redex(self, *parts) -> Term:
        """The application shape this rule matches (used by tests)."""
        if isinstance(self.arity, Binder):
            ctx, scope = parts
            return Bind(Const(self.head), ctx, scope)
        if parts:
            return App(Const(self.head), tuple(parts))
        return Const(self.head)


class RuleBase:
    """Rules indexed by head constant; at most one rule per (head, arity)."""

    def __init__(self, rules=()):
        self._rules: dict[GlobalName, dict[Arity, Rule]] = {}
        self._count = 0
        for r in rules:
            self.add(r)

    def add(self, rule: Rule):
        slot = self._rules.setdefault(rule.head, {})
        existing = slot.get(rule.arity)
        if existing is not None:
            if existing is rule or existing.fn is rule.fn:
                return self  # the same realization arriving twice is a no-op
            raise DuplicateRuleError(
                f"a rule for {rule.head} at arity {rule.arity} is already "
                f"registered")
        slot[rule.arity] = rule
        self._count += 1
        return self

    def get(self, head: GlobalName, arity: Arity) -> Rule | None:
        return self._rules.get(head, {}).get(arity)

    def for_head(self, head: GlobalName) -> dict[Arity, Rule]:
        return self._rules.get(head, {})

    def rules(self):
        for slot in self._rules.values():
            yield from slot.values()

    def __len__(self):
        return self._count


DEFAULT_FUEL = 10000
MAX_FUEL = 10 ** 7


@dataclass(frozen=True)
class SimplifyBudget:
    """Fuel bounds the number of successful rule applications; it must lie
    in ``1..MAX_FUEL``."""

    fuel: int = DEFAULT_FUEL

    def __post_init__(self):
        if not 0 < self.fuel <= MAX_FUEL:
            raise ValueError(f"fuel out of range: {self.fuel}")


@dataclass
class SimplifyResult:
    term: Term
    exhausted: bool
    steps: int


def _select_rule(base: RuleBase, t: Term):
    """The applicable head rule and its call arguments, if any.

    Fixed n is preferred over Flexible i <= n; among Flexible, the largest i.
    """
    if isinstance(t, Const):
        r = base.get(t.head, Fixed(0))
        if r is not None:
            return r, ()
        return None
    if isinstance(t, App) and isinstance(t.head, Const):
        slot = base.for_head(t.head.head)
        if not slot:
            return None
        n = len(t.args)
        r = slot.get(Fixed(n))
        if r is not None:
            return r, t.args
        best = None
        for arity, rule in slot.items():
            if isinstance(arity, Flexible) and arity.n <= n:
                if best is None or arity.n > best[0]:
                    best = (arity.n, rule)
        if best is not None:
            i, rule = best
            return rule, t.args[:i] + (t.args[i:],)
        return None
    if isinstance(t, Bind) and isinstance(t.binder, Const):
        r = base.get(t.binder.head, BINDER)
        if r is not None:
            return r, (t.context, t.scope)
        return None
    return None


def rewrite_step(base: RuleBase, t: Term) -> Term | None:
    """One head-rule application at the root; ``None`` when no rule applies,
    the rule declines or fails, or the result equals the input.  A rule's
    ``RecursionError`` or ``MemoryError`` propagates."""
    hit = _select_rule(base, t)
    if hit is None:
        return None
    rule, args = hit
    try:
        result = rule.fn(*args)
    except (RecursionError, MemoryError):
        raise
    except Exception:
        return None
    if result is None or result == t:
        return None
    return result


def simplify(base: RuleBase, t: Term,
             budget: SimplifyBudget = SimplifyBudget()) -> SimplifyResult:
    """Exhaustively rewrite ``t``; see the module docstring for the strategy."""
    fuel = budget.fuel
    steps = 0
    exhausted = False
    # One frame per App or Bind under way: the node, its children (head then
    # arguments, or binder then scope) and the children simplified so far.
    # A rewrite takes the place of its redex, so the stack is as deep as the
    # term, not as long as the rewrite chain.
    stack: list[tuple[Term, tuple, list]] = []
    due = False  # t's children are simplified and its head rule is due
    while True:
        if t.simplified or exhausted:
            pass
        elif not due and isinstance(t, App):
            stack.append((t, (t.head, *t.args), []))
            t = t.head
            continue
        elif not due and isinstance(t, Bind):
            stack.append((t, (t.binder, t.scope), []))
            t = t.binder
            continue
        elif due or isinstance(t, Const):
            result = rewrite_step(base, t)
            if result is None:
                t = mark(t)
            elif fuel == 0:
                # A rule would fire but the budget is spent: report
                # exhaustion and leave the partial result unmarked.
                exhausted = True
            else:
                fuel -= 1
                steps += 1
                t, due = result, False
                continue
        else:
            t = mark(t)
        # t is done: hand it to its parent.
        if not stack:
            return SimplifyResult(t, exhausted, steps)
        node, kids, done = stack[-1]
        done.append(t)
        if len(done) < len(kids):
            t, due = kids[len(done)], False
            continue
        stack.pop()
        if any(a is not b for a, b in zip(done, kids)):
            node = App(done[0], tuple(done[1:])) if isinstance(node, App) \
                else Bind(done[0], node.context, done[1])
        t, due = node, True
