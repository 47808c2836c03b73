"""The universal machine: rule base and exhaustive simplification.

A rule is a native partial function keyed by (constant, arity).  Rules may
decline (return ``None``) or raise; both are absorbed, and the redex is left
in place, so a failing rule can never cause a livelock.  Resource errors
(``RecursionError``, ``MemoryError``) are not declines: they propagate to
the caller.  Simplification is innermost-leftmost (head, then arguments,
then the head rule) and consumes one unit of fuel per successful
application.  It is a loop over an explicit stack and never touches the
interpreter's recursion limit; nor do the helpers rules call (structural
equality, ``term_key``, substitution), so a ``RecursionError`` comes only
from a rule that recurses itself.

The rule base keeps one entry per head: ``(fixed, flexible, binder)``,
its Fixed rules by ``n`` (a nullary rule is ``fixed[0]``), its Flexible
rules largest ``n`` first and its binder rule.  Selecting a redex's rule
reads the head's entry once; adding a rule stores a new entry, so a
concurrent reader never sees one half built.

The loop dispatches on a node's class.  A frame holds an application or
binding under way; once a child is final, the children after it that are
final as they are (``t.simplified``: marked, or a literal, variable or
foreign object) join it in one inner loop, without a trip round the whole
loop each.  A head (or binder) that is a constant with no nullary rule is
final as it stands: it joins its frame as the frame is pushed, and the
frame keeps the head's entry for the rule choice, so such a node costs one
lookup.  Any other head goes round the loop, and its entry is read when
the frame finishes.  Whether a rule's result equals its redex is tested
against the redex's head and arguments as they are, so no node is built
only to be compared.

Only an application or binding is marked simplified: ``mark`` builds it,
marked, from its final children once its head rule declines, so later calls
skip the whole subtree without re-traversal.  A leaf is never copied: a
literal, variable or foreign object is final by its class, and a constant is
final when the base has no nullary rule for it or that rule declines.  Such
a rule is asked again only when a later rewrite's result holds the constant,
so its calls stay bounded by the fuel.  So every node of a result that is
not exhausted is final, and every application or binding in it is marked.
An exhausted partial result keeps the marks of the subterms that were final
when the fuel ran out and leaves the rest as it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .sts import Arity, Binder, Fixed, Flexible
from .terms import App, Bind, Const, GlobalName, Term


class DuplicateRuleError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    """A native implementation of a constant at one arity.

    The callable receives, per arity: Fixed n — n terms; Flexible n — n terms
    plus one tuple of terms; Binder — the context tuple and the scope term.
    It returns a term, or ``None`` to decline.  It declines on any argument
    outside its domain, and never raises for one: ``_apply`` absorbs an
    exception only as a safety net, not as a way to decline.
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


# The entry of a head with no rules.  Never changed: ``add`` copies it.
_NO_RULES: tuple = ({}, (), None)


class RuleBase:
    """At most one rule per (head, arity), in one entry per head, as the
    module docstring says."""

    def __init__(self, rules=()):
        self._entries: dict[GlobalName, tuple] = {}
        self._rules: list[Rule] = []
        for r in rules:
            self.add(r)

    def add(self, rule: Rule):
        head, arity = rule.head, rule.arity
        existing = self.get(head, arity)
        if existing is not None:
            if existing is rule or existing.fn is rule.fn:
                return self  # the same realization arriving twice is a no-op
            raise DuplicateRuleError(
                f"a rule for {head} at arity {arity} is already registered")
        fixed, flexible, binder = self._entries.get(head, _NO_RULES)
        if isinstance(arity, Fixed):
            fixed = {**fixed, arity.n: rule}
        elif isinstance(arity, Flexible):
            flexible = tuple(sorted([*flexible, (arity.n, rule)],
                                    key=lambda entry: -entry[0]))
        else:
            binder = rule
        self._entries[head] = (fixed, flexible, binder)
        self._rules.append(rule)
        return self

    def get(self, head: GlobalName, arity: Arity) -> Rule | None:
        fixed, flexible, binder = self._entries.get(head, _NO_RULES)
        if isinstance(arity, Fixed):
            return fixed.get(arity.n)
        if isinstance(arity, Flexible):
            return dict(flexible).get(arity.n)
        return binder

    def rules(self):
        return iter(self._rules)

    def __len__(self):
        return len(self._rules)


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


def _children(t: Term) -> tuple:
    """Head then arguments, or binder then scope; none for a leaf."""
    cls = t.__class__
    if cls is App:
        return (t.head, *t.args)
    if cls is Bind:
        return (t.binder, t.scope)
    return ()


def _select_rule(base: RuleBase, t: Term, parts: tuple | None = None,
                 entry: tuple | None = None):
    """The applicable head rule of ``t`` and its call arguments, if any;
    ``parts`` replaces the children of ``t`` (default: its own), and
    ``entry`` is its head's entry, when the caller has read it.

    Fixed n is preferred over Flexible i <= n; among Flexible, the largest i.
    """
    cls = t.__class__
    if cls is Const:
        rule = base._entries.get(t.head, _NO_RULES)[0].get(0)
        return None if rule is None else (rule, ())
    if parts is None:
        parts = _children(t)
    if entry is None:
        if not parts or parts[0].__class__ is not Const:
            return None
        entry = base._entries.get(parts[0].head, _NO_RULES)
    fixed, flexible, binder = entry
    if cls is Bind:
        return None if binder is None else (binder, (t.context, parts[1]))
    args = parts[1:]
    n = len(args)
    rule = fixed.get(n)
    if rule is not None:
        return rule, args
    for i, rule in flexible:
        if i <= n:
            return rule, (*args[:i], args[i:])
    return None


def _apply(rule: Rule, args: tuple, t: Term, parts: tuple) -> Term | None:
    """Call ``rule`` on the redex ``t`` with children ``parts``; ``None``
    when it declines or fails, or its result equals the redex.  A rule's
    ``RecursionError`` or ``MemoryError`` propagates."""
    try:
        result = rule.fn(*args)
    except (RecursionError, MemoryError):
        raise
    except Exception:
        return None
    if result is None or result.__class__ is not t.__class__:
        return result
    # Whether the result equals ``t`` with the children ``parts``.
    if result.__class__ is App:
        same = (len(result.args) == len(parts) - 1
                and result.head == parts[0] and result.args == parts[1:])
    elif result.__class__ is Bind:
        same = (result.context == t.context and result.binder == parts[0]
                and result.scope == parts[1])
    else:
        same = result == t
    return None if same else result


def _build(t: Term, parts) -> Term:
    """``t`` with the children ``parts``: ``t`` itself when they are its
    own."""
    cls = t.__class__
    if cls is App:
        if parts[0] is t.head \
                and all(a is b for a, b in zip(parts[1:], t.args)):
            return t
        return App(parts[0], tuple(parts[1:]))
    if cls is Bind:
        if parts[0] is t.binder and parts[1] is t.scope:
            return t
        return Bind(parts[0], t.context, parts[1])
    return t


def mark(node: Term, parts: tuple) -> Term:
    """The application or binding ``node`` with the final children
    ``parts``, marked simplified: built when its head rule declines."""
    if node.__class__ is App:
        return App(parts[0], parts[1:], simplified=True)
    return Bind(parts[0], node.context, parts[1], simplified=True)


def _partial(t: Term, stack: list) -> Term:
    """The result when the fuel runs out at ``t``: every subterm that was
    final keeps its mark, the rest is left as it was."""
    while stack:
        node, kids, done, _ = stack.pop()
        t = _build(node, [*done, t, *kids[len(done) + 1:]])
    return t


def rewrite_step(base: RuleBase, t: Term) -> Term | None:
    """One head-rule application at the root; ``None`` when no rule applies,
    the rule declines or fails, or the result equals the input.  A rule's
    ``RecursionError`` or ``MemoryError`` propagates."""
    parts = _children(t)
    hit = _select_rule(base, t, parts)
    return None if hit is None else _apply(*hit, t, parts)


def simplify(base: RuleBase, t: Term,
             budget: SimplifyBudget = SimplifyBudget()) -> SimplifyResult:
    """Exhaustively rewrite ``t``; see the module docstring for the strategy
    and for when a subterm is marked."""
    entries = base._entries
    fuel = budget.fuel
    steps = 0
    # One frame per App or Bind under way: the node, its children (head then
    # arguments, or binder then scope), the children final so far, and its
    # head's entry if that was read as the frame was pushed (else None).  A
    # rewrite takes the place of its redex, so the stack is as deep as the
    # term, not as long as the rewrite chain.
    stack: list[tuple[Term, tuple, list, tuple | None]] = []
    while True:
        cls = t.__class__
        if t.simplified:
            pass
        elif cls is App or cls is Bind:
            kids = (t.head, *t.args) if cls is App else (t.binder, t.scope)
            entry = None
            if kids[0].__class__ is Const:
                entry = entries.get(kids[0].head, _NO_RULES)
                if 0 in entry[0]:
                    entry = None  # a nullary rule: round the loop
            stack.append((t, kids, [], entry))
            t = kids[0]
            if entry is None:
                continue
            # Else the head is final as it stands: it joins its frame below.
        elif cls is Const:
            rule = entries.get(t.head, _NO_RULES)[0].get(0)
            if rule is not None:
                result = _apply(rule, (), t, ())
                if result is not None:
                    if fuel == 0:
                        return SimplifyResult(_partial(t, stack), True, steps)
                    fuel -= 1
                    steps += 1
                    t = result
                    continue
        # t is final: hand it to its parent with the siblings after it that
        # are final as they are, and finish each parent whose children are
        # now all final.
        while True:
            if not stack:
                return SimplifyResult(t, False, steps)
            node, kids, done, entry = stack[-1]
            done.append(t)
            i = len(done)
            while i < len(kids):
                t = kids[i]
                if not t.simplified:
                    break
                done.append(t)
                i += 1
            else:
                stack.pop()
                parts = tuple(done)
                hit = _select_rule(base, node, parts, entry)
                result = None if hit is None else _apply(*hit, node, parts)
                if result is None:
                    t = mark(node, parts)
                    continue
                if fuel == 0:
                    # A rule would fire but the budget is spent: report
                    # exhaustion and leave the redex unmarked.
                    t = _build(node, parts)
                    return SimplifyResult(_partial(t, stack), True, steps)
                fuel -= 1
                steps += 1
                t = result
            break
