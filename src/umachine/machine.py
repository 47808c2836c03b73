"""The universal machine: rule base and exhaustive simplification.

A rule is a native partial function for one constant, at the arity of
the constant's type.  Rules may decline (return ``None``) or raise; both
are absorbed, and the redex is left in place, so a failing rule can never
cause a livelock.  Resource errors (``RecursionError``, ``MemoryError``)
are not declines: they propagate to the caller.  Simplification is
innermost-leftmost (head, then arguments, then the head rule) and consumes
one unit of fuel per successful application.  It is a loop over an
explicit stack and never touches the interpreter's recursion limit; nor do
the helpers rules call (structural equality, ``term_key``, substitution),
so a ``RecursionError`` comes only from a rule that recurses itself.

The rule base maps each head to its one rule.  The rule applies to a redex
of its arity's shape: ``0`` to the bare constant, ``n`` to an application
to exactly ``n`` arguments, ``n*`` to one to at least ``n`` (the rest
passed as one tuple), ``binder`` to a binding.  Adding a rule stores one
dict item, so a concurrent reader never sees one half built.

The loop dispatches on a node's class.  A frame holds an application or
binding under way; once a child is final, the children after it that are
final as they are (``t.simplified``: marked, or a literal, variable or
foreign object) join it in one inner loop, without a trip round the whole
loop each.  A head (or binder) that is a constant with no nullary rule is
final as it stands: it joins its frame as the frame is pushed, and the
frame keeps the head's rule, so such a node costs one lookup.  Any other
head goes round the loop; when it comes back changed, its rule is read as
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
    """A native implementation of a constant, at its type's arity.

    The rule applies to a redex of its arity's shape, as the module
    docstring says.  The callable receives, per arity: ``n`` — the n
    arguments; ``n*`` — the first n arguments plus one tuple of the rest;
    ``binder`` — the context tuple and the scope term.  It returns a term,
    or ``None`` to decline.  It declines on any argument outside its
    domain, and never raises for one: ``_apply`` absorbs an exception only
    as a safety net, not as a way to decline.
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
    """One rule per head, as the module docstring says."""

    def __init__(self, rules=()):
        self._rules: dict[GlobalName, Rule] = {}
        for r in rules:
            self.add(r)

    def add(self, rule: Rule):
        existing = self._rules.get(rule.head)
        if existing is not None:
            if existing == rule:
                return self  # the same realization arriving twice is a no-op
            raise DuplicateRuleError(
                f"a rule for {rule.head} at arity {existing.arity} is "
                "already registered")
        self._rules[rule.head] = rule
        return self

    def get(self, head: GlobalName) -> Rule | None:
        return self._rules.get(head)

    def rules(self):
        return iter(self._rules.values())

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


def _call_args(rule: Rule, t: Term, parts: tuple) -> tuple | None:
    """The arguments ``rule`` is called with on the redex ``t`` with the
    children ``parts``; ``None`` when ``t`` has not the rule's shape."""
    arity = rule.arity
    kind = arity.__class__
    cls = t.__class__
    if cls is Const:
        return () if kind is Fixed and not arity.n else None
    if cls is Bind:
        return (t.context, parts[1]) if kind is Binder else None
    if kind is Fixed:
        return parts[1:] if len(parts) == arity.n + 1 else None
    if kind is Flexible and len(parts) > arity.n:
        return (*parts[1:arity.n + 1], parts[arity.n + 1:])
    return None


def _select_rule(base: RuleBase, t: Term, parts: tuple | None = None):
    """The head rule of ``t`` and its call arguments, when ``t`` has the
    rule's shape; ``parts`` replaces the children of ``t`` (default: its
    own, none for a leaf)."""
    if parts is None:
        parts = _children(t)
    head = parts[0] if parts else t
    if head.__class__ is not Const:
        return None
    rule = base._rules.get(head.head)
    args = None if rule is None else _call_args(rule, t, parts)
    return None if args is None else (rule, args)


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
    rules = base._rules
    fuel = budget.fuel
    steps = 0
    # One frame per App or Bind under way: the node, its children (head then
    # arguments, or binder then scope), the children final so far, and the
    # rule of its head as pushed (None when it is not a constant or has no
    # rule).  A rewrite takes the place of its redex, so the stack is as
    # deep as the term, not as long as the rewrite chain.
    stack: list[tuple[Term, tuple, list, Rule | None]] = []
    while True:
        cls = t.__class__
        if t.simplified:
            pass
        elif cls is App or cls is Bind:
            kids = (t.head, *t.args) if cls is App else (t.binder, t.scope)
            head = kids[0]
            rule = rules.get(head.head) if head.__class__ is Const else None
            stack.append((t, kids, [], rule))
            t = head
            if head.__class__ is not Const or (
                    rule is not None and rule.arity.__class__ is Fixed
                    and not rule.arity.n):
                continue  # not a constant, or one with a nullary rule
            # Else the head is final as it stands: it joins its frame below.
        elif cls is Const:
            rule = rules.get(t.head)
            if rule is not None and rule.arity.__class__ is Fixed \
                    and not rule.arity.n:
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
            node, kids, done, rule = stack[-1]
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
                head = parts[0]
                if head is not kids[0]:  # the head went round and changed
                    rule = rules.get(head.head) \
                        if head.__class__ is Const else None
                args = None if rule is None else _call_args(rule, node, parts)
                result = None if args is None \
                    else _apply(rule, args, node, parts)
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
