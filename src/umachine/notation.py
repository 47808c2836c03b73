"""Notation-driven parsing and rendering of object-level expressions.

A notation is a token sequence of delimiters, argument slots, one optional
sequence-argument slot, and (for binders) a bound-variable-list slot, plus a
precedence.  The same notations drive both the operator-precedence parser and
the renderer, so ``parse_term(render_term(t)) == t`` for terms over in-scope
constants.

A notation's shape (binder, closed, prefix or infix; its slots; the trigger
delimiters the parser dispatches on; its operand precedence) is computed
once, when the ``Notation`` is built; a notation without a trigger is
rejected there, as are a negative precedence and the trigger ``(`` or
``,``, which a group or call and its arguments use.  The operand precedence
is the one at which the parser reads the operands: -1 in a closed notation,
whose operands end at a separator or delimiter; the declared precedence in
a prefix or infix one; one less in a binder, which associates right.  Every
closed, prefix and infix notation is parsed by one method from its trigger
on; binders have their own.

A parse scope records each trigger once, in the table of the parse
position that reads it (Pratt's nud/led split): ``nud`` where a term
starts, for closed, prefix and binder notations, and ``led`` after an
operand, for infix ones.  The parser dispatches on the tables that are
checked for ambiguity; the binder separators, the delimiters and the lexer
are derived from them when first read.

The tokenizer is one regex scan.  Its alternatives are the scope's
delimiters longest first, a number, an identifier, a string literal and any
other character, so the longest token wins, and a delimiter wins over an
identifier or number as long.  An identifier or one character that spells a
delimiter is read as that delimiter, so the regex holds only the others
(such as ``=>`` or ``1.``), and scopes alike in those share one compiled
regex.  Tokens are ``(kind, text, pos, value)`` tuples; two ``eof`` tokens
end the list, so the parser looks ahead by plain indexing.

Rendering writes each text once, in order, into one list, as ``encode_xml``
writes XML, and lays an operand out when it comes off its stack.  A child is
parenthesized when its precedence is at most the operand precedence, when it
is a binder in a separator-delimited slot (binders extend maximally to the
right), and when it is a numeral under a prefix notation (``-(3)`` is not the
literal ``-3``).  Declared precedences are at least 0, so precedence
parenthesizes nothing in a closed notation or a call's arguments, both read
at -1.

Grammar facts baked in here:
  * higher precedence binds tighter; equal-precedence infixes associate left;
  * binder notations associate right and extend maximally to the right;
  * parentheses group; unknown identifiers parse as variables; digit runs
    parse as integer literals (with ``.``/exponent: float literals);
  * delimiters match greedily longest-first; ``...`` and ``…`` are synonyms;
  * constants without a notation render as ``module?name`` with call-style
    arguments, which the parser accepts back; so does the head of any call
    on a constant, since the parser reads a call only after a name.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from itertools import chain

from .terms import (MAX_TERM_DEPTH, App, Bind, Const, FloatLit, Foreign,
                    GlobalName, IntLit, StrLit, Term, TermTooDeepError, Var,
                    run)


class NotationError(ValueError):
    """A malformed notation declaration."""


class SyntaxErrorAt(ValueError):
    """A parse error carrying the offending position (0-based offset)."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class AmbiguityError(ValueError):
    """Two notations in one scope are triggered by the same token at the
    same parse position (where a term starts, or after an operand)."""


@dataclass(frozen=True)
class Delim:
    text: str


@dataclass(frozen=True)
class Arg:
    index: int


@dataclass(frozen=True)
class SeqArg:
    index: int
    separator: str


@dataclass(frozen=True)
class VarList:
    separator: str = ","


@dataclass(frozen=True)
class Notation:
    tokens: tuple
    precedence: int = 0
    # The shape, computed once from the tokens.  ``triggers`` are the
    # delimiter texts on which the parser dispatches to the notation;
    # ``delimiters`` are all the texts the tokenizer must know.
    is_binder: bool = field(init=False, compare=False, repr=False)
    is_closed: bool = field(init=False, compare=False, repr=False)
    is_prefix: bool = field(init=False, compare=False, repr=False)
    is_infix: bool = field(init=False, compare=False, repr=False)
    slot_count: int = field(init=False, compare=False, repr=False)
    seq_slot: SeqArg | None = field(init=False, compare=False, repr=False)
    varlist: VarList | None = field(init=False, compare=False, repr=False)
    operand_precedence: int = field(init=False, compare=False, repr=False)
    triggers: tuple = field(init=False, compare=False, repr=False)
    delimiters: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tokens = tuple(self.tokens)
        if not tokens:
            raise NotationError("notation needs at least one token")
        if self.precedence < 0:
            raise NotationError("precedence must not be negative")
        seqs = [t for t in tokens if isinstance(t, SeqArg)]
        if len(seqs) > 1:
            raise NotationError("at most one sequence-argument slot is allowed")
        varlists = [t for t in tokens if isinstance(t, VarList)]
        if len(varlists) > 1:
            raise NotationError("at most one bound-variable slot is allowed")
        indices = [t.index for t in tokens if isinstance(t, (Arg, SeqArg))]
        slot_count = len(indices)
        if varlists:
            if seqs or len(indices) != 1:
                raise NotationError("a binder notation takes a variable list "
                                    "and exactly one scope slot")
            indices = [1] + indices  # the variable list occupies slot 1
        if len(set(indices)) != len(indices):
            raise NotationError("duplicate argument index")
        if sorted(indices) != list(range(1, len(indices) + 1)):
            raise NotationError("argument indices must be contiguous from 1")
        first = tokens[0]
        is_closed = isinstance(first, Delim) and isinstance(tokens[-1], Delim)
        if varlists:
            after = next(t for t in tokens if isinstance(t, (Delim, Arg)))
            if not isinstance(after, Delim):
                raise NotationError("binder notation needs a delimiter after "
                                    "the variable list")
            triggers = (after.text,)
        elif isinstance(first, Delim):
            triggers = (first.text,)
        else:
            triggers = (first.separator,) if isinstance(first, SeqArg) else ()
            if len(tokens) > 1 and isinstance(tokens[1], Delim):
                triggers += (tokens[1].text,)
            if not triggers:
                raise NotationError("infix notation needs a separator or "
                                    "delimiter")
        if "(" in triggers or "," in triggers:
            raise NotationError("a notation may not be triggered by '(', "
                                "which opens a group or a call, or ',', "
                                "which separates arguments")
        shape = dict(
            tokens=tokens, is_binder=bool(varlists), is_closed=is_closed,
            is_prefix=isinstance(first, Delim) and not is_closed
            and not varlists,
            is_infix=isinstance(first, (Arg, SeqArg)), slot_count=slot_count,
            seq_slot=seqs[0] if seqs else None,
            varlist=varlists[0] if varlists else None,
            operand_precedence=(-1 if is_closed else self.precedence - 1
                                if varlists else self.precedence),
            triggers=triggers,
            delimiters=frozenset(
                t.text if isinstance(t, Delim) else t.separator
                for t in tokens if not isinstance(t, Arg)))
        for name, value in shape.items():
            object.__setattr__(self, name, value)


_SEQ_TOKEN = re.compile(r"^(\d+)(.+?)(\.\.\.|…)$")
_ARG_TOKEN = re.compile(r"^\d+$")


def parse_notation(src: str) -> Notation:
    """Parse a whitespace-separated notation declaration.

    A number denotes an argument slot; a number glued to a delimiter and
    ``...``/``…`` denotes a sequence slot with that separator (``1+...``);
    ``V`` denotes the bound-variable list of a binder notation; a trailing
    ``prec <n>`` sets the precedence; everything else is a delimiter.
    """
    words = src.split()
    precedence = 0
    if len(words) >= 2 and words[-2] == "prec":
        try:
            precedence = int(words[-1])
        except ValueError:
            raise NotationError(f"bad precedence: {words[-1]!r}")
        words = words[:-2]
    tokens = []
    for w in words:
        m = _SEQ_TOKEN.match(w)
        if m:
            tokens.append(SeqArg(int(m.group(1)), m.group(2)))
        elif _ARG_TOKEN.match(w):
            tokens.append(Arg(int(w)))
        elif w == "V":
            tokens.append(VarList())
        else:
            tokens.append(Delim(w))
    return Notation(tuple(tokens), precedence)


# ---------------------------------------------------------------------------
# Parse scope


_STRUCTURAL = frozenset(("(", ")", ",", "[", "]", "?"))
_LITERALS = {"int": IntLit, "float": FloatLit, "str": StrLit}
_NEGATION = (Delim("-"), Arg(1))


class ParseScope:
    """In-scope constants with their notations, indexed for the parser.

    Built from parts in scope order: a part is a list of ``(GlobalName,
    Notation | None)`` pairs, or a scope, whose tables are merged whole
    instead of indexed again.  In every table the first occurrence of a key
    wins, so a bare name resolves to the first in-scope constant of that
    name, and a constant met again adds nothing: ``ParseScope(a, b)`` has
    the tables, in the same order, that ``a``'s pairs followed by ``b``'s
    give, and fails where they fail, with the same ``AmbiguityError`` when
    one trigger clashes.  ``notations``, if given, is a scope with the
    notations of the parts, in order (a list part then brings none), whose
    notation tables are shared rather than joined again.

    Five tables are built: ``by_local``, ``by_qualified``, ``notations``,
    and the trigger records ``nud`` and ``led``, one per parse position,
    each trigger to its ``(GlobalName, Notation)``.  ``binder_seps``,
    ``delimiters`` and ``lexer`` are derived when first read, so a scope
    kept only to be merged computes none of them.  Read-only once built,
    so that requests can share one (and share its tables).
    """

    def __init__(self, *parts, notations: ParseScope | None = None):
        if notations is not None:
            # Only names to join, when first asked for (see below).
            self._parts = parts
            self.notations = notations.notations
            self.nud = notations.nud
            self.led = notations.led
            self.binder_seps = notations.binder_seps
            self.delimiters = notations.delimiters
            self.lexer = notations.lexer
            return
        self.by_local: dict[str, GlobalName] = {}
        self.by_qualified: dict[str, GlobalName] = {}
        self.notations: dict[GlobalName, Notation] = {}
        self.nud: dict[str, tuple[GlobalName, Notation]] = {}
        self.led: dict[str, tuple[GlobalName, Notation]] = {}
        for part in parts:
            if isinstance(part, ParseScope):
                self._merge(part)
            else:
                self._add(part)

    def _add(self, pairs) -> None:
        for g, n in pairs:
            self.by_local.setdefault(g.name, g)
            self.by_qualified.setdefault(g.local, g)
            if n is None:
                continue
            self.notations.setdefault(g, n)
            table = self.led if n.is_infix else self.nud
            for trig in n.triggers:
                _claim(table, trig, (g, n))

    def _merge(self, other: ParseScope) -> None:
        """Add ``other``'s tables, as adding its pairs would; a scope is
        unambiguous in itself, and its triggers are in pair order."""
        _first_wins(self.by_local, other.by_local)
        _first_wins(self.by_qualified, other.by_qualified)
        if not other.notations:
            return
        _first_wins(self.notations, other.notations)
        for table, more in ((self.nud, other.nud), (self.led, other.led)):
            if table.keys().isdisjoint(more):
                table.update(more)
            else:
                for trig, entry in more.items():
                    _claim(table, trig, entry)

    @functools.cached_property
    def binder_seps(self) -> frozenset[str]:
        return frozenset(n.varlist.separator for _, n in self.nud.values()
                         if n.is_binder)

    @functools.cached_property
    def delimiters(self) -> frozenset[str]:
        """The structural delimiters and those of the dispatched notations."""
        out = set(_STRUCTURAL)
        for _, n in chain(self.nud.values(), self.led.values()):
            out |= n.delimiters
        out.discard("")
        return frozenset(out)

    @functools.cached_property
    def lexer(self):
        """``_lexer`` over the delimiters its regex holds, none structural."""
        return _lexer(frozenset(d for d in self.delimiters - _STRUCTURAL
                                if not _OUTSIDE_REGEX.fullmatch(d)))

    # The tables of names of a scope built with ``notations``, joined when
    # first read.  Most never are: on the seed-1 ``ingest`` stream, 4 of
    # the 9647 such scopes built for 24 000 requests were read for a name.

    @functools.cached_property
    def by_local(self) -> dict[str, GlobalName]:
        return self._names("by_local", "name")

    @functools.cached_property
    def by_qualified(self) -> dict[str, GlobalName]:
        return self._names("by_qualified", "local")

    def _names(self, table: str, key: str) -> dict[str, GlobalName]:
        """One table of names from ``_parts``: a scope's ``table``, a list's
        constants by their ``key`` attribute, the first of a key winning."""
        out: dict[str, GlobalName] = {}
        for part in self._parts:
            if isinstance(part, ParseScope):
                _first_wins(out, getattr(part, table))
            else:
                for g, _ in part:
                    out.setdefault(getattr(g, key), g)
        return out

    def resolve_qualified(self, module: str, name: str) -> GlobalName | None:
        return self.by_qualified.get(f"{module}?{name}")


def _first_wins(into: dict, more: dict) -> None:
    """Add the items of ``more`` whose keys ``into`` lacks, in order."""
    if not into or into.keys().isdisjoint(more):
        into.update(more)
    else:
        for k, v in more.items():
            into.setdefault(k, v)


def _claim(table: dict, trigger: str, entry: tuple) -> None:
    """Enter ``entry``, a ``(GlobalName, Notation)``, under ``trigger``; as
    the parser reads the trigger alone, another constant there is ambiguous."""
    (f, m), (g, n) = table.setdefault(trigger, entry), entry
    if f != g:
        p, q = m.precedence, n.precedence
        at = f"precedence {p}" if p == q else f"precedences {p} and {q}"
        raise AmbiguityError(f"notations of {f.local} and {g.local} both "
                             f"match {trigger!r} at {at}")


# ---------------------------------------------------------------------------
# Tokenizer


# A literal's body: runs of anything but a quote or a backslash, and escapes.
_STRING_BODY = re.compile(r'[^"\\]*(?:\\["\\][^"\\]*)*')
_ESCAPE = re.compile(r'\\(["\\])')

_IDENT = r"[^\W\d]\w*"
# Delimiters the lexer's regex leaves out: those an identifier or a single
# character spells, looked up in the scope's delimiters instead, and those
# starting with whitespace or a quote, which are never read.
_OUTSIDE_REGEX = re.compile(rf'{_IDENT}|\D|[\s"].*', re.DOTALL)
# What must follow an integer's digits for the number there to go on.
_MORE_DIGITS = r"\d|\.\d|[eE][+-]?\d"
# A delimiter that starts a number loses to the number when that is longer:
# each shape of such a delimiter, with what must follow the delimiter for
# the number to go on.  The first shape that fits applies.
_NUMBER_GOES_ON = tuple((re.compile(shape), more) for shape, more in (
    (r"\d+", _MORE_DIGITS),
    (r"\d+\.", r"\d"),
    (r"\d+\.\d+", r"\d|[eE][+-]?\d"),
    (r"\d+(?:\.\d+)?[eE]", r"[+-]?\d"),
    (r"\d+(?:\.\d+)?[eE][+-]?\d*", r"\d"),
))
# Group numbers of the lexer's alternatives.
_SYM, _INT, _FLOAT, _ID, _STR, _CHAR = range(1, 7)


def _guarded(d: str) -> str:
    """The lexer pattern of delimiter ``d``."""
    for shape, more in _NUMBER_GOES_ON:
        if shape.fullmatch(d):
            return f"{re.escape(d)}(?!{more})"
    return re.escape(d)


# Compiled lexers kept, by delimiter set (see ``_lexer``): a stated
# memory budget.
LEXER_CACHE_SIZE = 128


@functools.lru_cache(maxsize=LEXER_CACHE_SIZE)
def _lexer(delimiters: frozenset):
    """The ``finditer`` of the lexer regex over some delimiters.

    One token per match, with the whitespace after it.  Alternatives, in
    order: the delimiters, longest first, each failing where the number
    starting at the same place is longer; an integer; a float; an
    identifier; a string literal; any other character.  The float would
    match an integer too; otherwise the alternatives between the first and
    the last start with characters of different classes, and their order
    only puts the commonest first.  Memoized, because many scopes share
    these delimiters (most have none) and a compile is slow.
    """
    delims = "|".join(map(_guarded, sorted(delimiters,
                                           key=lambda d: (-len(d), d))))
    return re.compile(
        rf'(?:({delims or "(?!)"})|(\d+(?!{_MORE_DIGITS}))'
        rf"|(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|({_IDENT})"
        rf'|("{_STRING_BODY.pattern}")|(\S))\s*').finditer


def lex_string(src: str, i: int, error=SyntaxErrorAt) -> tuple[str, int]:
    """Read the quoted literal at ``src[i]``, with ``\\"`` and ``\\\\``
    escapes; returns (content, end_index).  ``error(message, position)``
    builds the exception for a malformed literal."""
    assert src[i] == '"'
    j = _STRING_BODY.match(src, i + 1).end()
    if j == len(src):
        raise error("unterminated string literal", i)
    if src[j] == "\\":
        raise error("bad escape in string literal", j)
    return _ESCAPE.sub(r"\1", src[i + 1:j]), j + 1


def tokenize(src: str, scope: ParseScope) -> list[tuple]:
    """``src`` as ``(kind, text, pos, value)`` tokens, where kind is one of
    int, float, str, ident and sym; two ``eof`` tokens end the list, so that
    the parser can look one token past the end."""
    toks = []
    append = toks.append
    delimiters = scope.delimiters
    for m in scope.lexer(src, len(src) - len(src.lstrip())):
        k = m.lastindex
        text = m[k]
        if k == _CHAR:
            if text == '"':
                lex_string(src, m.start())  # raises: the literal is malformed
            if text not in delimiters:
                raise SyntaxErrorAt(f"stray character {text!r}", m.start())
            append(("sym", text, m.start(), None))
        elif k == _INT:
            append(("int", text, m.start(), int(text)))
        elif k == _ID:
            # An identifier spelling a delimiter is that delimiter.
            append(("sym" if text in delimiters else "ident", text, m.start(),
                    None))
        elif k == _SYM:
            append(("sym", text, m.start(), None))
        elif k == _STR:
            append(("str", text, m.start(), _ESCAPE.sub(r"\1", text[1:-1])))
        else:
            if not math.isfinite(value := float(text)):
                # It would render as ``inf``, which reads back as a variable.
                raise SyntaxErrorAt("float literal out of range", m.start())
            append(("float", text, m.start(), value))
    eof = ("eof", "", len(src), None)
    toks += (eof, eof)
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Pratt parsing over ``tokenize``'s tokens; ``i`` is the next one.

    The grammar methods are generators for ``terms.run``: a method that
    reads a sub-expression yields ``parse_expr``'s generator for it and is
    sent back the term, so a sub-expression is one more generator waiting,
    not one more Python frame.  An input with more than ``MAX_TERM_DEPTH``
    sub-expressions nested is refused."""

    def __init__(self, toks: list[tuple], scope: ParseScope):
        self.toks = toks
        self.scope = scope
        self.i = 0
        self.depth = -1  # sub-expressions around the one being read

    # The token list ends in two eofs, and the parser stops at the first
    # (or, past it, fails at the second), so a look one ahead stays inside.

    def peek(self, k: int = 0) -> tuple:
        return self.toks[self.i + k]

    def next(self) -> tuple:
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, text: str) -> None:
        kind, got, pos, _ = self.toks[self.i]
        if got != text or kind == "eof":
            raise SyntaxErrorAt(f"expected {text!r}", pos)
        self.i += 1

    # -- grammar -----------------------------------------------------------

    def parse(self):
        t = yield from self.parse_expr(-1)
        kind, text, pos, _ = self.toks[self.i]
        if kind != "eof":
            raise SyntaxErrorAt(f"unexpected {text!r}", pos)
        return t

    def parse_expr(self, min_prec: int):
        self.depth += 1
        if self.depth > MAX_TERM_DEPTH:
            raise TermTooDeepError
        toks, led = self.toks, self.scope.led
        kind, _, _, value = toks[self.i]
        literal = _LITERALS.get(kind)
        if literal is not None:
            self.i += 1
            left = literal(value)
        else:
            left = yield from self.nud()
        while True:
            tok = toks[self.i]
            hit = led.get(tok[1]) if tok[0] == "sym" else None
            if hit is None or hit[1].precedence <= min_prec:
                self.depth -= 1
                return left
            left = yield from self.parse_notation(*hit, left)

    def lone_literal(self, prec: int) -> Term | None:
        """The literal here, if no operator after it binds tighter than
        ``prec``: what ``parse_expr(prec)`` would read, without a generator
        of its own."""
        toks = self.toks
        kind, _, _, value = toks[self.i]
        literal = _LITERALS.get(kind)
        if literal is None or self.depth == MAX_TERM_DEPTH:
            return None
        kind, text, _, _ = toks[self.i + 1]
        hit = self.scope.led.get(text) if kind == "sym" else None
        if hit is not None and hit[1].precedence > prec:
            return None
        self.i += 1
        return literal(value)

    def nud(self):
        """The term a token other than a literal starts."""
        kind, text, pos, _ = self.toks[self.i]
        if text == "(":
            self.i += 1
            inner = yield self.parse_expr(-1)
            self.expect(")")
            return inner
        if kind == "ident":
            delim = self.binder_delimiter()
            if delim is not None:
                return (yield from self.parse_binder(delim))
            return (yield from self.parse_name())
        hit = self.scope.nud.get(text) if kind == "sym" else None
        if hit is not None and not hit[1].is_binder:
            return (yield from self.parse_notation(*hit))
        raise SyntaxErrorAt(f"unexpected {text or 'end of input'!r}", pos)

    def binder_delimiter(self) -> int | None:
        """Lookahead from an identifier: the index of the binder delimiter
        after ``ident (sep ident)*``, or None."""
        toks, scope = self.toks, self.scope
        j = self.i + 1
        while (toks[j][0] == "sym" and toks[j][1] in scope.binder_seps
               and toks[j + 1][0] == "ident"):
            j += 2
        kind, text, _, _ = toks[j]
        hit = scope.nud.get(text) if kind == "sym" else None
        return j if hit is not None and hit[1].is_binder else None

    def parse_binder(self, j: int):
        """A binder notation whose delimiter is at ``toks[j]``."""
        names = [t[1] for t in self.toks[self.i:j:2]]
        _, text, pos, _ = self.toks[j]
        self.i = j + 1
        g, notation = self.scope.nud[text]
        if len(set(names)) != len(names):
            raise SyntaxErrorAt("bound variable names must be distinct", pos)
        scope_term = yield self.parse_expr(notation.operand_precedence)
        return Bind(Const(g), tuple(names), scope_term)

    def parse_name(self):
        _, name, pos, _ = self.next()
        if self.peek()[1] == "?" and self.peek(1)[0] == "ident":
            self.i += 1
            const = self.next()[1]
            g = self.scope.resolve_qualified(name, const)
            if g is None:
                raise SyntaxErrorAt(f"unknown constant {name}?{const}", pos)
            return (yield from self.maybe_call(Const(g)))
        if name == "bind" and self.peek()[1] == "(":
            return (yield from self.parse_bind_form())
        if name == "foreign" and self.peek()[1] == "(":
            return self.parse_foreign_form()
        g = self.scope.by_local.get(name)
        if g is not None:
            return (yield from self.maybe_call(Const(g)))
        return (yield from self.maybe_call(Var(name)))

    def maybe_call(self, head: Term):
        """Call-style application suffix: ``head(a, b, ...)``."""
        if self.peek()[1] != "(":
            return head
        self.i += 1
        _, text, pos, _ = self.peek()
        if text == ")":
            raise SyntaxErrorAt("an application needs at least one argument",
                                pos)
        args = yield from self.sequence(-1, ",")
        self.expect(")")
        return App(head, tuple(args))

    def parse_bind_form(self):
        """Fallback binder syntax: ``bind(binder, [x, y], scope)``."""
        self.expect("(")
        binder = yield self.parse_expr(-1)
        self.expect(",")
        self.expect("[")
        names = [self._expect_ident()]
        while self.peek()[1] == ",":
            self.i += 1
            names.append(self._expect_ident())
        self.expect("]")
        self.expect(",")
        scope_term = yield self.parse_expr(-1)
        self.expect(")")
        return Bind(binder, tuple(names), scope_term)

    def parse_foreign_form(self) -> Term:
        """Fallback escaped-payload syntax: ``foreign("format", "content")``."""
        self.expect("(")
        fmt = self._expect_str("foreign() needs a quoted format")
        self.expect(",")
        content = self._expect_str("foreign() needs quoted content")
        self.expect(")")
        return Foreign(fmt, content)

    def _expect_ident(self) -> str:
        kind, text, pos, _ = self.toks[self.i]
        if kind != "ident":
            raise SyntaxErrorAt("expected a variable name", pos)
        self.i += 1
        return text

    def _expect_str(self, message: str) -> str:
        kind, _, pos, value = self.toks[self.i]
        if kind != "str":
            raise SyntaxErrorAt(message, pos)
        self.i += 1
        return value

    def sequence(self, prec: int, separator: str):
        """One or more operands separated by ``separator``."""
        items = []
        while True:
            items.append(self.lone_literal(prec)
                         or (yield self.parse_expr(prec)))
            if self.toks[self.i][1] != separator:
                return items
            self.i += 1

    def parse_notation(self, g: GlobalName, notation: Notation,
                       left: Term | None = None):
        """A closed, prefix or infix notation, from its trigger token on;
        ``left`` is the operand before an infix notation's trigger."""
        _, trigger, trigger_pos, _ = self.next()
        tokens = notation.tokens
        prec = notation.operand_precedence
        # The operands of each slot, in slot order (indices run from 1).
        slots: list = [None] * notation.slot_count
        k = 1  # tokens[k:] follow the trigger
        if left is not None:
            first = tokens[0]
            slots[first.index - 1] = [left]
            if isinstance(first, SeqArg) and trigger == first.separator:
                slots[first.index - 1] += yield from self.sequence(
                    prec, first.separator)
            else:
                # The trigger is the delimiter after the first slot (for a
                # sequence: the separator never appeared, a sequence of one).
                k = 2
        for j in range(k, len(tokens)):
            tok = tokens[j]
            if isinstance(tok, Delim):
                self.expect(tok.text)
            elif isinstance(tok, Arg):
                before = self.i
                operand = (self.lone_literal(prec)
                           or (yield self.parse_expr(prec)))
                # A bare numeral directly after a prefix "-" is a negative literal.
                if (self.i == before + 1 and tokens == _NEGATION
                        and self.toks[before][0] in ("int", "float")):
                    return type(operand)(-operand.value)
                slots[tok.index - 1] = [operand]
            else:  # SeqArg; only a closed or prefix one may be empty
                closer = tokens[j + 1] if j + 1 < len(tokens) else None
                if (left is None and isinstance(closer, Delim)
                        and self.peek()[1] == closer.text):
                    slots[tok.index - 1] = []
                else:
                    slots[tok.index - 1] = yield from self.sequence(
                        prec, tok.separator)
        if not slots:
            return Const(g)  # a pure-delimiter atom
        args = tuple(chain.from_iterable(slots))
        if args:
            return App(Const(g), args)
        # An empty element sequence: ``{}`` denotes the empty set.
        empty = self.scope.by_local.get("emptyset")
        if empty is None:
            raise SyntaxErrorAt("an application needs at least one argument",
                                trigger_pos)
        return Const(empty)


def parse_term(src: str, scope: ParseScope) -> Term:
    """Parse ``src`` against the notations and constants in ``scope``."""
    return run(_Parser(tokenize(src, scope), scope).parse())


# ---------------------------------------------------------------------------
# Renderer


def escape_str(s: str) -> str:
    """The quoted literal that ``lex_string`` reads back as ``s``."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_term(t: Term, scope: ParseScope) -> str:
    """Render ``t`` so that it re-parses to an equal term in the same scope.

    Constants without a notation fall back to qualified prefix form.
    """
    out: list[str] = []
    word = False  # whether ``out`` ends in a letter, digit or underscore
    glue = False  # whether the next text starts a part of a notation
    trim = False  # whether the notation under way has written nothing yet
    # The pieces to write, the next last: a text that starts a part of a
    # notation (a str) or not (a 1-tuple), an operand ``(term, operand
    # precedence, separated, under_prefix, starts a part)``, or the end of
    # a notation (a bool: the ``trim`` of the one around it).
    todo: list = [(t, -1, False, False, False)]
    while todo:
        piece = todo.pop()
        cls = piece.__class__
        if cls is str:
            glue = glue or not trim
        elif cls is bool:  # a notation's text loses its trailing spaces
            if not trim and out[-1][-1].isspace():
                while not out[-1].strip():
                    out.pop()
                out[-1] = out[-1].rstrip()
                word = out[-1][-1].isalnum() or out[-1][-1] == "_"
            glue, trim = glue and trim, trim and piece
            continue
        elif len(piece) == 1:
            piece = piece[0]
        else:
            t, prec, separated, under_prefix, part = piece
            glue = glue or (part and not trim)
            cls = t.__class__
            leaf = _LEAF_TEXT.get(cls)
            if leaf is not None:
                piece = leaf(t)
                if under_prefix and (cls is IntLit or cls is FloatLit):
                    piece = f"({piece})"  # -(3) is not the literal -3
            else:
                n, args = _layout(t, scope)
                if ((n is not None and not n.is_closed
                     and n.precedence <= prec) or (separated and cls is Bind)):
                    out.append("(")
                    todo.append((")",))
                    glue = trim = word = False
                if n is not None:
                    todo.append(trim)
                    trim = True
                    _push_notation(n, args, t, todo)
                elif cls is Bind:
                    todo += ((")",), (t.scope, -1, False, False, False),
                             (f", [{', '.join(t.context)}], ",),
                             (t.binder, -1, False, False, False), ("bind(",))
                elif cls is Const:
                    todo.append((t.head.local,))
                else:
                    # Qualified even where a notation without slots would
                    # fit the bare head: ``∅(1)`` would not read back.
                    head = t.head
                    todo.append((")",))
                    _push_list(t.args, -1, ", ", todo)
                    todo.append(("(",))
                    if head.__class__ is Const:
                        todo.append((head.head.local,))
                    elif head.__class__ is Var:
                        todo.append((head.name,))
                    else:
                        todo += ((")",), (head, -1, False, False, False),
                                 ("(",))
                continue
        if trim:
            piece = piece.lstrip()
        if piece:
            # Parts that meet in word-like characters are spaced apart.
            if glue and word and (piece[0].isalnum() or piece[0] == "_"):
                out.append(" ")
            out.append(piece)
            word = piece[-1].isalnum() or piece[-1] == "_"
            glue = trim = False
    return "".join(out)


_LEAF_TEXT = {
    IntLit: lambda t: str(t.value),
    FloatLit: lambda t: repr(t.value),
    StrLit: lambda t: escape_str(t.value),
    Var: lambda t: t.name,
    Foreign: lambda t: (f"foreign({escape_str(t.format)}, "
                        f"{escape_str(t.content)})"),
}


def _layout(t: Term, scope: ParseScope) -> tuple[Notation | None, tuple]:
    """The notation ``t`` renders through, and the terms its slots take (a
    binding's: its scope); or None when ``t`` renders in a fallback form."""
    cls = t.__class__
    if cls is not Const and cls is not App and cls is not Bind:
        raise TypeError(f"not a term: {t!r}")
    head, args = ((t, ()) if cls is Const else (t.head, t.args) if cls is App
                  else (t.binder, (t.scope,)))
    n = scope.notations.get(head.head) if head.__class__ is Const else None
    # A bare separator sequence needs two elements, or the separator never
    # appears and the rendering loses the head.
    if n is not None and n.is_binder == (cls is Bind) and (
            len(args) == n.slot_count if n.seq_slot is None
            else len(args) >= n.slot_count + (len(n.tokens) == 1)):
        return n, args
    return None, args


def _push_notation(n: Notation, args: tuple, t: Term, todo: list) -> None:
    """Push ``n``'s tokens, the last first.  Slots take ``args`` in index
    order, the sequence slot the surplus; a binder's variable list takes
    the names that ``t`` binds."""
    surplus = len(args) - n.slot_count
    for tok in reversed(n.tokens):
        if tok.__class__ is Delim:
            # A word-like delimiter is spaced off its operands.
            text = tok.text
            word = text[0].isalnum() or text[0] == "_"
            todo.append(f" {text} " if args and word else text)
        elif tok.__class__ is VarList:
            todo.append(tok.separator.join(t.context))
        else:
            i = tok.index - (2 if n.is_binder else 1)
            if n.seq_slot is not None and n.seq_slot.index < tok.index:
                i += surplus
            if tok.__class__ is SeqArg:
                _push_list(args[i:i + surplus + 1], n.operand_precedence,
                           tok.separator, todo)
            else:
                todo.append((args[i], n.operand_precedence, n.is_closed,
                             n.is_prefix, True))


def _push_list(args: tuple, prec: int, separator: str, todo: list) -> None:
    """Push ``args``, operands read at ``prec`` in separator-delimited slots
    and one part, with ``separator`` between them."""
    for a in args[:0:-1]:
        todo += ((a, prec, True, False, False), (separator,))
    todo.append((args[0], prec, True, False, True))
