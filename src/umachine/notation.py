"""Notation-driven parsing and rendering of object-level expressions.

A notation is a token sequence of delimiters, argument slots, one optional
sequence-argument slot, and (for binders) a bound-variable-list slot, plus a
precedence.  The same notations drive both the operator-precedence parser and
the renderer, so ``parse_term(render_term(t)) == t`` for terms over in-scope
constants.

A notation's shape (binder, closed, prefix or infix; its slots; the trigger
delimiters the parser dispatches on; its operand precedence) is computed
once, when the ``Notation`` is built; a notation without a trigger is
rejected there, as is a negative precedence.  The operand precedence is the
one at which the parser reads the operands: -1 in a closed notation, whose
operands end at a separator or delimiter; the declared precedence in a
prefix or infix one; one less in a binder, which associates right.  Every
closed, prefix and infix notation is parsed by one method from its trigger
on; binders have their own.  A ``ParseScope`` indexes its delimiters by
first character, so the tokenizer tries only those that can match.

Rendering is one walk over a notation's tokens.  A child is parenthesized
when its precedence is at most the operand precedence, when it is a binder
in a separator-delimited slot (binders extend maximally to the right), and
when it is a numeral under a prefix notation (``-(3)`` is not the literal
``-3``).  Declared precedences are at least 0, so precedence parenthesizes
nothing in a closed notation or a call's arguments, both read at -1.

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

import math
import re
from dataclasses import dataclass, field

from .terms import (App, Bind, Const, FloatLit, Foreign, GlobalName, IntLit,
                    StrLit, Term, Var)


class NotationError(ValueError):
    """A malformed notation declaration."""


class SyntaxErrorAt(ValueError):
    """A parse error carrying the offending position (0-based offset)."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class AmbiguityError(ValueError):
    """Two notations in one scope would match the same token identically."""


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


_STRUCTURAL = ("(", ")", ",", "[", "]", "?")
_NEGATION = (Delim("-"), Arg(1))


class ParseScope:
    """In-scope constants with their notations, indexed for the parser.

    Built from ``(GlobalName, Notation | None)`` pairs in scope order; in
    every table the first occurrence of a key wins, so a bare name resolves
    to the first in-scope constant of that name.  Read-only once built, so
    that requests can share one.
    """

    def __init__(self, entries):
        self.by_local: dict[str, GlobalName] = {}
        self.by_qualified: dict[str, GlobalName] = {}
        self.notations: dict[GlobalName, Notation] = {}
        self.nud: dict[str, tuple[GlobalName, Notation]] = {}
        self.led: dict[str, tuple[GlobalName, Notation]] = {}
        self.binder_delims: dict[str, tuple[GlobalName, Notation]] = {}
        self.binder_seps: set[str] = set()
        delims: set[str] = set(_STRUCTURAL)
        seen_triggers: dict[tuple[str, str, int], GlobalName] = {}
        for g, n in entries:
            self.by_local.setdefault(g.name, g)
            self.by_qualified.setdefault(g.local, g)
            if n is None:
                continue
            self.notations.setdefault(g, n)
            delims |= n.delimiters
            if n.is_binder:
                kind, table = "nud", self.binder_delims
                self.binder_seps.add(n.varlist.separator)
            elif n.is_infix:
                kind, table = "led", self.led
            else:
                kind, table = "nud", self.nud
            for trig in n.triggers:
                other = seen_triggers.setdefault((kind, trig, n.precedence), g)
                if other != g:
                    raise AmbiguityError(
                        f"notations of {other.local} and {g.local} both "
                        f"match {trig!r} at precedence {n.precedence}")
                table.setdefault(trig, (g, n))
        # First character -> the delimiters starting with it, longest first.
        self.delimiters: dict[str, list[str]] = {}
        for d in sorted(filter(None, delims), key=len, reverse=True):
            self.delimiters.setdefault(d[0], []).append(d)

    def resolve_qualified(self, module: str, name: str) -> GlobalName | None:
        return self.by_qualified.get(f"{module}?{name}")


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass
class _Tok:
    kind: str  # int | float | str | ident | sym | eof
    text: str
    pos: int
    value: object = None


_IDENT = re.compile(r"[^\W\d]\w*", re.UNICODE)
_NUMBER = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?")


# A literal's body: runs of anything but a quote or a backslash, and escapes.
_STRING_BODY = re.compile(r'[^"\\]*(?:\\["\\][^"\\]*)*')
_ESCAPE = re.compile(r'\\(["\\])')


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


def tokenize(src: str, scope: ParseScope) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c == '"':
            value, j = lex_string(src, i)
            toks.append(_Tok("str", src[i:j], i, value))
            i = j
            continue
        best_delim = ""
        for d in scope.delimiters.get(c, ()):
            if src.startswith(d, i):
                best_delim = d
                break
        m = _IDENT.match(src, i)
        ident = m.group(0) if m else ""
        m = _NUMBER.match(src, i)
        number = m.group(0) if m else ""
        longest = max(len(best_delim), len(ident), len(number))
        if longest == 0:
            raise SyntaxErrorAt(f"stray character {c!r}", i)
        if len(number) == longest and len(number) > max(len(best_delim), len(ident)):
            if number.isdigit():
                toks.append(_Tok("int", number, i, int(number)))
            elif math.isfinite(value := float(number)):
                toks.append(_Tok("float", number, i, value))
            else:  # it would render as ``inf``, which reads back as a variable
                raise SyntaxErrorAt("float literal out of range", i)
        elif len(best_delim) == longest:
            toks.append(_Tok("sym", best_delim, i))
        else:
            toks.append(_Tok("ident", ident, i))
        i += longest
    toks.append(_Tok("eof", "", n))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, toks: list[_Tok], scope: ParseScope):
        self.toks = toks
        self.scope = scope
        self.i = 0

    def peek(self, k: int = 0) -> _Tok:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise SyntaxErrorAt(f"expected {text!r}", t.pos)
        return self.next()

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Term:
        t = self.parse_expr(-1)
        tok = self.peek()
        if tok.kind != "eof":
            raise SyntaxErrorAt(f"unexpected {tok.text!r}", tok.pos)
        return t

    def parse_expr(self, min_prec: int) -> Term:
        left = self.nud()
        while True:
            tok = self.peek()
            hit = self.scope.led.get(tok.text) if tok.kind == "sym" else None
            if hit is None or hit[1].precedence <= min_prec:
                return left
            left = self.parse_notation(*hit, left)

    def nud(self) -> Term:
        tok = self.peek()
        if tok.kind in ("int", "float"):
            self.next()
            return IntLit(tok.value) if tok.kind == "int" else FloatLit(tok.value)
        if tok.kind == "str":
            self.next()
            return StrLit(tok.value)
        if tok.text == "(":
            self.next()
            inner = self.parse_expr(-1)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            delim = self.binder_delimiter()
            if delim is not None:
                return self.parse_binder(delim)
            return self.parse_name()
        if tok.kind == "sym" and tok.text in self.scope.nud:
            return self.parse_notation(*self.scope.nud[tok.text])
        raise SyntaxErrorAt(f"unexpected {tok.text or 'end of input'!r}", tok.pos)

    def binder_delimiter(self) -> int | None:
        """Lookahead from an identifier: the index of the binder delimiter
        after ``ident (sep ident)*``, or None."""
        if not self.scope.binder_delims:
            return None
        j = self.i + 1
        while (self.toks[j].text in self.scope.binder_seps
               and self.toks[j].kind == "sym"
               and self.toks[j + 1].kind == "ident"):
            j += 2
        tok = self.toks[j]
        if tok.kind == "sym" and tok.text in self.scope.binder_delims:
            return j
        return None

    def parse_binder(self, j: int) -> Term:
        """A binder notation whose delimiter is at ``toks[j]``."""
        names = [t.text for t in self.toks[self.i:j:2]]
        tok = self.toks[j]
        self.i = j + 1
        g, notation = self.scope.binder_delims[tok.text]
        if len(set(names)) != len(names):
            raise SyntaxErrorAt("bound variable names must be distinct", tok.pos)
        scope_term = self.parse_expr(notation.operand_precedence)
        return Bind(Const(g), tuple(names), scope_term)

    def parse_name(self) -> Term:
        tok = self.next()
        name = tok.text
        if self.peek().text == "?" and self.peek(1).kind == "ident":
            self.next()
            const = self.next().text
            g = self.scope.resolve_qualified(name, const)
            if g is None:
                raise SyntaxErrorAt(f"unknown constant {name}?{const}", tok.pos)
            return self.maybe_call(Const(g))
        if name == "bind" and self.peek().text == "(":
            return self.parse_bind_form(tok)
        if name == "foreign" and self.peek().text == "(":
            return self.parse_foreign_form(tok)
        g = self.scope.by_local.get(name)
        if g is not None:
            return self.maybe_call(Const(g))
        return self.maybe_call(Var(name))

    def maybe_call(self, head: Term) -> Term:
        """Call-style application suffix: ``head(a, b, ...)``."""
        if self.peek().text != "(":
            return head
        self.next()
        if self.peek().text == ")":
            tok = self.peek()
            raise SyntaxErrorAt("an application needs at least one argument",
                                tok.pos)
        args = self.sequence(-1, ",")
        self.expect(")")
        return App(head, tuple(args))

    def parse_bind_form(self, tok: _Tok) -> Term:
        """Fallback binder syntax: ``bind(binder, [x, y], scope)``."""
        self.expect("(")
        binder = self.parse_expr(-1)
        self.expect(",")
        self.expect("[")
        names = [self._expect_ident().text]
        while self.peek().text == ",":
            self.next()
            names.append(self._expect_ident().text)
        self.expect("]")
        self.expect(",")
        scope_term = self.parse_expr(-1)
        self.expect(")")
        return Bind(binder, tuple(names), scope_term)

    def parse_foreign_form(self, tok: _Tok) -> Term:
        """Fallback escaped-payload syntax: ``foreign("format", "content")``."""
        self.expect("(")
        fmt = self.peek()
        if fmt.kind != "str":
            raise SyntaxErrorAt("foreign() needs a quoted format", fmt.pos)
        self.next()
        self.expect(",")
        content = self.peek()
        if content.kind != "str":
            raise SyntaxErrorAt("foreign() needs quoted content", content.pos)
        self.next()
        self.expect(")")
        return Foreign(fmt.value, content.value)

    def _expect_ident(self) -> _Tok:
        t = self.peek()
        if t.kind != "ident":
            raise SyntaxErrorAt("expected a variable name", t.pos)
        return self.next()

    def sequence(self, prec: int, separator: str) -> list[Term]:
        """One or more operands separated by ``separator``."""
        items = [self.parse_expr(prec)]
        while self.peek().text == separator:
            self.next()
            items.append(self.parse_expr(prec))
        return items

    def parse_notation(self, g: GlobalName, notation: Notation,
                       left: Term | None = None) -> Term:
        """A closed, prefix or infix notation, from its trigger token on;
        ``left`` is the operand before an infix notation's trigger."""
        trigger = self.next()
        tokens = notation.tokens
        prec = notation.operand_precedence
        slots: dict[int, list[Term]] = {}
        k = 1  # tokens[k:] follow the trigger
        if left is not None:
            first = tokens[0]
            slots[first.index] = [left]
            if isinstance(first, SeqArg) and trigger.text == first.separator:
                slots[first.index] += self.sequence(prec, first.separator)
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
                operand = self.parse_expr(prec)
                # A bare numeral directly after a prefix "-" is a negative literal.
                if (self.i == before + 1 and tokens == _NEGATION
                        and self.toks[before].kind in ("int", "float")):
                    return type(operand)(-operand.value)
                slots[tok.index] = [operand]
            else:  # SeqArg; only a closed or prefix one may be empty
                closer = tokens[j + 1] if j + 1 < len(tokens) else None
                if (left is None and isinstance(closer, Delim)
                        and self.peek().text == closer.text):
                    slots[tok.index] = []
                else:
                    slots[tok.index] = self.sequence(prec, tok.separator)
        if notation.slot_count == 0:
            return Const(g)  # a pure-delimiter atom
        args = tuple(a for index in sorted(slots) for a in slots[index])
        if args:
            return App(Const(g), args)
        # An empty element sequence: ``{}`` denotes the empty set.
        empty = self.scope.by_local.get("emptyset")
        if empty is None:
            raise SyntaxErrorAt("an application needs at least one argument",
                                trigger.pos)
        return Const(empty)


def parse_term(src: str, scope: ParseScope) -> Term:
    """Parse ``src`` against the notations and constants in ``scope``."""
    return _Parser(tokenize(src, scope), scope).parse()


# ---------------------------------------------------------------------------
# Renderer


def escape_str(s: str) -> str:
    """The quoted literal that ``lex_string`` reads back as ``s``."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _wordlike(s: str) -> bool:
    return bool(s) and (s[0].isalnum() or s[0] == "_")


def _word_boundary_glue(parts: list[str]) -> str:
    out = []
    for p in parts:
        if not p:
            continue
        if out and (out[-1][-1].isalnum() or out[-1][-1] == "_") \
                and (p[0].isalnum() or p[0] == "_"):
            out.append(" ")
        out.append(p)
    return "".join(out).strip()


def render_term(t: Term, scope: ParseScope) -> str:
    """Render ``t`` so that it re-parses to an equal term in the same scope.

    Constants without a notation fall back to qualified prefix form.
    """
    return _render(t, scope)[0]


def _render(t: Term, scope: ParseScope) -> tuple[str, Notation | None]:
    """The text of ``t`` and the notation at its top (None for an atom or a
    fallback form)."""
    if isinstance(t, IntLit):
        return str(t.value), None
    if isinstance(t, FloatLit):
        return repr(t.value), None
    if isinstance(t, StrLit):
        return escape_str(t.value), None
    if isinstance(t, Var):
        return t.name, None
    if isinstance(t, Foreign):
        return f"foreign({escape_str(t.format)}, {escape_str(t.content)})", None
    if isinstance(t, Const):
        head, args = t, ()
    elif isinstance(t, App):
        head, args = t.head, t.args
    elif isinstance(t, Bind):
        head, args = t.binder, (t.scope,)
    else:
        raise TypeError(f"not a term: {t!r}")
    n = scope.notations.get(head.head) if isinstance(head, Const) else None
    # A bare separator sequence needs two elements, or the separator never
    # appears and the rendering loses the head.
    if n is not None and n.is_binder == isinstance(t, Bind) and (
            len(args) == n.slot_count if n.seq_slot is None
            else len(args) >= n.slot_count + (len(n.tokens) == 1)):
        return _render_notation(n, args, t, scope), n
    if isinstance(t, Bind):
        binder, body = _render(t.binder, scope)[0], _render(t.scope, scope)[0]
        return f"bind({binder}, [{', '.join(t.context)}], {body})", None
    if isinstance(head, Const):
        # Qualified even where a notation without slots would fit the bare
        # head: ``∅(1)`` would not read back.
        head_text = f"{head.head.module}?{head.head.name}"
        if isinstance(t, Const):
            return head_text, None
    elif isinstance(head, Var):
        head_text = head.name
    else:
        head_text = f"({_render(head, scope)[0]})"
    args_text = ", ".join(_operand(a, scope, -1, separated=True)
                          for a in args)
    return f"{head_text}({args_text})", None


def _render_notation(n: Notation, args: tuple, t: Term,
                     scope: ParseScope) -> str:
    """Walk ``n``'s tokens once.  Slots take ``args`` in index order, the
    sequence slot the surplus; a binder's variable list takes the names
    that ``t`` binds."""
    surplus = len(args) - n.slot_count
    parts = []
    for tok in n.tokens:
        if isinstance(tok, Delim):
            # A word-like delimiter is spaced off its operands.
            parts.append(f" {tok.text} " if args and _wordlike(tok.text)
                         else tok.text)
        elif isinstance(tok, VarList):
            parts.append(tok.separator.join(t.context))
        else:
            i = tok.index - (2 if n.is_binder else 1)
            if n.seq_slot is not None and n.seq_slot.index < tok.index:
                i += surplus
            if isinstance(tok, SeqArg):
                parts.append(tok.separator.join(
                    _operand(a, scope, n.operand_precedence, separated=True)
                    for a in args[i:i + surplus + 1]))
            else:
                parts.append(_operand(
                    args[i], scope, n.operand_precedence,
                    separated=n.is_closed, under_prefix=n.is_prefix))
    return _word_boundary_glue(parts)


def _operand(t: Term, scope: ParseScope, prec: int, separated: bool,
             under_prefix: bool = False) -> str:
    """``t`` as an operand read at ``prec``, in parentheses when its own
    precedence is at most ``prec``, when it is a binder in a
    separator-delimited slot, and when it is a numeral under a prefix
    notation."""
    text, top = _render(t, scope)
    if ((top is not None and not top.is_closed and top.precedence <= prec)
            or (separated and isinstance(t, Bind))
            or (under_prefix and isinstance(t, (IntLit, FloatLit)))):
        return f"({text})"
    return text
