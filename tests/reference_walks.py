"""Reference implementations: the recursive term walks that the iterative
ones in ``umachine`` must agree with.

The oracle reads only what a caller of ``umachine`` sees: public names,
and of a parse scope only ``by_local``, ``by_qualified`` and
``notations``.  It builds its parser's tables from a scope's notations,
lexes with a character loop of its own, selects rules through
``RuleBase.get`` and an arity check of its own, and writes out the
constants of the codecs.  So a scope's layout, its lexer and rule
dispatch are known to ``src/`` alone, and a bug there does not agree with
itself here.

They recurse along the term, one Python frame per level, so they serve only
terms well inside the interpreter's recursion limit.  The parser, renderer,
OpenMath codecs, structural equality and ``term_key`` are here as they were
before the walks became loops; the tests compare the two on generated
corpora.

The lexer states the rule ``notation.tokenize`` implements with one regex:
at each character, the longest of a delimiter, an identifier and a number
wins; a number only when strictly longer than both, and a delimiter over an
identifier of the same length.

Two loops are here as they were before their frames were made cheaper: the
engine's ``simplify``, which took each child round the whole loop and built
the redex again to compare a rule's result with it, and substitution, a
generator per binding under ``run`` that computed the free variables of
every binding's scope.  Substitution states the naming rule: a binding's
scope goes under one mapping, in which each name renamed away from capture
maps to its fresh name.

``ref_parse_xml`` refuses a ``DOCTYPE`` as the parser meets it, through a
tree builder of its own, where ``omxml.parse_xml`` scans the prolog first.

The set rules' ``_canonical_set`` is here as it was before it computed
each element's ``term_key`` once: it sorts by the key and computes it
again to drop repeats.

The scope of a theory is built here as it was before scopes were merged
from kept tables: one walk of the include graph and the meta chain, then
its names and notations indexed from the constants met, in order.
"""

import functools
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from itertools import chain

from umachine.notation import (Arg, AmbiguityError, Delim, Notation,
                               SeqArg, SyntaxErrorAt, VarList, escape_str)
from umachine.graph import IncludeCycleError, Include, Theory
from umachine.omxml import XmlDecodeError, local_tag
from umachine.machine import SimplifyBudget, SimplifyResult
from umachine.stdlib.rules import EMPTYSET, SET
from umachine.sts import Binder, Fixed, Flexible
from umachine.terms import (App, Bind, Const, FloatLit, Foreign, GlobalName,
                            IntLit, StrLit, Term, Var, fresh_name, free_vars,
                            run, term_key)


# -- structural equality and term_key --------------------------------------------

def ref_eq(a: Term, b: Term) -> bool:
    """``==`` as the dataclasses generated it: the same variant, equal
    payload, and equal children in order."""
    if a is b:
        return True
    if a.__class__ is not b.__class__:
        return False
    if isinstance(a, App):
        return (len(a.args) == len(b.args) and ref_eq(a.head, b.head)
                and all(ref_eq(x, y) for x, y in zip(a.args, b.args)))
    if isinstance(a, Bind):
        return (ref_eq(a.binder, b.binder) and a.context == b.context
                and ref_eq(a.scope, b.scope))
    if isinstance(a, Const):
        return a.head == b.head
    if isinstance(a, Var):
        return (a.name,) == (b.name,)
    if isinstance(a, Foreign):
        return (a.format, a.content) == (b.format, b.content)
    return (a.value,) == (b.value,)


def ref_term_key(t: Term):
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
        return (5, (ref_term_key(t.head), len(t.args),
                    tuple(ref_term_key(a) for a in t.args)))
    if isinstance(t, Bind):
        return (6, (ref_term_key(t.binder), t.context, ref_term_key(t.scope)))
    if isinstance(t, Foreign):
        return (7, (t.format, t.content))
    raise TypeError(f"not a term: {t!r}")


# -- the recursive Pratt parser --------------------------------------------------

_LITERALS = {"int": IntLit, "float": FloatLit, "str": StrLit}
_NEGATION = (Delim("-"), Arg(1))


class _Parser:
    """Pratt parsing over ``ref_tokenize``'s tokens; ``i`` is the next one.
    It dispatches on the tables ``_ref_tables`` builds from the scope's
    notations."""

    def __init__(self, toks: list[tuple], scope):
        self.toks = toks
        self.scope = scope
        self.tables = _tables_of(scope)
        self.i = 0

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

    def parse(self) -> Term:
        t = self.parse_expr(-1)
        kind, text, pos, _ = self.toks[self.i]
        if kind != "eof":
            raise SyntaxErrorAt(f"unexpected {text!r}", pos)
        return t

    def parse_expr(self, min_prec: int) -> Term:
        toks, led = self.toks, self.tables["led"]
        kind, _, _, value = toks[self.i]
        literal = _LITERALS.get(kind)
        if literal is not None:
            self.i += 1
            left = literal(value)
        else:
            left = self.nud()
        while True:
            tok = toks[self.i]
            hit = led.get(tok[1]) if tok[0] == "sym" else None
            if hit is None or hit[1].precedence <= min_prec:
                return left
            left = self.parse_notation(*hit, left)

    def nud(self) -> Term:
        """The term a token other than a literal starts."""
        kind, text, pos, _ = self.toks[self.i]
        if text == "(":
            self.i += 1
            inner = self.parse_expr(-1)
            self.expect(")")
            return inner
        if kind == "ident":
            delim = self.binder_delimiter()
            if delim is not None:
                return self.parse_binder(delim)
            return self.parse_name()
        hit = self.tables["nud"].get(text) if kind == "sym" else None
        if hit is not None and not hit[1].is_binder:
            return self.parse_notation(*hit)
        raise SyntaxErrorAt(f"unexpected {text or 'end of input'!r}", pos)

    def binder_delimiter(self) -> int | None:
        """Lookahead from an identifier: the index of the binder delimiter
        after ``ident (sep ident)*``, or None."""
        toks, seps = self.toks, self.tables["binder_seps"]
        if not seps:
            return None
        j = self.i + 1
        while (toks[j][1] in seps and toks[j][0] == "sym"
               and toks[j + 1][0] == "ident"):
            j += 2
        kind, text, _, _ = toks[j]
        hit = self.tables["nud"].get(text) if kind == "sym" else None
        if hit is not None and hit[1].is_binder:
            return j
        return None

    def parse_binder(self, j: int) -> Term:
        """A binder notation whose delimiter is at ``toks[j]``."""
        names = [t[1] for t in self.toks[self.i:j:2]]
        _, text, pos, _ = self.toks[j]
        self.i = j + 1
        g, notation = self.tables["nud"][text]
        if len(set(names)) != len(names):
            raise SyntaxErrorAt("bound variable names must be distinct", pos)
        scope_term = self.parse_expr(notation.operand_precedence)
        return Bind(Const(g), tuple(names), scope_term)

    def parse_name(self) -> Term:
        _, name, pos, _ = self.next()
        if self.peek()[1] == "?" and self.peek(1)[0] == "ident":
            self.i += 1
            const = self.next()[1]
            g = self.scope.by_qualified.get(f"{name}?{const}")
            if g is None:
                raise SyntaxErrorAt(f"unknown constant {name}?{const}", pos)
            return self.maybe_call(Const(g))
        if name == "bind" and self.peek()[1] == "(":
            return self.parse_bind_form()
        if name == "foreign" and self.peek()[1] == "(":
            return self.parse_foreign_form()
        g = self.scope.by_local.get(name)
        if g is not None:
            return self.maybe_call(Const(g))
        return self.maybe_call(Var(name))

    def maybe_call(self, head: Term) -> Term:
        """Call-style application suffix: ``head(a, b, ...)``."""
        if self.peek()[1] != "(":
            return head
        self.i += 1
        _, text, pos, _ = self.peek()
        if text == ")":
            raise SyntaxErrorAt("an application needs at least one argument",
                                pos)
        args = self.sequence(-1, ",")
        self.expect(")")
        return App(head, tuple(args))

    def parse_bind_form(self) -> Term:
        """Fallback binder syntax: ``bind(binder, [x, y], scope)``."""
        self.expect("(")
        binder = self.parse_expr(-1)
        self.expect(",")
        self.expect("[")
        names = [self._expect_ident()]
        while self.peek()[1] == ",":
            self.i += 1
            names.append(self._expect_ident())
        self.expect("]")
        self.expect(",")
        scope_term = self.parse_expr(-1)
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

    def sequence(self, prec: int, separator: str) -> list[Term]:
        """One or more operands separated by ``separator``."""
        items = [self.parse_expr(prec)]
        while self.peek()[1] == separator:
            self.i += 1
            items.append(self.parse_expr(prec))
        return items

    def parse_notation(self, g: GlobalName, notation: Notation,
                       left: Term | None = None) -> Term:
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
                slots[first.index - 1] += self.sequence(prec, first.separator)
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
                        and self.toks[before][0] in ("int", "float")):
                    return type(operand)(-operand.value)
                slots[tok.index - 1] = [operand]
            else:  # SeqArg; only a closed or prefix one may be empty
                closer = tokens[j + 1] if j + 1 < len(tokens) else None
                if (left is None and isinstance(closer, Delim)
                        and self.peek()[1] == closer.text):
                    slots[tok.index - 1] = []
                else:
                    slots[tok.index - 1] = self.sequence(prec, tok.separator)
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


def ref_parse_term(src: str, scope) -> Term:
    """Parse ``src`` against the notations and constants in ``scope``, a
    ``ParseScope`` or a ``RefScope``."""
    return _Parser(ref_tokenize(src, scope), scope).parse()


# -- the character-loop lexer ------------------------------------------------------

_IDENT = re.compile(r"[^\W\d]\w*")
_NUMBER = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?")


def ref_lex_string(src: str, i: int) -> tuple[str, int]:
    """The quoted literal at ``src[i]``, with ``\\"`` and ``\\\\`` escapes:
    its content and the index after it, or ``SyntaxErrorAt``."""
    out, j = [], i + 1
    while j < len(src):
        c = src[j]
        if c == "\\":
            if j + 1 >= len(src) or src[j + 1] not in ('"', "\\"):
                raise SyntaxErrorAt("bad escape in string literal", j)
            out.append(src[j + 1])
            j += 2
        elif c == '"':
            return "".join(out), j + 1
        else:
            out.append(c)
            j += 1
    raise SyntaxErrorAt("unterminated string literal", i)


def ref_tokenize(src: str, scope) -> list[tuple]:
    """``src`` as ``(kind, text, pos, value)`` tokens over the delimiters
    of ``scope``'s notations, two ``eof`` tokens at the end.  At each
    character it tries the delimiters starting with it, longest first, an
    identifier and a number; the longest wins, a number only when strictly
    longer, a delimiter over an identifier as long."""
    by_first = {}
    for d in sorted(_tables_of(scope)["delimiters"], key=len, reverse=True):
        by_first.setdefault(d[0], []).append(d)
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c == '"':
            value, j = ref_lex_string(src, i)
            toks.append(("str", src[i:j], i, value))
            i = j
            continue
        best_delim = ""
        for d in by_first.get(c, ()):
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
        if len(number) == longest and len(number) > max(len(best_delim),
                                                        len(ident)):
            if number.isdigit():
                toks.append(("int", number, i, int(number)))
            elif math.isfinite(value := float(number)):
                toks.append(("float", number, i, value))
            else:
                raise SyntaxErrorAt("float literal out of range", i)
        elif len(best_delim) == longest:
            toks.append(("sym", best_delim, i, None))
        else:
            toks.append(("ident", ident, i, None))
        i += longest
    return toks + [("eof", "", n, None)] * 2


# -- the recursive renderer --------------------------------------------------------

def ref_render_term(t: Term, scope) -> str:
    """Render ``t`` so that it re-parses to an equal term in the same scope.

    Constants without a notation fall back to qualified prefix form.
    """
    return _render(t, scope)[0]


def _render(t: Term, scope) -> tuple[str, Notation | None]:
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
                     scope) -> str:
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


def _wordlike(s: str) -> bool:
    return bool(s) and (s[0].isalnum() or s[0] == "_")


def _word_boundary_glue(parts: list[str]) -> str:
    """``parts`` joined, with a space between two that meet in word-like
    characters, and stripped."""
    out = []
    for p in parts:
        if not p:
            continue
        if out and (out[-1][-1].isalnum() or out[-1][-1] == "_") \
                and (p[0].isalnum() or p[0] == "_"):
            out.append(" ")
        out.append(p)
    return "".join(out).strip()


def _operand(t: Term, scope, prec: int, separated: bool,
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


# -- the recursive OpenMath codecs -------------------------------------------------

def _float_to_dec(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "INF" if v > 0 else "-INF"
    return repr(v)


def _dec_to_float(s: str) -> float:
    s = s.strip()
    if s == "INF":
        return math.inf
    if s == "-INF":
        return -math.inf
    if s == "NaN":
        return math.nan
    try:
        return float(s)
    except ValueError as e:
        raise XmlDecodeError(f"bad OMF dec value: {s!r}") from e


def _symbol(base: str, cd: str, name: str) -> Const:
    try:
        return Const(GlobalName(base, cd, name))
    except ValueError as e:  # a cdbase ``urlsplit`` refuses
        raise XmlDecodeError(f"bad cdbase {base!r}: {e}") from None


def to_element(t: Term) -> ET.Element:
    """Encode ``t`` as an OpenMath element (without the OMOBJ wrapper)."""
    if isinstance(t, Const):
        el = ET.Element("OMS")
        el.set("cdbase", t.head.base)
        el.set("cd", t.head.module)
        el.set("name", t.head.name)
        return el
    if isinstance(t, Var):
        el = ET.Element("OMV")
        el.set("name", t.name)
        return el
    if isinstance(t, IntLit):
        el = ET.Element("OMI")
        el.text = str(t.value)
        return el
    if isinstance(t, FloatLit):
        el = ET.Element("OMF")
        el.set("dec", _float_to_dec(t.value))
        return el
    if isinstance(t, StrLit):
        el = ET.Element("OMSTR")
        el.text = t.value
        return el
    if isinstance(t, App):
        el = ET.Element("OMA")
        el.append(to_element(t.head))
        for a in t.args:
            el.append(to_element(a))
        return el
    if isinstance(t, Bind):
        el = ET.Element("OMBIND")
        el.append(to_element(t.binder))
        bvar = ET.SubElement(el, "OMBVAR")
        for x in t.context:
            v = ET.SubElement(bvar, "OMV")
            v.set("name", x)
        el.append(to_element(t.scope))
        return el
    if isinstance(t, Foreign):
        el = ET.Element("OMFOREIGN")
        if t.format:
            el.set("format", t.format)
        el.text = t.content
        return el
    raise TypeError(f"not a term: {t!r}")


def ref_encode_xml(t: Term) -> str:
    """Serialize ``t`` as OpenMath XML, wrapped in ``<OMOBJ>``."""
    root = ET.Element("OMOBJ")
    root.append(to_element(t))
    return ET.tostring(root, encoding="unicode")


def from_element(el: ET.Element, cdbase: str | None = None) -> Term:
    """Decode an OpenMath element into a term."""
    tag = local_tag(el.tag)
    base = el.get("cdbase", cdbase)
    if tag == "OMOBJ":
        children = list(el)
        if len(children) != 1:
            raise XmlDecodeError("OMOBJ must contain exactly one object")
        return from_element(children[0], base)
    if tag == "OMS":
        cd, name = el.get("cd"), el.get("name")
        if cd is None or name is None:
            raise XmlDecodeError("OMS needs cd and name attributes")
        if base is None:
            raise XmlDecodeError(f"OMS {cd}?{name} has no cdbase in scope")
        return _symbol(base, cd, name)
    if tag == "OMV":
        name = el.get("name")
        if not name:
            raise XmlDecodeError("OMV needs a name attribute")
        return Var(name)
    if tag == "OMI":
        text = (el.text or "").strip()
        if not re.fullmatch(r"-?[0-9]+", text):
            raise XmlDecodeError(f"malformed OMI digits: {text!r}")
        try:
            return IntLit(int(text))
        except ValueError as e:  # over sys.get_int_max_str_digits()
            raise XmlDecodeError(
                f"OMI too long: {len(text.lstrip('-'))} digits") from e
    if tag == "OMF":
        dec = el.get("dec")
        if dec is None:
            raise XmlDecodeError("OMF needs a dec attribute")
        return FloatLit(_dec_to_float(dec))
    if tag == "OMSTR":
        return StrLit(el.text or "")
    if tag == "OMA":
        children = [from_element(c, base) for c in el]
        if not children:
            raise XmlDecodeError("empty OMA")
        if len(children) == 1:
            raise XmlDecodeError("OMA needs a head and at least one argument")
        return App(children[0], tuple(children[1:]))
    if tag == "OMBIND":
        children = list(el)
        if len(children) != 3 or local_tag(children[1].tag) != "OMBVAR":
            raise XmlDecodeError("OMBIND needs binder, OMBVAR, and scope")
        binder = from_element(children[0], base)
        names = []
        for v in children[1]:
            if local_tag(v.tag) != "OMV" or not v.get("name"):
                raise XmlDecodeError("OMBVAR may only contain named OMV elements")
            names.append(v.get("name"))
        # Where the iterative decoder checks it; ``Bind`` raised a
        # ValueError after the scope was decoded.
        if len(set(names)) != len(names):
            raise XmlDecodeError("bound variable names must be pairwise distinct")
        scope = from_element(children[2], base)
        return Bind(binder, tuple(names), scope)
    if tag == "OMFOREIGN":
        return Foreign(el.get("format", ""), el.text or "")
    raise XmlDecodeError(f"unknown OpenMath element: {tag}")


class _NoDoctype(ET.TreeBuilder):
    """A tree builder that refuses a document type declaration when the
    parser meets one."""

    def doctype(self, name, pubid, system):
        raise XmlDecodeError("a DOCTYPE is not accepted")


def ref_parse_xml(text: str) -> ET.Element:
    """``omxml.parse_xml``: the element tree, or ``XmlDecodeError``."""
    try:
        return ET.fromstring(text, ET.XMLParser(target=_NoDoctype()))
    except ET.ParseError as e:
        raise XmlDecodeError(f"not well-formed XML: {e}") from e


def ref_decode_xml(text: str, default_base: str | None = None) -> Term:
    """Parse OpenMath XML (OMOBJ-rooted or a bare object element)."""
    try:
        el = ET.fromstring(text)
    except ET.ParseError as e:
        raise XmlDecodeError(f"not well-formed XML: {e}") from e
    return from_element(el, default_base)


# -- the engine loop and substitution before their frames were made cheaper -------

def _ref_children(t: Term) -> tuple:
    """Head then arguments, or binder then scope."""
    return (t.head, *t.args) if isinstance(t, App) else (t.binder, t.scope)


def _ref_build(t: Term, parts, simplified: bool = False) -> Term:
    """``t`` with the children ``parts``, carrying the marker if asked: ``t``
    itself when they are its own and no marker is asked for.  A leaf has
    no children and carries no marker: it is ``t`` itself."""
    if not isinstance(t, (App, Bind)) or not simplified and all(
            a is b for a, b in zip(parts, _ref_children(t))):
        return t
    if isinstance(t, App):
        return App(parts[0], parts[1:], simplified=simplified)
    return Bind(parts[0], t.context, parts[1], simplified=simplified)


def _ref_partial(t: Term, stack: list) -> Term:
    """The result when the fuel runs out at ``t``: each node under way is
    rebuilt around its children done so far, ``t`` and the rest as they
    were."""
    while stack:
        node, kids, done = stack.pop()
        t = _ref_build(node, (*done, t, *kids[len(done) + 1:]))
    return t


def _ref_select(base, t: Term, parts: tuple):
    """The rule of the redex ``t`` with children ``parts`` (none for a
    constant) and the arguments it is called with, or None when the head
    is no constant with a rule, or ``t`` is not of the rule's arity's
    shape: ``0`` the bare constant, ``n`` exactly n arguments, ``n*`` at
    least n (the rest as one tuple), ``binder`` a binding."""
    head = parts[0] if parts else t
    rule = base.get(head.head) if isinstance(head, Const) else None
    if rule is None:
        return None
    a = rule.arity
    if isinstance(t, Const):
        args = () if isinstance(a, Fixed) and a.n == 0 else None
    elif isinstance(t, Bind):
        args = (t.context, parts[1]) if isinstance(a, Binder) else None
    elif isinstance(a, Fixed) and len(parts) - 1 == a.n:
        args = parts[1:]
    elif isinstance(a, Flexible) and len(parts) - 1 >= a.n:
        args = (*parts[1:a.n + 1], parts[a.n + 1:])
    else:
        args = None
    return None if args is None else (rule, args)


def _ref_apply(rule, args: tuple, t: Term, parts: tuple):
    """Call ``rule`` on the redex ``t`` with children ``parts``; ``None``
    when it declines or fails, or its result equals the redex rebuilt."""
    try:
        result = rule.fn(*args)
    except (RecursionError, MemoryError):
        raise
    except Exception:
        return None
    if result is None or (result.__class__ is t.__class__
                          and result == _ref_build(t, parts)):
        return None
    return result


def ref_simplify(base, t: Term,
                 budget: SimplifyBudget = SimplifyBudget()) -> SimplifyResult:
    """``machine.simplify``: every child, final or not, goes round the loop.
    A literal, variable or foreign object is final as it is; a constant is
    final when its nullary rule is missing or declines; an application or
    binding whose head rule declines is built again, marked."""
    fuel = budget.fuel
    steps = 0
    stack: list[tuple[Term, tuple, list]] = []
    while True:
        if isinstance(t, (App, Bind)) and not t.simplified:
            kids = _ref_children(t)
            stack.append((t, kids, []))
            t = kids[0]
            continue
        if isinstance(t, Const):
            hit = _ref_select(base, t, ())
            result = None if hit is None else _ref_apply(*hit, t, ())
            if result is not None:
                if fuel == 0:
                    return SimplifyResult(_ref_partial(t, stack), True, steps)
                fuel -= 1
                steps += 1
                t = result
                continue
        while True:
            if not stack:
                return SimplifyResult(t, False, steps)
            node, kids, done = stack[-1]
            done.append(t)
            if len(done) < len(kids):
                t = kids[len(done)]
                break
            stack.pop()
            parts = tuple(done)
            hit = _ref_select(base, node, parts)
            result = None if hit is None else _ref_apply(*hit, node, parts)
            if result is None:
                t = _ref_build(node, parts, simplified=True)
            elif fuel == 0:
                t = _ref_build(node, parts)
                return SimplifyResult(_ref_partial(t, stack), True, steps)
            else:
                fuel -= 1
                steps += 1
                t = result
                break


def ref_substitute(t: Term, bindings) -> Term:
    """``terms.substitute``: capture-avoiding, sharing untouched subtrees."""
    if not bindings:
        return t
    return run(_substituted(t, dict(bindings)))


def _substituted(t: Term, bnd: dict):
    """A generator for ``run``: ``t`` under ``bnd``.  The scope of a binding
    goes under one other mapping, by a generator of its own: the names it
    binds are left out, and each that would capture a replacement's free
    variable is mapped to a fresh name, which avoids the scope's free
    variables, the binding's names and the replacements' free
    variables."""
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
                    inner = {**inner, **renaming}
                scope = yield _substituted(scope, inner)
            if binder is node.binder and ctx == node.context \
                    and scope is node.scope:
                t = node
            else:
                t = Bind(binder, ctx, scope)


# -- scopes: one walk, then names and notations indexed ----------------------------

@dataclass(eq=False)
class RefScope:
    """A scope as callers read it: each bare name and each ``module?name``
    to its constant, and each constant to its notation, the first
    occurrence winning."""

    by_local: dict
    by_qualified: dict
    notations: dict


def ref_scope_for(graph, roots) -> RefScope:
    """``graph.scope_for(roots)``, or for a list the scopes of its roots
    composed; an ``AmbiguityError`` where two of its notations clash."""
    if not isinstance(roots, (list, tuple)):
        roots = [roots]
    out: list = []
    walking: dict = {}
    for root in roots:
        t = root if isinstance(root, Theory) else graph.theory(root)
        if t.name not in walking:
            _ref_walk(graph, t, out, walking, [])
        chain = {t.name}
        meta = t.meta
        while meta is not None and meta not in chain:
            chain.add(meta)
            m = graph.theory(meta)
            if m.name not in walking:
                _ref_walk(graph, m, out, walking, [])
            meta = m.meta
    _ref_tables(out)  # raises on an ambiguity
    by_local, by_qualified, notations = {}, {}, {}
    for g, n in out:
        by_local.setdefault(g.name, g)
        by_qualified.setdefault(g.local, g)
        if n is not None:
            notations.setdefault(g, n)
    return RefScope(by_local, by_qualified, notations)


def _ref_walk(graph, t, out: list, walking: dict, path: list) -> None:
    """Append the constants of ``t`` and of its includes, depth first; a
    module walked before adds nothing, one under way is a cycle."""
    walking[t.name] = True
    path = path + [t.name]
    for d in t.declarations:
        if not isinstance(d, Include):
            out.append((t.name.name(d.name), d.notation))
            continue
        u = graph.theory(d.target)
        state = walking.get(u.name)
        if state:
            cycle = " -> ".join(str(r) for r in path)
            raise IncludeCycleError(f"include cycle: {cycle} -> {u.name}")
        if state is None:
            _ref_walk(graph, u, out, walking, path)
    walking[t.name] = False


_STRUCTURAL = ("(", ")", ",", "[", "]", "?")


def _ref_tables(pairs) -> dict:
    """The parser's tables from ``(GlobalName, Notation | None)`` pairs in
    scope order: ``nud`` maps the trigger of each closed, prefix and binder
    notation to its pair, ``led`` that of each infix one; ``binder_seps``
    holds the binders' variable separators, ``delimiters`` the structural
    texts and every other text of a notation's tokens, but ``""``.  Another
    constant claiming a trigger at the same parse position is an
    ``AmbiguityError``."""
    nud, led, binder_seps = {}, {}, set()
    delimiters = set(_STRUCTURAL)
    for g, n in pairs:
        if n is None:
            continue
        if n.is_binder:
            binder_seps.add(n.varlist.separator)
        for tok in n.tokens:
            if not isinstance(tok, Arg):
                delimiters.add(tok.text if isinstance(tok, Delim)
                               else tok.separator)
        table = led if n.is_infix else nud
        for trig in n.triggers:
            f, m = table.setdefault(trig, (g, n))
            if f != g:
                p, q = m.precedence, n.precedence
                at = (f"precedence {p}" if p == q
                      else f"precedences {p} and {q}")
                raise AmbiguityError(f"notations of {f.local} and {g.local} "
                                     f"both match {trig!r} at {at}")
    delimiters.discard("")
    return {"nud": nud, "led": led, "binder_seps": binder_seps,
            "delimiters": delimiters}


@functools.lru_cache(maxsize=64)
def _tables_of(scope) -> dict:
    """``_ref_tables`` over the notations of ``scope``, a ``ParseScope`` or
    a ``RefScope``, kept for the scopes read last."""
    return _ref_tables(scope.notations.items())


def ref_canonical_set(elems) -> Term:
    """``stdlib.rules._canonical_set``: sorted by ``term_key``, the first of
    equal elements kept."""
    out = []
    seen = set()
    for e in sorted(elems, key=term_key):
        k = term_key(e)
        if k not in seen:
            seen.add(k)
            out.append(e)
    if not out:
        return EMPTYSET
    return App(Const(SET), tuple(out))
