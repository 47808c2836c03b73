"""OpenMath XML codec.

Element set: OMOBJ, OMS, OMV, OMI, OMF (attribute ``dec``), OMSTR, OMA,
OMBIND/OMBVAR, and OMFOREIGN (attribute ``format``).  OMS carries
``cdbase``/``cd``/``name``; an omitted ``cdbase`` inherits from the nearest
ancestor element or the document default.

Both directions are loops over explicit stacks, so no term is too deep for
the interpreter; the decoder refuses an object nested deeper than
``MAX_TERM_DEPTH`` with ``TermTooDeepError``, and any ``DOCTYPE`` with
``XmlDecodeError``.  The encoder writes the text that
``xml.etree.ElementTree`` would write for the same elements.
"""

from __future__ import annotations

import math
import re
import weakref
import xml.etree.ElementTree as ET

from .terms import (MAX_TERM_DEPTH, App, Bind, Const, FloatLit, Foreign,
                    GlobalName, IntLit, StrLit, Term, TermTooDeepError, Var)


class XmlDecodeError(ValueError):
    """Raised when an XML payload is not a valid OpenMath object."""


_OMI_RE = re.compile(r"^-?[0-9]+$")

# One Const per OMS ``(cdbase, cd, name)`` as written, shared by every decoded
# term.  Weak values: the symbols of dropped payloads leave the table.
_SYMBOLS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _symbol(base: str, cd: str, name: str) -> Const:
    key = (base, cd, name)
    c = _SYMBOLS.get(key)
    if c is None:
        try:
            c = _SYMBOLS[key] = Const(GlobalName(base, cd, name))
        except ValueError as e:  # a cdbase ``urlsplit`` refuses
            raise XmlDecodeError(f"bad cdbase {base!r}: {e}") from None
    return c


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


def _escape_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(s: str) -> str:
    """``s`` quoted as ``xml.etree.ElementTree`` writes an attribute value."""
    return (_escape_text(s).replace('"', "&quot;").replace("\r", "&#13;")
            .replace("\n", "&#10;").replace("\t", "&#09;"))


def element(tag: str, attributes=(), content: str = "") -> str:
    """An element as ``xml.etree.ElementTree.tostring`` writes it: the
    attributes ``(name, value)`` in order, and ``content`` (escaped
    already), or none in a short empty element."""
    attrs = "".join(f' {k}="{_escape_attribute(v)}"'
                    for k, v in attributes)
    if not content:
        return f"<{tag}{attrs} />"
    return f"<{tag}{attrs}>{content}</{tag}>"


def _leaf_xml(t: Term) -> str:
    """The element of a term other than an application or binding."""
    if isinstance(t, Const):
        return element("OMS", (("cdbase", t.head.base), ("cd", t.head.module),
                               ("name", t.head.name)))
    if isinstance(t, Var):
        return element("OMV", (("name", t.name),))
    if isinstance(t, IntLit):
        return f"<OMI>{t.value}</OMI>"
    if isinstance(t, FloatLit):
        return element("OMF", (("dec", _float_to_dec(t.value)),))
    if isinstance(t, StrLit):
        return element("OMSTR", (), _escape_text(t.value))
    if isinstance(t, Foreign):
        return element("OMFOREIGN",
                       (("format", t.format),) if t.format else (),
                       _escape_text(t.content))
    raise TypeError(f"not a term: {t!r}")


def encode_xml(t: Term) -> str:
    """Serialize ``t`` as OpenMath XML, wrapped in ``<OMOBJ>``.

    The text is what ``xml.etree.ElementTree`` would write for the same
    elements, written in one preorder walk.  Each symbol's ``<OMS …/>``
    element is built once per call and kept in a dict of the call's own."""
    out = ["<OMOBJ>"]
    symbols: dict[GlobalName, str] = {}
    # Terms to write, and strings to write as they are.
    todo: list = ["</OMOBJ>", t]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is str:
            out.append(t)
        elif cls is App:
            out.append("<OMA>")
            todo.append("</OMA>")
            todo += t.args[::-1]
            todo.append(t.head)
        elif cls is Const:
            oms = symbols.get(t.head)
            if oms is None:
                oms = symbols[t.head] = _leaf_xml(t)
            out.append(oms)
        elif cls is Bind:
            names = "".join(element("OMV", (("name", x),)) for x in t.context)
            out.append("<OMBIND>")
            todo += ("</OMBIND>", t.scope,
                     f"<OMBVAR>{names}</OMBVAR>" if names else "<OMBVAR />",
                     t.binder)
        else:
            out.append(_leaf_xml(t))
    return "".join(out)


def local_tag(tag: str) -> str:
    """``tag`` without its ``{namespace}`` prefix."""
    return tag.rsplit("}", 1)[-1]


def from_element(el: ET.Element, cdbase: str | None = None) -> Term:
    """Decode an OpenMath element into a term.  An element with more than
    ``MAX_TERM_DEPTH`` OMA and OMBIND elements nested is refused."""
    # One frame per OMA or OMBIND under way: its tag, its cdbase, its child
    # elements and what is decoded of them so far (an OMBIND's: the binder,
    # the variable names, the scope).
    stack: list[tuple[str, str | None, list, list]] = []
    while True:
        tag = local_tag(el.tag)
        base = el.get("cdbase", cdbase)
        if tag == "OMOBJ":
            children = list(el)
            if len(children) != 1:
                raise XmlDecodeError("OMOBJ must contain exactly one object")
            el, cdbase = children[0], base
            continue
        if tag == "OMA" or tag == "OMBIND":
            children = list(el)
            if tag == "OMA" and not children:
                raise XmlDecodeError("empty OMA")
            if tag == "OMBIND" and (len(children) != 3 or local_tag(
                    children[1].tag) != "OMBVAR"):
                raise XmlDecodeError("OMBIND needs binder, OMBVAR, and scope")
            if len(stack) == MAX_TERM_DEPTH:
                raise TermTooDeepError
            stack.append((tag, base, children, []))
            el, cdbase = children[0], base
            continue
        t = _leaf(tag, el, base)
        while True:
            if not stack:
                return t
            tag, base, children, done = stack[-1]
            done.append(t)
            if tag == "OMA" and len(done) < len(children):
                el, cdbase = children[len(done)], base
                break
            if tag == "OMBIND" and len(done) == 1:
                done.append(_bound_names(children[1]))
                el, cdbase = children[2], base
                break
            stack.pop()
            if tag == "OMBIND":
                t = Bind(*done)
            elif len(done) == 1:
                raise XmlDecodeError(
                    "OMA needs a head and at least one argument")
            else:
                t = App(done[0], tuple(done[1:]))


def _bound_names(bvar: ET.Element) -> tuple:
    names = []
    for v in bvar:
        if local_tag(v.tag) != "OMV" or not v.get("name"):
            raise XmlDecodeError("OMBVAR may only contain named OMV elements")
        names.append(v.get("name"))
    if len(set(names)) != len(names):
        raise XmlDecodeError("bound variable names must be pairwise distinct")
    return tuple(names)


def _leaf(tag: str, el: ET.Element, base: str | None) -> Term:
    """The term of an element other than OMOBJ, OMA and OMBIND."""
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
        if not _OMI_RE.match(text):
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
    if tag == "OMFOREIGN":
        return Foreign(el.get("format", ""), el.text or "")
    raise XmlDecodeError(f"unknown OpenMath element: {tag}")


# All that may stand before a document type declaration: a byte order mark,
# white space, comments and processing instructions.  One left open ends it.
_PROLOG = re.compile(r"\ufeff?(?:[ \t\r\n]+|<!--.*?-->|<\?.*?\?>)*", re.S)


def parse_xml(text: str) -> ET.Element:
    """The element tree of ``text``; ``XmlDecodeError`` if it is not
    well-formed or declares a document type, whose entities could expand
    a small body into a large one (OpenMath and OMDoc need none)."""
    if text.startswith("<!DOCTYPE", _PROLOG.match(text).end()):
        raise XmlDecodeError("a DOCTYPE is not accepted")
    try:
        return ET.fromstring(text)
    except ET.ParseError as e:
        raise XmlDecodeError(f"not well-formed XML: {e}") from e


def decode_xml(text: str) -> Term:
    """Parse OpenMath XML (OMOBJ-rooted or a bare object element)."""
    return from_element(parse_xml(text))
