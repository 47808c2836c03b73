"""OpenMath XML codec.

Element set: OMOBJ, OMS, OMV, OMI, OMF (attribute ``dec``), OMSTR, OMA,
OMBIND/OMBVAR, and OMFOREIGN (attribute ``format``).  OMS carries
``cdbase``/``cd``/``name``; an omitted ``cdbase`` inherits from the nearest
ancestor element or the document default.
"""

from __future__ import annotations

import math
import re
import weakref
import xml.etree.ElementTree as ET

from .terms import (App, Bind, Const, FloatLit, Foreign, GlobalName, IntLit,
                    StrLit, Term, Var)


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
        c = _SYMBOLS[key] = Const(GlobalName(base, cd, name))
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


def encode_xml(t: Term, wrap: bool = True) -> str:
    """Serialize ``t`` as OpenMath XML, by default wrapped in ``<OMOBJ>``."""
    el = to_element(t)
    if wrap:
        root = ET.Element("OMOBJ")
        root.append(el)
        el = root
    return ET.tostring(el, encoding="unicode")


def local_tag(tag: str) -> str:
    """``tag`` without its ``{namespace}`` prefix."""
    return tag.rsplit("}", 1)[-1]


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
        scope = from_element(children[2], base)
        return Bind(binder, tuple(names), scope)
    if tag == "OMFOREIGN":
        return Foreign(el.get("format", ""), el.text or "")
    raise XmlDecodeError(f"unknown OpenMath element: {tag}")


def decode_xml(text: str, default_base: str | None = None) -> Term:
    """Parse OpenMath XML (OMOBJ-rooted or a bare object element)."""
    try:
        el = ET.fromstring(text)
    except ET.ParseError as e:
        raise XmlDecodeError(f"not well-formed XML: {e}") from e
    return from_element(el, default_base)
