"""Ingestion of the OMDoc subset.

Supported elements: ``omdoc`` (attribute ``base``), ``theory`` (``name``),
``constant`` (``name``), ``include`` (``from``), and a constant's ``type``
and ``definition``, each wrapping an ``OMOBJ`` (possibly containing
``OMFOREIGN``), at most one of each.  A ``DOCTYPE`` is refused, and so is a
theory or constant name with a ``?``, at which a reference splits, and a
base, include or ``cdbase`` that ``urlsplit`` refuses.  Theories
get the ``OpenMath`` meta-theory by default.  An include may name a theory
registered later, but not a registered view.  A document registers all of
its theories or, on any error, none.
"""

from __future__ import annotations

from .graph import OPENMATH, Constant, Include, Theory, TheoryGraph, View
from .omxml import XmlDecodeError, from_element, local_tag, parse_xml
from .terms import ModuleRef, normalize_uri


class OmdocError(ValueError):
    pass


# A constant's child element -> the ``Constant`` field its OMOBJ fills.
_CONSTANT_TERMS = {"type": "type", "definition": "definiens"}


def _resolve_module(ref: str, base: str) -> ModuleRef:
    ref = ref.strip()
    if ref.startswith("?"):
        return ModuleRef(base, ref[1:])
    if "?" in ref:
        b, m = ref.rsplit("?", 1)
        return ModuleRef(b, m)
    return ModuleRef(base, ref)


def ingest_omdoc(graph: TheoryGraph, xml_text: str) -> list[Theory]:
    """Register the document's theories; returns them in document order."""
    try:
        root = parse_xml(xml_text)
    except XmlDecodeError as e:
        raise OmdocError(str(e)) from e
    if local_tag(root.tag) != "omdoc":
        raise OmdocError(f"expected an omdoc root, got {local_tag(root.tag)}")
    try:
        base = normalize_uri(root.get("base", ""))
    except ValueError as e:  # a base ``urlsplit`` refuses
        raise OmdocError(f"bad base {root.get('base')!r}: {e}") from None
    if not base:
        raise OmdocError("omdoc root needs a base attribute")
    added: list[Theory] = []
    for el in root:
        tag = local_tag(el.tag)
        if tag != "theory":
            raise OmdocError(f"unsupported element: {tag}")
        name = el.get("name")
        if not name:
            raise OmdocError("theory needs a name attribute")
        decls = []
        for child in el:
            ctag = local_tag(child.tag)
            if ctag == "include":
                frm = child.get("from")
                if not frm:
                    raise OmdocError("include needs a from attribute")
                try:
                    target = _resolve_module(frm, base)
                except ValueError as e:  # a base ``urlsplit`` refuses
                    raise OmdocError(
                        f"bad include from {frm!r}: {e}") from None
                m = graph.modules.get(target)
                if isinstance(m, View):
                    raise OmdocError(
                        f"theory {name} includes {target}, a view")
                # The registered module's own ref, shared, where there is one.
                decls.append(Include(target if m is None else m.name))
            elif ctag == "constant":
                cname = child.get("name")
                if not cname:
                    raise OmdocError("constant needs a name attribute")
                terms = {}
                for sub in child:
                    stag = local_tag(sub.tag)
                    if stag not in _CONSTANT_TERMS:
                        raise OmdocError(f"unsupported element: {stag}")
                    objs = list(sub)
                    if len(objs) != 1 or local_tag(objs[0].tag) != "OMOBJ":
                        raise OmdocError(f"{stag} needs one OMOBJ child")
                    if _CONSTANT_TERMS[stag] in terms:
                        raise OmdocError(
                            f"constant {cname} has more than one {stag}")
                    try:
                        terms[_CONSTANT_TERMS[stag]] = from_element(
                            objs[0], base)
                    except XmlDecodeError as e:
                        raise OmdocError(str(e)) from e
                decls.append(Constant(cname, **terms))
            else:
                raise OmdocError(f"unsupported element: {ctag}")
        try:
            added.append(Theory(ModuleRef(base, name), meta=OPENMATH,
                                declarations=decls))
        except ValueError as e:  # a name with a '?'
            raise OmdocError(str(e)) from e
    graph.add(*added)
    return added

