"""Ingestion and re-export of the OMDoc subset.

Supported elements: ``omdoc`` (attribute ``base``), ``theory`` (``name``),
``constant`` (``name``), ``include`` (``from``), and ``definition`` wrapping
an ``OMOBJ`` (possibly containing ``OMFOREIGN``).  Theories get the
``OpenMath`` meta-theory by default.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .graph import OPENMATH, Constant, Include, Theory, TheoryGraph
from .omxml import XmlDecodeError, from_element, local_tag, to_element
from .terms import ModuleRef, normalize_uri


class OmdocError(ValueError):
    pass


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
        root = ET.fromstring(xml_text)
    except ET.ParseError as e:
        raise OmdocError(f"not well-formed XML: {e}") from e
    if local_tag(root.tag) != "omdoc":
        raise OmdocError(f"expected an omdoc root, got {local_tag(root.tag)}")
    base = normalize_uri(root.get("base", ""))
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
        theory = Theory(ModuleRef(base, name), meta=OPENMATH)
        for child in el:
            ctag = local_tag(child.tag)
            if ctag == "include":
                frm = child.get("from")
                if not frm:
                    raise OmdocError("include needs a from attribute")
                theory.declarations.append(
                    Include(_resolve_module(frm, base)))
            elif ctag == "constant":
                cname = child.get("name")
                if not cname:
                    raise OmdocError("constant needs a name attribute")
                definiens = None
                for sub in child:
                    stag = local_tag(sub.tag)
                    if stag != "definition":
                        raise OmdocError(f"unsupported element: {stag}")
                    objs = list(sub)
                    if len(objs) != 1 or local_tag(objs[0].tag) != "OMOBJ":
                        raise OmdocError("definition needs one OMOBJ child")
                    try:
                        definiens = from_element(objs[0], base)
                    except XmlDecodeError as e:
                        raise OmdocError(str(e)) from e
                theory.add_constant(Constant(cname, definiens=definiens))
            else:
                raise OmdocError(f"unsupported element: {ctag}")
        added.append(theory)
    # Register only once the whole document parsed.
    for theory in added:
        graph.add(theory)
    return added


def export_omdoc(theories, base: str) -> str:
    """Serialize theories back into the same OMDoc subset."""
    root = ET.Element("omdoc")
    root.set("xmlns", "http://omdoc.org/ns")
    root.set("base", base)
    for theory in theories:
        tel = ET.SubElement(root, "theory")
        tel.set("name", theory.name.module)
        for d in theory.declarations:
            if isinstance(d, Include):
                iel = ET.SubElement(tel, "include")
                if d.target.base == theory.name.base:
                    iel.set("from", f"?{d.target.module}")
                else:
                    iel.set("from", str(d.target))
            else:
                cel = ET.SubElement(tel, "constant")
                cel.set("name", d.name)
                if d.definiens is not None:
                    del_ = ET.SubElement(cel, "definition")
                    obj = ET.SubElement(del_, "OMOBJ")
                    obj.append(to_element(d.definiens))
    return ET.tostring(root, encoding="unicode")
