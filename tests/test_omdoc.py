import xml.etree.ElementTree as ET

import pytest

import umachine.stdlib as stdlib
from umachine.graph import (OM_MAPSTO, OM_NARYOBJECT, OM_OBJECT, OPENMATH,
                            Constant, DuplicateModuleError, LISTS_DOC_BASE,
                            Theory, TheoryGraph, UnresolvedModuleError)
from umachine.omdoc import OmdocError, export_omdoc, ingest_omdoc
from umachine.terms import Const, Foreign, ModuleRef, app


def lists_doc_text() -> str:
    return (stdlib.root() / "source" / "lists.omdoc").read_text("utf-8")


def test_ingest_lists_document():
    g = TheoryGraph()
    added = ingest_omdoc(g, lists_doc_text())
    assert [t.name.module for t in added] == ["lists", "lists_ext"]
    lists = g.theory(g.resolve("lists"))
    assert [c.name for c in lists.constants()] == \
        ["elem", "list", "nil", "cons", "append"]
    ext = g.theory(g.resolve("lists_ext"))
    assert len(ext.constants()) == 1 and len(ext.includes()) == 1
    assert ext.includes()[0].target == g.resolve("lists")


def test_ingest_empty_document():
    g = TheoryGraph()
    assert ingest_omdoc(g, '<omdoc base="um:/b"/>') == []


def test_embedded_implementation_is_foreign():
    g = TheoryGraph()
    ingest_omdoc(g, lists_doc_text())
    append = g.theory(g.resolve("lists")).constant("append")
    assert isinstance(append.definiens, Foreign)
    assert "def append(l: Term, m: Term)" in append.definiens.content


def test_unknown_element_rejected():
    g = TheoryGraph()
    with pytest.raises(OmdocError):
        ingest_omdoc(g, '<omdoc base="um:/b"><presentation/></omdoc>')
    with pytest.raises(OmdocError):
        ingest_omdoc(g, '<omdoc base="um:/b"><theory name="t">'
                        "<axiom/></theory></omdoc>")


def test_missing_names_rejected():
    g = TheoryGraph()
    with pytest.raises(OmdocError):
        ingest_omdoc(g, '<omdoc base="um:/b"><theory/></omdoc>')
    with pytest.raises(OmdocError):
        ingest_omdoc(g, '<omdoc base="um:/b"><theory name="t">'
                        "<constant/></theory></omdoc>")


def test_missing_base_rejected():
    with pytest.raises(OmdocError):
        ingest_omdoc(TheoryGraph(), "<omdoc/>")


def test_double_ingest_collides():
    g = TheoryGraph()
    ingest_omdoc(g, lists_doc_text())
    with pytest.raises(DuplicateModuleError):
        ingest_omdoc(g, lists_doc_text())


def _plus_doc(base: str, name: str) -> str:
    return (f'<omdoc base="{base}"><theory name="{name}">'
            '<constant name="k"><definition>'
            '<OMOBJ cdbase="http://www.openmath.org/cd"><OMA>'
            '<OMS cd="arith1" name="plus"/><OMI>1</OMI><OMI>2</OMI>'
            "</OMA></OMOBJ></definition></constant></theory></omdoc>")


def test_ingested_definitions_share_symbols():
    g = TheoryGraph()
    a, = ingest_omdoc(g, _plus_doc("um:/a", "ta"))
    b, = ingest_omdoc(g, _plus_doc("um:/b", "tb"))
    pa, pb = a.constant("k").definiens.head, b.constant("k").definiens.head
    assert pa is pb and str(pa.head) == "http://www.openmath.org/cd?arith1?plus"


def test_bare_names_of_ingested_theories():
    g = TheoryGraph()
    for i in range(50):
        ingest_omdoc(g, _plus_doc(f"um:/d{i}", f"t{i}"))
    assert g.resolve("t17") == ModuleRef("um:/d17", "t17")
    ingest_omdoc(g, _plus_doc("um:/z", "t3"))
    ingest_omdoc(g, _plus_doc("um:/a", "t3"))
    with pytest.raises(UnresolvedModuleError) as e:
        g.resolve("t3")
    assert str(e.value) == \
        "ambiguous module 't3': um:/d3?t3, um:/z?t3, um:/a?t3"
    assert g.resolve("t3", default_base="um:/a") == ModuleRef("um:/a", "t3")
    with pytest.raises(UnresolvedModuleError, match="unknown module 't50'"):
        g.resolve("t50")


# -- export round trip ---------------------------------------------------------


def _normalize(el):
    tag = el.tag.rsplit("}", 1)[-1]
    attrs = {k.rsplit("}", 1)[-1]: v for k, v in el.attrib.items()
             if not k.startswith("xmlns")}
    if tag == "OMFOREIGN":
        text = el.text or ""  # foreign payload stays verbatim
    else:
        text = (el.text or "").strip()
    return (tag, attrs, text, [_normalize(c) for c in el])


def test_lists_document_round_trips_up_to_whitespace():
    g = TheoryGraph()
    added = ingest_omdoc(g, lists_doc_text())
    out = export_omdoc(added, LISTS_DOC_BASE)
    a = _normalize(ET.fromstring(lists_doc_text()))
    b = _normalize(ET.fromstring(out))
    assert a == b


def test_the_lists_document_types_its_rule_bearing_constants():
    g = TheoryGraph()
    lists, ext = ingest_omdoc(g, lists_doc_text())
    obj = Const(OM_OBJECT)
    assert lists.constant("append").type == app(Const(OM_MAPSTO), obj, obj,
                                                obj)
    assert ext.constant("append_many").type == app(
        Const(OM_MAPSTO), Const(OM_NARYOBJECT), obj)


def test_a_type_survives_export_and_ingest():
    typed = Constant("c", type=app(Const(OM_MAPSTO), Const(OM_OBJECT),
                                   Const(OM_OBJECT)),
                     definiens=Foreign("native", "c"))
    t = Theory(ModuleRef("um:/t", "T"), meta=OPENMATH, declarations=[typed])
    again, = ingest_omdoc(TheoryGraph(), export_omdoc([t], "um:/t"))
    assert again.declarations == (typed,)


def test_a_document_registers_all_its_theories_or_none():
    g = TheoryGraph()
    ingest_omdoc(g, '<omdoc base="um:/b"><theory name="old"/></omdoc>')
    before = dict(g.modules)
    with pytest.raises(DuplicateModuleError, match=r"um:/b\?old already"):
        ingest_omdoc(g, '<omdoc base="um:/b"><theory name="new"/>'
                        '<theory name="old"/></omdoc>')
    with pytest.raises(DuplicateModuleError, match=r"um:/b\?twice already"):
        ingest_omdoc(g, '<omdoc base="um:/b"><theory name="twice"/>'
                        '<theory name="twice"/></omdoc>')
    assert g.modules == before
    assert [t.name.module for t in ingest_omdoc(
        g, '<omdoc base="um:/b"><theory name="new"/></omdoc>')] == ["new"]
