import gc
import random
import xml.etree.ElementTree as ET
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from umachine import omxml
from umachine.omxml import XmlDecodeError, decode_xml, encode_xml
from umachine.terms import (App, Bind, Const, FloatLit, Foreign, GlobalName,
                            IntLit, StrLit, Var, app)

UOM = "http://cds.omdoc.org/unsorted/uom.omdoc"
NIL = Const(GlobalName(UOM, "lists", "nil"))
CONS = Const(GlobalName(UOM, "lists", "cons"))


def test_int_literal_encoding():
    assert encode_xml(IntLit(5)) == "<OMOBJ><OMI>5</OMI></OMOBJ>"
    assert encode_xml(IntLit(-12)) == "<OMOBJ><OMI>-12</OMI></OMOBJ>"


def test_symbol_encoding_carries_cdbase():
    (el,) = ET.fromstring(encode_xml(NIL))
    assert el.tag == "OMS"
    assert el.get("cdbase") == UOM
    assert el.get("cd") == "lists"
    assert el.get("name") == "nil"


def test_cons_round_trip():
    t = app(CONS, IntLit(1), NIL)
    assert decode_xml(encode_xml(t)) == t


def test_cdbase_inherited_from_ancestor():
    xml = (f'<OMOBJ cdbase="{UOM}"><OMA>'
           '<OMS cd="lists" name="cons"/><OMI>1</OMI>'
           '<OMS cd="lists" name="nil"/></OMA></OMOBJ>')
    assert decode_xml(xml) == app(CONS, IntLit(1), NIL)


def test_cdbase_from_default_argument():
    # As ``omdoc`` decodes a term under its document's base.
    assert omxml.from_element(omxml.parse_xml('<OMS cd="lists" name="nil"/>'),
                              UOM) == NIL


def test_missing_cdbase_is_an_error():
    with pytest.raises(XmlDecodeError):
        decode_xml('<OMS cd="lists" name="nil"/>')


def test_unknown_element():
    with pytest.raises(XmlDecodeError):
        decode_xml("<OMWEIRD/>")


def test_empty_oma():
    with pytest.raises(XmlDecodeError):
        decode_xml("<OMA/>")
    with pytest.raises(XmlDecodeError):
        decode_xml("<OMA><OMI>1</OMI></OMA>")  # head without arguments


def test_malformed_omi():
    with pytest.raises(XmlDecodeError):
        decode_xml("<OMI>12a</OMI>")


def test_bind_and_foreign_round_trip():
    lam = Const(GlobalName("http://www.openmath.org/cd", "fns1", "lambda"))
    t = Bind(lam, ("x", "y"), app(Var("f"), Var("x")))
    assert decode_xml(encode_xml(t)) == t
    f = Foreign("", "def append(l: Term, m: Term) : Term = { ... }\n  more")
    assert decode_xml(encode_xml(f)) == f


def test_namespaced_elements_are_accepted():
    xml = ('<OMOBJ xmlns="http://www.openmath.org/OpenMath">'
           "<OMI> 7 </OMI></OMOBJ>")
    assert decode_xml(xml) == IntLit(7)


def test_decoded_symbols_are_shared():
    cd = "http://www.openmath.org/cd"
    doc = (f'<OMOBJ cdbase="{cd}"><OMA><OMS cd="arith1" name="plus"/>'
           "<OMI>1</OMI><OMI>2</OMI></OMA></OMOBJ>")
    a, b = decode_xml(doc), decode_xml(doc)
    assert a.head is b.head
    assert a.head.head.base is b.head.head.base
    # A constant carries no marker, so nothing copies a shared symbol to
    # mark it: its finality is the rule base's to say.
    assert not a.head.simplified and not b.head.simplified
    assert "simplified" not in {f.name for f in fields(a.head)}


def test_symbol_table_drops_symbols_of_dropped_terms():
    gc.collect()
    size = len(omxml._SYMBOLS)
    rng = random.Random(3)
    for _ in range(200):
        name = f"s{rng.getrandbits(64):x}"
        t = decode_xml(f'<OMS cdbase="um:/fresh" cd="cd{name}" name="{name}"/>')
        assert t.head.name == name
    del t
    gc.collect()
    assert len(omxml._SYMBOLS) <= size


# -- generated round trip ----------------------------------------------------

xml_text = st.text(st.characters(min_codepoint=32, max_codepoint=0x2FF),
                   max_size=20)
names = st.sampled_from(["x", "y", "z"])
consts = st.sampled_from([
    NIL, CONS, Const(GlobalName("http://www.openmath.org/cd", "arith1", "plus")),
])
leaves = st.one_of(
    st.integers(min_value=-10 ** 40, max_value=10 ** 40).map(IntLit),
    st.floats(allow_nan=False).map(FloatLit),
    xml_text.map(StrLit),
    names.map(Var),
    consts,
    st.tuples(st.sampled_from(["", "scala", "text"]), xml_text)
    .map(lambda p: Foreign(*p)),
)


def _mk_app(pair):
    return App(pair[0], tuple(pair[1]))


def _mk_bind(triple):
    binder, ctx, scope = triple
    return Bind(binder, tuple(ctx), scope)


xml_terms = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(sub, st.lists(sub, min_size=1, max_size=3)).map(_mk_app),
        st.tuples(consts, st.lists(names, min_size=1, max_size=2, unique=True),
                  sub).map(_mk_bind)),
    max_leaves=15)


@given(xml_terms)
def test_generated_round_trip(t):
    assert decode_xml(encode_xml(t)) == t
