import random

import pytest

from umachine.graph import OM_MAPSTO, OM_NARYOBJECT, OM_OBJECT, TheoryGraph
from umachine.machine import RuleBase
from umachine.notation import Notation, SeqArg
from umachine.realization import install_bifoundations
from umachine.server import TEXT, Service
from umachine.surface import SurfaceError, _open_quote, parse_modules
from umachine.terms import Bind, Const, Foreign, IntLit, ModuleRef, app


def fresh_graph():
    g = TheoryGraph()
    install_bifoundations(g)
    return g


ARITH_FRAGMENT = """
document um:/test

theory arith : OpenMath
  constant plus : naryObject → Object # 1+... prec 50
  constant minus : Object × Object → Object # 1 - 2 prec 50
  constant times : naryObject → Object # 1*... prec 60
"""


def test_theory_block_with_types_and_notations():
    g = fresh_graph()
    added = parse_modules(g, ARITH_FRAGMENT, "arith.mmt")
    assert [m.module for m in added] == ["arith"]
    t = g.theory(added[0])
    plus = t.constant("plus")
    assert plus.type == app(Const(OM_MAPSTO), Const(OM_NARYOBJECT),
                            Const(OM_OBJECT))
    assert plus.notation == Notation((SeqArg(1, "+"),), precedence=50)
    minus = t.constant("minus")
    assert minus.type == app(Const(OM_MAPSTO), Const(OM_OBJECT),
                             Const(OM_OBJECT), Const(OM_OBJECT))


def test_empty_input_adds_nothing():
    g = fresh_graph()
    assert parse_modules(g, "", "empty.mmt") == []
    assert parse_modules(g, "\n// only a comment\n", "c.mmt") == []


VIEW_WITH_ESCAPE = '''
document um:/test

theory tiny : OpenMath
  constant minus : Object × Object → Object

view TinyImpl : tiny -> Computation
  constant minus = (a: Term, b: Term) "
    case (OMI(x), OMI(y)) => OMI(x - y)
  "
'''


def test_view_escaped_body_becomes_foreign():
    g = fresh_graph()
    parse_modules(g, VIEW_WITH_ESCAPE, "tiny.mmt")
    v = g.view(g.resolve("TinyImpl"))
    a = v.assignment("minus")
    assert isinstance(a.target, Bind)
    assert a.target.context == ("a", "b")
    body = a.target.scope
    assert isinstance(body, Foreign) and body.format == "native"
    assert "case (OMI(x), OMI(y)) => OMI(x - y)" in body.content


def test_snippet_span_covers_the_quoted_literal():
    g = fresh_graph()
    parse_modules(g, VIEW_WITH_ESCAPE, "tiny.mmt")
    a = g.view(g.resolve("TinyImpl")).assignment("minus")
    _, start, end = a.snippet_span
    literal = VIEW_WITH_ESCAPE[start:end]
    assert literal.startswith('"') and literal.endswith('"')
    assert "OMI(x - y)" in literal


def test_view_plain_term_assignment():
    g = fresh_graph()
    src = """
document um:/test

theory tiny2 : OpenMath
  constant c : Object

view Tiny2 : tiny2 -> Computation
  constant c = Term
"""
    parse_modules(g, src, "t2.mmt")
    from umachine.graph import CMP_TERM
    assert g.view(g.resolve("Tiny2")).assignment("c").target == Const(CMP_TERM)


def test_alias_statement():
    g = fresh_graph()
    src = """
document um:/test

theory one : OpenMath
  constant c : Object

alias uno = one
"""
    parse_modules(g, src, "a.mmt")
    assert g.resolve("uno") == g.resolve("one")


def test_a_comment_ends_at_its_newline():
    g = fresh_graph()
    parse_modules(g, 'theory T : OpenMath\n  // a stray " quote\n'
                     '  constant a : Object\n  constant b : Object\n')
    t = g.theory(g.resolve("T"))
    assert [c.name for c in t.constants()] == ["a", "b"]


def test_syntax_error_reports_position():
    g = fresh_graph()
    with pytest.raises(SurfaceError) as e:
        parse_modules(g, "theory\n", "bad.mmt")
    assert "bad.mmt:1" in str(e.value)


def test_bad_escape_reports_its_line():
    g = fresh_graph()
    src = ('document um:/test\n\ntheory small : OpenMath\n'
           '  constant c : Object\n\n'
           'view SmallImpl : small -> Computation\n  constant c = "a\\q"\n')
    with pytest.raises(SurfaceError) as e:
        parse_modules(g, src, "s.mmt")
    assert str(e.value).startswith("s.mmt:7:") and "bad escape" in str(e.value)


def test_bad_escape_on_a_later_line_of_a_literal_reports_that_line():
    g = fresh_graph()
    with pytest.raises(SurfaceError) as e:
        parse_modules(g, 'theory T\n  constant f = "a\nb\\q"\n', "s.mmt")
    assert str(e.value) == "s.mmt:3:0: bad escape in string literal"


def test_unresolved_reference():
    g = fresh_graph()
    with pytest.raises(SurfaceError):
        parse_modules(g, "theory t : NoSuchMeta\n", "bad.mmt")


def test_unknown_statement():
    g = fresh_graph()
    with pytest.raises(SurfaceError):
        parse_modules(g, "frobnicate x\n", "bad.mmt")


def test_view_may_only_assign_declared_constants():
    g = fresh_graph()
    src = """
document um:/test

theory small : OpenMath
  constant c : Object

view SmallImpl : small -> Computation
  constant nosuch = Term
"""
    with pytest.raises(SurfaceError) as e:
        parse_modules(g, src, "s.mmt")
    assert "nosuch" in str(e.value)


def test_stdlib_sources_parse(loaded):
    # The shipped library parses and registers the expected modules.
    g = loaded.graph
    for name in ("arith1", "logic1", "relation1", "set1", "fns1", "integer1",
                 "NumbersTest", "IntegerArith", "SetOps", "ListsImpl",
                 "ListsExtImpl", "complex1", "interval1", "linalg1",
                 "minmax1", "nums1", "rounding1", "setname1", "units_metric1"):
        g.resolve(name)
    assert g.resolve("relations1") == g.resolve("relation1")


def test_redeclared_name_resolves_as_in_a_scoped_request():
    # T redeclares f after including base: a later definiens and a request
    # scoped to T both take the first f in declaration order, base's.
    g = fresh_graph()
    src = """
document um:/test

theory base : OpenMath
  constant f : Object

theory T : OpenMath
  include base
  constant f : Object
  constant c = f(1)
"""
    parse_modules(g, src, "t.mmt")
    t = g.theory(g.resolve("T"))
    assert t.constant("c").definiens == app(Const(g.resolve("base").name("f")),
                                            IntLit(1))
    r = Service(g, RuleBase()).simplify_request(b"f(1)", TEXT, "T", None)
    assert (r.status, r.body) == (200, "base?f(1)")


def test_a_failed_block_is_not_registered_and_the_fixed_text_parses():
    g = fresh_graph()
    broken = ("document um:/test\ntheory half : OpenMath\n"
              "  constant a : Object\n  constant b : Object ×\n")
    with pytest.raises(SurfaceError) as e:
        parse_modules(g, broken, "half.mmt")
    assert str(e.value).startswith("half.mmt:4:")
    assert ModuleRef("um:/test", "half") not in g.modules
    fixed = broken.replace("Object ×", "Object")
    half = ModuleRef("um:/test", "half")
    assert parse_modules(g, fixed, "half.mmt") == [half]
    t = g.theory(half)
    assert [c.name for c in t.constants()] == ["a", "b"]


def test_a_block_registers_when_the_next_header_closes_it():
    g = fresh_graph()
    src = ("document um:/test\n"
           "theory first : OpenMath\n  constant a : Object\n"
           "theory second : OpenMath\n  constant b : Object\n"
           "  constant b : Object\n")
    with pytest.raises(SurfaceError, match="duplicate constant b") as e:
        parse_modules(g, src, "two.mmt")
    assert e.value.line == 6
    assert ModuleRef("um:/test", "first") in g.modules
    assert ModuleRef("um:/test", "second") not in g.modules


def test_a_constant_parses_in_the_scope_of_its_open_block():
    g = fresh_graph()
    parse_modules(g, "document um:/test\ntheory own : OpenMath\n"
                     "  constant k : Object\n  constant c = k\n", "own.mmt")
    t = g.theory(ModuleRef("um:/test", "own"))
    assert t.constant("c").definiens == Const(t.name.name("k"))
    assert isinstance(t.declarations, tuple)


@pytest.mark.parametrize("src, line, message", [
    ("document\n", 1, "document needs a base URI"),
    ("theory T : OpenMath\n  include\n", 2, "include needs a module"),
    # The open block is not registered, so it cannot include itself.
    ("document um:/test\ntheory T : OpenMath\n  include T\n", 3,
     "unknown module 'T'"),
    # An alias line closes the block before it.
    ("theory T : OpenMath\nalias U = T\n  constant c : Object\n", 3,
     "constant outside a module"),
    ("theory T : OpenMath\nalias U = T\n  include T\n", 3,
     "include outside a module"),
    # An include names a module of its block's kind.
    ("view V : OpenMath -> Computation\n  include OpenMath\n", 2,
     "urn:um:builtin?OpenMath is a theory, not a view"),
    ("theory T : OpenMath\n  include Syntactic\n", 2,
     "urn:um:builtin?Syntactic is a view, not a theory"),
    # A reference splits at a '?', so no reference could reach the name.
    ("theory x?y : OpenMath\n", 1, "a name may not contain '?': 'x?y'"),
    ("view v?w : OpenMath -> Computation\n", 1,
     "a name may not contain '?': 'v?w'"),
    ("theory T : OpenMath\n  constant a?b : Object\n", 2,
     "a name may not contain '?': 'a?b'"),
    # '(' opens a group or a call and ',' separates its arguments.
    ("theory T : OpenMath\n  constant a\n  constant g # V ( 2 )\n", 3,
     "a notation may not be triggered by '(', which opens a group or a "
     "call, or ',', which separates arguments"),
    ("theory T : OpenMath\n  constant g # 1 , 2 prec 5\n  constant a\n", 2,
     "a notation may not be triggered by '(', which opens a group or a "
     "call, or ',', which separates arguments"),
])
def test_statement_errors_name_their_line(src, line, message):
    g = fresh_graph()
    with pytest.raises(SurfaceError) as e:
        parse_modules(g, src, "bad.mmt")
    assert str(e.value) == f"bad.mmt:{line}:0: {message}"


def test_an_alias_with_a_query_mark_fails_at_its_line():
    # ``resolve`` splits a reference at its last '?' before it reads the
    # aliases, so such an alias could never be reached.
    g = fresh_graph()
    parse_modules(g, "document um:/q\ntheory T : OpenMath\n  constant c\n"
                  "alias U = T\n", "ok.mmt")
    before = dict(g.aliases)
    with pytest.raises(SurfaceError) as e:
        parse_modules(g, "document um:/q\nalias x?y = T\n", "bad.mmt")
    assert str(e.value) == "bad.mmt:2:0: a name may not contain '?': 'x?y'"
    assert g.aliases == before and g.resolve("U") == ModuleRef("um:/q", "T")
    with pytest.raises(ValueError, match="a name may not contain"):
        g.add_alias("x?y", ModuleRef("um:/q", "T"))
    assert g.aliases == before


def _open_quote_by_loop(s):
    """Reference: the character loop ``_open_quote`` must agree with."""
    in_str, i = False, 0
    while i < len(s):
        if in_str and s[i] == "\\":
            i += 2
            continue
        if s[i] == '"':
            in_str = not in_str
        i += 1
    return in_str


def test_open_quote_agrees_with_the_character_loop():
    rng = random.Random(3)
    for _ in range(20000):
        s = "".join(rng.choice('ab"\\\n ') for _ in range(rng.randrange(14)))
        assert _open_quote(s) == _open_quote_by_loop(s), s
