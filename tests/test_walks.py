"""The term walks are loops, not recursions: they agree with the recursive
references in ``reference_walks`` on generated corpora, and they handle
terms far deeper than the interpreter's default recursion limit."""

import ast
import gc
import itertools
import math
import random
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from reference_walks import (ref_decode_xml, ref_encode_xml, ref_eq,
                             ref_parse_term, ref_parse_xml, ref_render_term,
                             ref_simplify, ref_substitute, ref_term_key)
from termgen import (CONS, LAMBDA, NIL, SET, engine_term, g, marked,
                     surface_term)
from umachine import notation, omxml
from umachine.graph import Theory, _map_constants
from umachine.machine import Rule, RuleBase, SimplifyBudget, simplify
from umachine.notation import (ParseScope, parse_notation, parse_term,
                                render_term)
from umachine.omxml import decode_xml, encode_xml
from umachine.server import Service
from umachine.stdlib import rules
from umachine.sts import BINDER, Fixed, _check_term
from umachine.terms import (MAX_TERM_DEPTH, App, Bind, Const, FloatLit,
                            Foreign, GlobalName, IntLit, StrLit,
                            TermTooDeepError, Var, app, free_vars,
                            strip_marks, substitute, term_key)

DEEP = 50_000


def _outcome(f, *args):
    """What ``f(*args)`` gives: a value, or the type, message and position
    of its error."""
    try:
        return "ok", f(*args)
    except (ValueError, TypeError) as e:
        return type(e), str(e), getattr(e, "pos", None)


def _same_tree(a, b):
    return (a[0] == b[0] == "ok" and ref_eq(a[1], b[1])
            and repr(a[1]) == repr(b[1])) or (a[0] != "ok" and a == b)


def _corpus(seed: int, n: int) -> list:
    rng = random.Random(seed)
    terms = [surface_term(rng, rng.randrange(5)) for _ in range(n)]
    terms += [engine_term(rng, rng.randrange(4)) for _ in range(n)]
    terms += [FloatLit(float("nan")), FloatLit(-0.0), FloatLit(0.0),
              StrLit("a<b&\"c\"\n\t\r"), Foreign("", ""),
              Foreign("x&y", "<p>"), Bind(LAMBDA, (), Var("x")),
              app(Var("f"), IntLit(1)), app(app(Var("f"), NIL), SET)]
    return terms


def _mutations(text: str, rng: random.Random, n: int) -> list[str]:
    """``text`` with a slice cut out, or cut short, ``n`` times."""
    out = []
    for _ in range(n):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(1, 6))
        out.append(text[:i] + text[j:] if rng.random() < 0.7 else text[:i])
    return out


def _theories(loaded):
    return [m for m in loaded.graph.modules.values() if isinstance(m, Theory)]


# -- the references read only what callers see ----------------------------------

# A scope's parser tables and lexer, which only ``src/`` may know.
_SCOPE_INSIDES = {"nud", "led", "binder_seps", "delimiters", "lexer"}


def _inside_reads(source: str) -> list[str]:
    """Where ``source`` imports ``umachine`` whole, imports a private name
    or ``tokenize`` from it, reads a private attribute of a name it
    imported from it, or reads a scope's tables or lexer (an attribute of
    anything but ``self``)."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "umachine":
            for a in node.names:
                imported.add(a.asname or a.name)
                if a.name.startswith("_") or a.name in ("tokenize", "*"):
                    found.append(f"{node.lineno}: import {a.name}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] == "umachine"]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value.id if isinstance(node.value, ast.Name) else None
        if node.attr in _SCOPE_INSIDES and owner != "self" or (
                owner in imported and node.attr.startswith("_")):
            found.append(f"{node.lineno}: .{node.attr}")
    return found


def test_the_reference_walks_read_only_what_callers_see():
    source = Path(__file__).with_name("reference_walks.py").read_text("utf-8")
    assert _inside_reads(source) == []
    # Each kind of read is found.
    assert sorted(_inside_reads(
        "from umachine.notation import _lexer, tokenize, ParseScope\n"
        "from umachine.machine import _select_rule\n"
        "from umachine import omxml\n"
        "import umachine.terms\n"
        "omxml._OMI_RE, self.scope.nud, s.led, s.binder_seps,\n"
        "s.delimiters, ParseScope(x).lexer, self.nud, s.notations\n")) == [
        "1: import _lexer", "1: import tokenize", "2: import _select_rule",
        "4: import umachine.terms", "5: ._OMI_RE", "5: .binder_seps",
        "5: .led", "5: .nud", "6: .delimiters", "6: .lexer"]


def test_render_and_parse_agree_with_the_references_in_every_stdlib_scope(
        loaded):
    rng = random.Random(15)
    theories = _theories(loaded)
    assert len(theories) == 20
    for k, theory in enumerate(theories):
        scope = loaded.graph.scope_for(theory.name)
        for t in _corpus(k, 25):
            text = render_term(t, scope)
            assert text == ref_render_term(t, scope)
            for src in [text, *_mutations(text, rng, 4)]:
                assert _same_tree(_outcome(parse_term, src, scope),
                                  _outcome(ref_parse_term, src, scope)), src


def test_the_codecs_agree_with_the_references():
    rng = random.Random(16)
    for t in _corpus(16, 150):
        xml = encode_xml(t)
        assert xml == ref_encode_xml(t)
        for src in [xml, *_mutations(xml, rng, 6)]:
            assert _same_tree(_outcome(decode_xml, src),
                              _outcome(ref_decode_xml, src)), src
    # Symbols whose base, module or name need escaping, each met several
    # times in one term, so the encoder writes repeats from its symbol dict.
    # Some share a base, module or name, and the last equals the second.
    odd = [Const(GlobalName(*parts)) for parts in [
        ("um:/a&b<c>\"d", 'm"q\t', "n\tt\n"), ("um:/x", "cd\n1\r", "a\rb&<>"),
        ('um:/"q"\t', "lt<&", 'gt>"'), ("um:/a&b<c>\"d", "cd", "n\tt\n"),
        ("um:/x", "cd\n1\r", "z"), ("um:/x", "cd\n1\r", "a\rb&<>")]]
    t = app(odd[0], odd[1], app(odd[0], odd[2], odd[3], odd[4], odd[5]),
            Bind(odd[2], ("x",), app(odd[1], Var("x"), odd[3], odd[0])))
    assert encode_xml(t) == ref_encode_xml(t)
    assert ref_eq(decode_xml(encode_xml(t)), t)
    for xml in ['<OMOBJ><OMBIND><OMS cd="fns1" name="lambda"/><OMBVAR>'
                '<OMV name="x"/><OMV name="x"/></OMBVAR><OMV name="x"/>'
                '</OMBIND></OMOBJ>', "<OMA/>", "<OMOBJ/>", "<OMA><OMI>1</OMI>"
                "</OMA>", '<OMBIND cdbase="b"><OMS cd="c" name="n"/><OMV '
                'name="x"/><OMV name="x"/></OMBIND>', "<OMBVAR/>"]:
        # Under a base, as ``omdoc`` decodes a document's terms.
        assert _same_tree(
            _outcome(lambda x: omxml.from_element(omxml.parse_xml(x),
                                                  "um:/d"), xml),
            _outcome(ref_decode_xml, xml, "um:/d")), xml
    # Literals at the edges of the OMI and OMF grammars.
    for xml in ['<OMF dec="INF"/>', '<OMF dec="-INF"/>', '<OMF dec=" 1e3 "/>',
                '<OMF dec="1e999"/>', '<OMF dec="x"/>', "<OMI>+1</OMI>",
                "<OMI> -0 </OMI>", "<OMI>1.0</OMI>", "<OMI>٣</OMI>"]:
        assert _same_tree(_outcome(decode_xml, xml),
                          _outcome(ref_decode_xml, xml)), xml
    for t in (FloatLit(math.inf), FloatLit(-math.inf), FloatLit(1e300)):
        assert encode_xml(t) == ref_encode_xml(t)


def test_the_doctype_refusal_agrees_with_the_reference():
    # Every prolog built from these parts, each well-formed but for the
    # comments and processing instructions left open: the prolog scan ends
    # as the parser, refusing a DOCTYPE as it meets it, does.  (A DOCTYPE
    # that is itself not well-formed is refused unread, where the reference
    # reports the error its parser finds.)
    starts = ["", "\ufeff", '<?xml version="1.0"?>',
              '\ufeff<?xml version="1.0" encoding="UTF-8"?>']
    misc = ["", " \t\r\n", "<!-- c -->", "<!----><!--<!DOCTYPE OMOBJ>-->",
            "<!-- ?> -->", "<?pi -->?>", "<?pi <!DOCTYPE OMOBJ>?>\n"]
    doctypes = ["", "<!DOCTYPE OMOBJ>", '<!DOCTYPE OMOBJ [<!ENTITY e "1">]>',
                '<!DOCTYPE OMOBJ SYSTEM "o.dtd">', "<!doctype OMOBJ>"]
    open_ = ["", "<!-- open", "<?pi open -->"]
    ends = ["", "<!-- end -->", "<!DOCTYPE OMOBJ>"]
    outcomes = set()
    for parts in itertools.product(starts, misc, open_, doctypes, misc,
                                   ends):
        start, before, left_open, doctype, after, end = parts
        text = (start + before + left_open + doctype + after
                + "<OMOBJ><OMI>1</OMI></OMOBJ>" + end)
        got = _outcome(lambda s: ET.tostring(omxml.parse_xml(s)), text)
        assert got == _outcome(lambda s: ET.tostring(ref_parse_xml(s)),
                               text), text
        outcomes.add(got[0] if got[0] == "ok" else got[1].split(":")[0])
    assert outcomes == {"ok", "a DOCTYPE is not accepted",
                        "not well-formed XML"}


# Notations with word-like delimiters and separators, and names that are
# empty or begin or end with spaces (as XML may bring them), where the
# spacing between parts and the trimming of each notation's ends matter.
_EDGE_NOTATIONS = {
    "and": "1 and 2 prec 10", "not": "not 1 prec 20", "fact": "1 fact prec 30",
    "or": "1or... prec 5", "list": "[ 1;... ]", "lam": "lam V . 2 prec 3",
    "all": "all V in 2", "pair": "< 1 , 2 >", "neg": "- 1 prec 40",
    "wrap": "begin 1 end", "k": "kk", "e": "∅", "adj": "{{ 1 2 }}",
    "arrow": "1×... → 2 prec 15"}
_EDGE_NAMES = ["", " ", "  ", " x", "x ", "a", "and", "_", "b1"]


def _edge_term(rng: random.Random, depth: int):
    consts = [*_EDGE_NOTATIONS, "bare"]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            lambda: Var(rng.choice(_EDGE_NAMES)),
            lambda: IntLit(rng.randrange(-3, 4)), lambda: FloatLit(-0.5),
            lambda: StrLit(rng.choice(_EDGE_NAMES)),
            lambda: Const(g("m", rng.choice(consts)))])()
    k = rng.choice([*consts, "var head", "term head", "binding"])
    if k in ("lam", "all", "binding"):
        binder = (Const(g("m", k)) if k != "binding"
                  else _edge_term(rng, depth - 1))
        return Bind(binder, tuple(rng.sample(_EDGE_NAMES, rng.randrange(3))),
                    _edge_term(rng, depth - 1))
    head = (Var(rng.choice(_EDGE_NAMES)) if k == "var head"
            else _edge_term(rng, depth - 1) if k == "term head"
            else Const(g("m", k)))
    return App(head, tuple(_edge_term(rng, depth - 1)
                           for _ in range(rng.randrange(1, 4))))


def test_render_agrees_with_the_reference_on_edge_names():
    scope = ParseScope([(g("m", k), parse_notation(v))
                        for k, v in _EDGE_NOTATIONS.items()]
                       + [(g("m", "bare"), None)])
    rng = random.Random(19)
    for _ in range(3000):
        t = _edge_term(rng, rng.randrange(1, 5))
        assert render_term(t, scope) == ref_render_term(t, scope), t


def test_equality_and_term_key_agree_with_the_references():
    corpus = _corpus(17, 150)
    # Equal terms that are not the same objects: copies, marked copies.
    corpus += [decode_xml(encode_xml(t)) for t in corpus[::3]]
    corpus += [marked(t) for t in corpus[::5]]
    rng = random.Random(17)
    for _ in range(20000):
        a, b = rng.choice(corpus), rng.choice(corpus)
        assert (a == b) is ref_eq(a, b)
        assert (a != b) is not ref_eq(a, b)
        if a == b:
            assert hash(a) == hash(b)
        assert ((term_key(a) < term_key(b))
                is (ref_term_key(a) < ref_term_key(b)))
    assert ([id(t) for t in sorted(corpus, key=term_key)]
            == [id(t) for t in sorted(corpus, key=ref_term_key)])
    assert IntLit(1) != 1 and Var("x") != "x"
    with pytest.raises(TypeError, match="not a term"):
        term_key((5,))


# -- the engine loop and substitution against their references -------------

PLUS = Const(g("arith1", "plus"))
MAP = Const(g("set1", "map"))
FIRST = Const(GlobalName("um:/t", "m", "first"))


def _nodes(t) -> list:
    """The nodes of ``t`` in preorder."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        out.append(t)
        if isinstance(t, App):
            todo += t.args[::-1]
            todo.append(t.head)
        elif isinstance(t, Bind):
            todo += (t.scope, t.binder)
    return out


def _shape(t, given=()) -> tuple:
    """``t`` as its key, which nodes carry the mark, and which are nodes of
    the terms ``given``, the same objects."""
    ids = {id(x) for u in given for x in _nodes(u)}
    nodes = _nodes(t)
    return (term_key(t), [x.simplified for x in nodes],
            [id(x) in ids for x in nodes])


def _capturing_maps() -> list:
    """``{y1, y} map (x ↦ y ↦ y1 ↦ x + y + y1)`` and its kin: every element
    is captured by a binding of the function's body unless renamed."""
    body = Bind(LAMBDA, ("y",), Bind(LAMBDA, ("y1",), app(
        PLUS, Var("x"), Var("y"), Var("y1"))))
    fn = Bind(LAMBDA, ("x",), body)
    return [app(MAP, fn, app(SET, Var("y1"), Var("y"))),
            app(MAP, fn, app(SET, app(PLUS, Var("y"), Var("y2")), IntLit(1))),
            app(MAP, Bind(LAMBDA, ("x",), Bind(LAMBDA, ("y", "z"), app(
                PLUS, Var("x"), Var("y"), Var("z1")))),
                app(SET, Var("z"), Var("y"), Var("x")))]


def _engine_corpus(seed: int, n: int) -> list:
    rng = random.Random(seed)
    terms = [engine_term(rng, rng.randrange(5)) for _ in range(n)]
    # Surface terms hold the constants ``nums1?pi`` and ``nums1?e``.
    terms += [surface_term(rng, rng.randrange(4)) for _ in range(n // 4)]
    # Terms with marked parts, as a rule's result may hold.
    terms += [app(PLUS, marked(t), u)
              for t, u in zip(terms[::7], terms[1::7])]
    terms += [app(SET, marked(t), NIL) for t in terms[:20]]
    return terms + _capturing_maps()


@pytest.mark.parametrize("fuel", [3, 10_000])
def test_simplify_agrees_with_the_reference_loop(loaded, fuel):
    # A nullary rule that fires and one that declines, so that constants
    # are rewritten or left where they stand; an application rule and a
    # binder rule whose results equal their redexes in all but one child.
    base = RuleBase([*loaded.base.rules(),
                     Rule(g("nums1", "pi"), Fixed(0), lambda: IntLit(3)),
                     Rule(g("nums1", "e"), Fixed(0), lambda: None),
                     Rule(FIRST.head, Fixed(2),
                          lambda a, b: app(FIRST, IntLit(0), b)),
                     Rule(LAMBDA.head, BINDER, lambda ctx, body: Bind(
                         LAMBDA, ctx, IntLit(0) if body.__class__ is IntLit
                         else body))])
    budget = SimplifyBudget(fuel)
    terms = [app(FIRST, IntLit(i), t)
             for i, t in enumerate(_engine_corpus(20, 40))]
    terms += [Bind(LAMBDA, ("x",), t) for t in terms[:20]]
    for t in _engine_corpus(18, 400) + terms:
        got = simplify(base, t, budget)
        want = ref_simplify(base, t, budget)
        assert (got.steps, got.exhausted) == (want.steps, want.exhausted)
        assert ref_eq(got.term, want.term) and repr(got.term) == repr(want.term)
        assert _shape(got.term, [t]) == _shape(want.term, [t])


def test_a_nullary_rule_with_no_fuel_left_agrees_with_the_reference():
    # ``a`` rewrites to ``b`` and ``b`` to 3: with one unit of fuel the
    # rule of ``b`` would fire with none left, inside an application.
    a, b = g("m", "a"), g("m", "b")
    base = RuleBase([Rule(a, Fixed(0), lambda: Const(b)),
                     Rule(b, Fixed(0), lambda: IntLit(3))])
    t = app(Var("f"), IntLit(1), Const(a), Var("y"))
    for fuel in (1, 2):
        got = simplify(base, t, SimplifyBudget(fuel))
        want = ref_simplify(base, t, SimplifyBudget(fuel))
        assert (got.steps, got.exhausted) == (want.steps, want.exhausted) \
            == (fuel, fuel == 1)
        assert ref_eq(got.term, want.term) and repr(got.term) == repr(want.term)
        assert _shape(got.term, [t]) == _shape(want.term, [t])


def test_substitute_agrees_with_the_reference():
    rng = random.Random(19)
    corpus = _corpus(19, 150) + [t.args[0].scope for t in _capturing_maps()]
    corpus += [Bind(LAMBDA, ("y", "x"), t) for t in corpus[::5]]
    corpus += [marked(t) for t in corpus[::4]]
    maps = [{"x": Var("y")}, {"x": IntLit(1), "y": Var("x")},
            {"x": app(PLUS, Var("y"), Var("y1")), "u": Var("v")},
            {"y": Var("x1"), "x": Var("y")}, {"z": IntLit(0)},
            {"x": Bind(LAMBDA, ("y",), app(PLUS, Var("y"), Var("z")))}]
    for t in corpus:
        for bnd in maps + [{rng.choice("uvwxyz"): surface_term(rng, 2)}]:
            got, want = substitute(t, bnd), ref_substitute(t, bnd)
            assert ref_eq(got, want) and repr(got) == repr(want)
            given = [t, *bnd.values()]
            assert _shape(got, given) == _shape(want, given)
            # Nothing is captured, whatever names the renaming picks.
            fvs = free_vars(t)
            assert free_vars(got) == (fvs - bnd.keys()).union(
                *[free_vars(bnd[k]) for k in fvs & bnd.keys()])
    # ``λx. λx1. x + y + x1`` under ``y ↦ x + x11``: ``x`` becomes ``x1``,
    # so the inner ``x1`` is renamed in the same mapping, away from ``x``,
    # ``x1`` and ``x11`` at once.
    t = Bind(LAMBDA, ("x",), Bind(LAMBDA, ("x1",), app(
        PLUS, Var("x"), Var("y"), Var("x1"))))
    r = app(PLUS, Var("x"), Var("x11"))
    want = Bind(LAMBDA, ("x1",), Bind(LAMBDA, ("x12",), app(
        PLUS, Var("x1"), r, Var("x12"))))
    for got in substitute(t, {"y": r}), ref_substitute(t, {"y": r}):
        assert ref_eq(got, want) and repr(got) == repr(want)


def _nested_binders(n: int, name: str | None = None):
    """``y0 ↦ … ↦ y(n−1) ↦ x``, or with every binding binding ``name``."""
    t = Var("x")
    for i in reversed(range(n)):
        t = Bind(LAMBDA, (name or f"y{i}",), t)
    return t


def _calls(f, *args) -> int:
    """The Python and built-in functions called by ``f(*args)``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("replacement, name", [
    (IntLit(1), None), (Var("z"), None), (Var("y0"), None), (Var("y"), "y")],
    ids=["literal", "variable", "captured", "capturing chain"])
def test_substitution_under_nested_binders_is_linear(replacement, name):
    # As in a set map, whose every element goes into a body under n
    # bindings.  A substitution that found the free variables of every
    # binding's scope would call a function per node per binding.  In the
    # capturing chain every binding binds the replacement's variable, so
    # each is renamed and asks for its scope's free variables.
    calls = {n: _calls(substitute, _nested_binders(n, name),
                       {"x": replacement})
             for n in (1000, 2000, 4000)}
    assert calls[1000] < 60 * 1000
    assert calls[2000] < 2.2 * calls[1000]
    assert calls[4000] < 2.2 * calls[2000]


def test_a_chain_of_renamings_is_linear():
    # ``y0 ↦ … ↦ y(n−1) ↦ x`` under ``x ↦ f(y0, …, y(n−1))``: every binding
    # captures and is renamed.  The renaming then goes down a scope whose
    # free variables are known and hold none of its keys, so it stops
    # there; walking it to the bottom at every level would be quadratic.
    calls = {}
    for n in (1000, 2000, 4000):
        replacement = app(PLUS, *[Var(f"y{i}") for i in range(n)])
        calls[n] = _calls(substitute, _nested_binders(n),
                          {"x": replacement})
    assert calls[1000] < 100 * 1000
    assert calls[2000] < 2.2 * calls[1000]
    assert calls[4000] < 2.2 * calls[2000]
    t, bnd = _nested_binders(50), {"x": app(PLUS, *map(Var, ("y0", "y49")))}
    got, want = substitute(t, bnd), ref_substitute(t, bnd)
    assert ref_eq(got, want) and repr(got) == repr(want)


@pytest.mark.parametrize(
    "nest", [lambda t: t, lambda t: Bind(LAMBDA, ("z",), t)],
    ids=["applications", "bindings"])
def test_a_replacement_with_many_free_variables_takes_linear_memory(nest):
    # ``cons(a0, cons(a1, … 0))`` under one binding: a set of free
    # variables kept for every node would hold n²/2 names.
    r = IntLit(0)
    for i in reversed(range(4000)):
        r = nest(app(CONS, Var(f"a{i}"), r))
    tracemalloc.start()
    try:
        substitute(Bind(LAMBDA, ("y",), Var("x")), {"x": r})
        assert len(free_vars(r)) == 4000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def _traced_peak(f, *args) -> tuple:
    """What ``f(*args)`` returns, and the peak of memory traced meanwhile."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _renamed_chain(n: int) -> tuple[str, str]:
    """``f(y0, …)`` and ``y0 ↦ … ↦ y(n−1) ↦ g(x, y0, …)``: mapping ``x`` to
    the first renames every binding of the second, and each renamed name is
    free at its bottom."""
    names = ",".join(f"y{i}" for i in range(n))
    return (f"f({names})",
            "".join(f"y{i} ↦ " for i in range(n)) + f"g(x,{names})")


# Renaming a scope, then mapping it, took memory cubic in the bindings: 130
# MiB traced at n = 200 for either probe below.  Under one mapping they take
# 1.2 and 1.4 MiB (CPython 3.11.7), a sixth of the bound.

def test_a_chain_of_renamed_bindings_takes_little_memory(scope_all):
    elem, chain = _renamed_chain(200)
    t, bnd = parse_term(chain, scope_all), {"x": parse_term(elem, scope_all)}
    got, peak = _traced_peak(substitute, t, bnd)
    assert peak < 8 << 20
    assert free_vars(got) == {"g", "f", *(f"y{i}" for i in range(200))}


def test_a_set_map_into_200_renamed_bindings_takes_little_memory(loaded):
    elem, chain = _renamed_chain(200)  # a 3.5 KB body
    text = f"{{{elem}}} map (x ↦ {chain})"
    r, peak = _traced_peak(
        Service(loaded.graph, loaded.base).simplify_request,
        text.encode(), "text/plain", "NumbersTest", None)
    assert r.status == 200
    assert peak < 8 << 20


def test_a_set_map_under_4000_bindings_answers_at_once(loaded):
    n = 4000
    text = ("{1,2} map (x ↦ " + "".join(f"y{i} ↦ " for i in range(n))
            + "x)")
    start = time.perf_counter()
    r = Service(loaded.graph, loaded.base).simplify_request(
        text.encode(), "text/plain", "NumbersTest", None)
    assert time.perf_counter() - start < 5
    assert r.status == 200 and r.headers["X-Simplify-Steps"] == "1"
    binders = "↦".join(f"y{i}" for i in range(n))
    assert r.body == f"{{({binders}↦1),({binders}↦2)}}"


# -- terms 50 000 levels deep, at the default recursion limit ----------------

def _cons_list(n: int, cell=IntLit):
    t = NIL
    for i in range(n):
        t = app(CONS, cell(i), t)
    return t


def test_the_recursion_limit_is_the_default():
    # Nothing in the package raises it, so the tests below run at it.
    assert sys.getrecursionlimit() <= 1000


def test_equality_hash_and_term_key_of_deep_terms():
    a, b = _cons_list(DEEP), _cons_list(DEEP)
    assert a == b and hash(a) == hash(b)
    assert a != _cons_list(DEEP, lambda i: IntLit(i + (i == 0)))
    assert len(term_key(a)) == 6 * DEEP + 2
    assert term_key(a) < term_key(app(CONS, IntLit(DEEP), a))


def test_free_vars_substitute_and_strip_marks_on_deep_terms():
    t = Var("x")
    for i in range(DEEP):
        t = app(CONS, t, Var("y") if i == DEEP // 2 else IntLit(i))
    assert free_vars(t) == {"x", "y"}
    s = substitute(t, {"x": IntLit(-1)})
    assert free_vars(s) == {"y"}
    assert strip_marks(marked(s)) == s
    assert not strip_marks(marked(s)).simplified
    # A binder inside: its variable is renamed away from the replacement.
    b = Bind(LAMBDA, ("y",), t)
    assert free_vars(substitute(b, {"x": Var("y")})) == {"y"}


def test_substitution_under_nested_binders():
    # Each binding's scope is one more frame on substitution's own stack;
    # more of them nest than the recursion limit allows frames.
    t = Var("x")
    for i in range(1200):
        t = Bind(LAMBDA, (f"v{i}",), app(CONS, t, Var(f"v{i}")))
    s = substitute(t, {"x": IntLit(7)})
    assert free_vars(s) == frozenset()
    for _ in range(1200):
        s = s.scope.args[0]
    assert s == IntLit(7)


def test_the_codecs_on_deep_terms(monkeypatch):
    t = _cons_list(DEEP)
    xml = encode_xml(t)
    assert xml.count("<OMA>") == DEEP
    monkeypatch.setattr(omxml, "MAX_TERM_DEPTH", 10 * DEEP)
    assert decode_xml(xml) == t


def test_the_parser_and_renderer_on_deep_terms(scope_all, monkeypatch):
    monkeypatch.setattr(notation, "MAX_TERM_DEPTH", 10 * DEEP)
    calls = "lists?cons(0, " * DEEP + "lists?nil" + ")" * DEEP
    zeros = _cons_list(DEEP, lambda _: IntLit(0))
    assert parse_term(calls, scope_all) == zeros
    nested = "(" * DEEP + "1" + "+1)" * DEEP
    for t in (parse_term(nested, scope_all), zeros):
        assert parse_term(render_term(t, scope_all), scope_all) == t


def test_rendering_time_is_linear_in_the_depth(scope_all):
    # Copying text calls no function, so a renderer that copied each
    # operand's text again at every level above it would still make a
    # linear number of calls: the clock tells.
    # Linear is 16× from 4 000 cells to 64 000, quadratic 256×.
    def best(n):
        t = _cons_list(n)
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            render_term(t, scope_all)
            runs.append(time.perf_counter() - start)
        return min(runs)

    gc.disable()
    try:
        assert best(64_000) < 32 * best(4_000)
    finally:
        gc.enable()


def test_the_graph_and_lint_walks_on_deep_terms(loaded):
    t = _cons_list(DEEP, lambda i: Const(g("nums1", "pi")))
    e = Const(g("nums1", "e"))
    mapped = _map_constants(t, lambda c: e if c.head.name == "pi" else c)
    assert mapped == _cons_list(DEEP, lambda i: e)
    out = []
    bad = app(Const(g("arith1", "minus")), IntLit(1))
    _check_term(loaded.graph, app(CONS, bad, t), g("t", "c"), None, out)
    assert [d.message for d in out] == [
        "arith1?minus expects 2 argument(s), got 1"]


def test_is_value_on_deep_terms():
    a, b = _cons_list(DEEP), _cons_list(DEEP)
    assert rules.eq(a, b) == rules.LOGIC_TRUE
    assert rules.eq(a, app(CONS, Var("x"), b)) is None


# -- the depth budget ---------------------------------------------------------

def test_the_budget_counts_nested_operands_and_parentheses(loaded):
    scope = loaded.graph.scope_for(loaded.graph.resolve("arith1"))
    m = MAX_TERM_DEPTH
    # The innermost part at depth m is read; one level more is refused.  A
    # literal operand (read without a generator of its own) counts as a
    # variable does.
    for text in ["(" * m + "1" + ")" * m,
                 "(" * (m - 1) + "x+y" + ")" * (m - 1),
                 "(" * (m - 1) + "x+1" + ")" * (m - 1)]:
        parse_term(text, scope)
        with pytest.raises(TermTooDeepError, match="term nested too deeply"):
            parse_term(f"({text})", scope)
    # In XML the levels are the OMA and OMBIND elements; OMOBJ is none.
    t = _cons_list(m)
    assert decode_xml(encode_xml(t)) == t
    with pytest.raises(TermTooDeepError, match="term nested too deeply"):
        decode_xml(encode_xml(app(CONS, IntLit(0), t)))
