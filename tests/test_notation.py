import random
import re

import pytest

from reference_walks import ref_lex_string, ref_tokenize
from termgen import surface_term
from umachine.codegen import build_graph
from umachine.graph import (OM_MAPSTO, OM_OBJECT, OPENMATH, Constant, Include,
                            Theory)
from umachine.notation import (AmbiguityError, Arg, Delim, Notation,
                               NotationError, ParseScope, SeqArg,
                               SyntaxErrorAt, VarList, escape_str,
                               lex_string, parse_notation, parse_term,
                               render_term, tokenize)
from umachine.terms import (Bind, Const, FloatLit, Foreign, GlobalName,
                            IntLit, ModuleRef, StrLit, Var, app)

CD = "http://www.openmath.org/cd"


def G(m, n):
    return GlobalName(CD, m, n)


# -- parse_notation -----------------------------------------------------------

def test_sequence_notation():
    assert parse_notation("1+...") == Notation((SeqArg(1, "+"),))


def test_binary_notation():
    assert parse_notation("1 - 2") == Notation((Arg(1), Delim("-"), Arg(2)))


def test_sequence_then_delimiter_then_arg():
    assert parse_notation("1×... → 2") == Notation(
        (SeqArg(1, "×"), Delim("→"), Arg(2)))


def test_unicode_and_ascii_ellipsis_are_synonyms():
    assert parse_notation("1;…") == parse_notation("1;...")


def test_precedence_suffix():
    n = parse_notation("1 - 2 prec 50")
    assert n.precedence == 50 and n.tokens == (Arg(1), Delim("-"), Arg(2))


@pytest.mark.parametrize("make", [
    lambda: parse_notation("1 ⊕ 2 prec -5"),
    lambda: Notation((Delim("⊖"), Arg(1)), -1),
], ids=["parse_notation", "Notation"])
def test_negative_precedence_rejected(make):
    # Operands are never read below precedence -1, so such an infix would
    # render to text that does not parse back.
    with pytest.raises(NotationError, match="precedence must not be negative"):
        make()


def test_duplicate_index_rejected():
    with pytest.raises(NotationError):
        parse_notation("1 + 1")


def test_multiple_sequence_slots_rejected():
    with pytest.raises(NotationError):
        parse_notation("1,... 2,...")


def test_binder_notation():
    n = parse_notation("V ↦ 2 prec 10")
    assert n.tokens == (VarList(","), Delim("↦"), Arg(2))
    assert n.is_binder


def _shape(n):
    return (n.is_closed, n.is_prefix, n.is_infix, n.is_binder, n.slot_count,
            n.seq_slot, n.varlist, n.triggers)


@pytest.mark.parametrize("src, shape", [
    # closed, prefix, infix, binder, slots, sequence slot, var list, triggers
    ("⌊ 1 ⌋", (True, False, False, False, 1, None, None, ("⌊",))),
    ("- 1 prec 70", (False, True, False, False, 1, None, None, ("-",))),
    ("1+...", (False, False, True, False, 1, SeqArg(1, "+"), None, ("+",))),
    ("1×... → 2",
     (False, False, True, False, 2, SeqArg(1, "×"), None, ("×", "→"))),
    ("V ↦ 2", (False, False, False, True, 1, None, VarList(","), ("↦",))),
])
def test_shape_is_computed_with_the_notation(src, shape):
    assert _shape(parse_notation(src)) == shape


def test_shape_stays_out_of_equality_and_repr():
    n = parse_notation("1×... → 2 prec 15")
    same = Notation((SeqArg(1, "×"), Delim("→"), Arg(2)), 15)
    assert n == same and hash(n) == hash(same)
    assert repr(n) == ("Notation(tokens=(SeqArg(index=1, separator='×'), "
                       "Delim(text='→'), Arg(index=2)), precedence=15)")
    assert n.delimiters == {"×", "→"}


@pytest.mark.parametrize("src", ["1 2", "V 2 ↦"])
def test_notation_without_a_trigger_is_rejected_when_declared(src):
    with pytest.raises(NotationError):
        parse_notation(src)


# -- parse_term ----------------------------------------------------------------

@pytest.fixture()
def scope(scope_all):
    return scope_all


def test_parse_plus(scope):
    assert parse_term("1+2", scope) == app(Const(G("arith1", "plus")),
                                           IntLit(1), IntLit(2))


def test_unknown_identifier_is_a_variable(scope):
    assert parse_term("x", scope) == Var("x")


def test_precedence(scope):
    t = parse_term("1+2*3", scope)
    assert t == app(Const(G("arith1", "plus")), IntLit(1),
                    app(Const(G("arith1", "times")), IntLit(2), IntLit(3)))


def test_seqarg_flattens(scope):
    t = parse_term("1+2+3", scope)
    assert t == app(Const(G("arith1", "plus")),
                    IntLit(1), IntLit(2), IntLit(3))
    # parenthesized grouping stays nested
    u = parse_term("(1+2)+3", scope)
    assert u == app(Const(G("arith1", "plus")),
                    app(Const(G("arith1", "plus")), IntLit(1), IntLit(2)),
                    IntLit(3))


def test_maptest_string_structure(scope):
    t = parse_term("{0,1,2} map (x ↦ -x*x+2*x+3) = {3,4}", scope)
    plus, times, um = (Const(G("arith1", n))
                       for n in ("plus", "times", "unary_minus"))
    body = app(plus, app(times, app(um, Var("x")), Var("x")),
               app(times, IntLit(2), Var("x")), IntLit(3))
    expected = app(
        Const(G("relation1", "eq")),
        app(Const(G("set1", "map")),
            Bind(Const(G("fns1", "lambda")), ("x",), body),
            app(Const(G("set1", "set")), IntLit(0), IntLit(1), IntLit(2))),
        app(Const(G("set1", "set")), IntLit(3), IntLit(4)))
    assert t == expected


def test_binder_extends_maximally(scope):
    t = parse_term("x ↦ x = 2", scope)
    assert isinstance(t, Bind)
    assert t.scope == app(Const(G("relation1", "eq")), Var("x"), IntLit(2))


def test_multi_variable_binder(scope):
    t = parse_term("x, y ↦ x+y", scope)
    assert isinstance(t, Bind) and t.context == ("x", "y")


def test_qualified_name_and_call_syntax(scope):
    t = parse_term("integer1?factorial(3)", scope)
    assert t == app(Const(G("integer1", "factorial")), IntLit(3))


def test_negative_literal_folds(scope):
    assert parse_term("-5", scope) == IntLit(-5)
    assert parse_term("-(5)", scope) == app(
        Const(G("arith1", "unary_minus")), IntLit(5))
    assert parse_term("-x", scope) == app(
        Const(G("arith1", "unary_minus")), Var("x"))


def test_floats_and_strings(scope):
    assert parse_term("1.5", scope) == FloatLit(1.5)
    assert parse_term('"a b"', scope) == StrLit("a b")


def test_empty_braces_are_the_empty_set(scope):
    assert parse_term("{}", scope) == Const(G("set1", "emptyset"))


def test_syntax_error_carries_position(scope):
    with pytest.raises(SyntaxErrorAt) as e:
        parse_term("1+", scope)
    assert e.value.pos == 2


def test_sequence_separator_needs_its_notation_completed(scope):
    # "×" exists only inside the full type-arrow notation; a bare product
    # is not a term.
    with pytest.raises(SyntaxErrorAt):
        parse_term("(Object × Object)", scope)


def test_ambiguity_is_rejected():
    a = (G("a", "f"), parse_notation("1 @ 2 prec 30"))
    b = (G("b", "g"), parse_notation("1 @ 2 prec 30"))
    with pytest.raises(AmbiguityError):
        ParseScope([a, b])


def test_same_delimiter_at_distinct_precedence_is_ambiguous():
    # The parser dispatches on the trigger alone: b's notation could never
    # be read, and b(x, y) would render as text that reads back as a(x, y).
    a = (G("a", "f"), parse_notation("1 @ 2 prec 30"))
    b = (G("b", "g"), parse_notation("1 @ 2 prec 40"))
    message = "notations of a?f and b?g both match '@' at precedences 30 and 40"
    with pytest.raises(AmbiguityError, match=re.escape(message)):
        ParseScope([a, b])
    with pytest.raises(AmbiguityError, match=re.escape(message)):
        ParseScope(ParseScope([a]), ParseScope([b]))


def test_a_binder_shares_its_trigger_position_with_a_prefix_not_an_infix():
    # A binder's trigger is read where a term starts, as a prefix one is
    # (after the variables, which only a lookahead tells from a name); an
    # infix one's is read after an operand.
    lam = (G("T", "lam"), parse_notation("V ↦ 2 prec 10"))
    pre = (G("T", "pre"), parse_notation("↦ 1 prec 20"))
    message = ("notations of T?lam and T?pre both match '↦' at "
               "precedences 10 and 20")
    for make in (lambda: ParseScope([lam, pre]),
                 lambda: ParseScope(ParseScope([lam]), ParseScope([pre]))):
        with pytest.raises(AmbiguityError, match=f"^{re.escape(message)}$"):
            make()
    reverse = ("notations of T?pre and T?lam both match '↦' at "
               "precedences 20 and 10")
    for make in (lambda: ParseScope([pre, lam]),
                 lambda: ParseScope(ParseScope([pre]), ParseScope([lam]))):
        with pytest.raises(AmbiguityError, match=f"^{re.escape(reverse)}$"):
            make()
    inf = (G("T", "inf"), parse_notation("1 ↦ 2 prec 20"))
    for scope in (ParseScope([lam, inf]), ParseScope([inf, lam]),
                  ParseScope(ParseScope([inf]), ParseScope([lam]))):
        assert parse_term("x ↦ 2", scope) == Bind(Const(lam[0]), ("x",),
                                                 IntLit(2))
        assert parse_term("(1) ↦ 2", scope) == app(Const(inf[0]), IntLit(1),
                                                   IntLit(2))
        with pytest.raises(SyntaxErrorAt,
                           match=re.escape("unexpected '↦' (at position 0)")):
            parse_term("↦ x", scope)


def test_the_derived_tables_follow_the_dispatched_notations():
    # A binder's own separator separates its variables, and an empty
    # separator is no delimiter.
    lam = (G("T", "lam"), Notation((VarList(";"), Delim("."), Arg(2)), 10))
    cat = (G("T", "cat"), Notation((SeqArg(1, ""),)))
    scope = ParseScope([lam, cat])
    assert scope.binder_seps == {";"} and "" not in scope.delimiters
    assert parse_term("x; y . x", scope) == Bind(Const(lam[0]), ("x", "y"),
                                                 Var("x"))
    assert [t[:2] for t in tokenize("ab", scope)[:-2]] == [("ident", "ab")]


@pytest.mark.parametrize("src", ["V ( 2 )", "( 1 )", "1 ( 2 )",
                                 "1 , 2 prec 5", "1,..."])
def test_a_notation_triggered_by_a_paren_or_comma_is_refused(src):
    # "(" opens a group or a call and "," separates a call's arguments, so
    # the parser never dispatches on either.
    with pytest.raises(NotationError, match="may not be triggered by"):
        parse_notation(src)


def test_the_longest_delimiter_wins():
    eq, imp, long = G("t", "eq"), G("t", "imp"), G("t", "long")
    arrows = ParseScope([(eq, parse_notation("1 = 2 prec 10")),
                         (imp, parse_notation("1 => 2 prec 10")),
                         (long, parse_notation("1 ==> 2 prec 10"))])
    assert parse_term("a ==> b", arrows) == app(Const(long), Var("a"), Var("b"))
    assert parse_term("a=>b", arrows) == app(Const(imp), Var("a"), Var("b"))
    assert parse_term("a = b", arrows) == app(Const(eq), Var("a"), Var("b"))
    with pytest.raises(SyntaxErrorAt, match=r"unexpected '==>'") as e:
        parse_term("a ===> b", arrows)
    assert e.value.pos == 3


@pytest.fixture()
def everything1(loaded):
    return loaded.graph.scope_for(loaded.graph.resolve("everything1"))


def test_an_identifier_longer_than_a_delimiter_is_a_variable(everything1):
    assert parse_term("mapx", everything1) == Var("mapx")


def test_type_arrows_parse_to_mapsto(everything1):
    mapsto, obj = Const(OM_MAPSTO), Const(OM_OBJECT)
    assert parse_term("Object → Object", everything1) == app(mapsto, obj, obj)
    assert parse_term("Object × Object → Object", everything1) == app(
        mapsto, obj, obj, obj)


@pytest.mark.parametrize("src, message, pos", [
    ("{1,}", "unexpected '}'", 3),
    ("[1 2]", "expected ','", 3),
    ("(1", "expected ')'", 2),
    ("f()", "an application needs at least one argument", 2),
    ("x ↦", "unexpected 'end of input'", 3),
    ("1 map", "unexpected 'end of input'", 5),
    ("Object ×", "unexpected 'end of input'", 8),
    ("1e400", "float literal out of range", 0),
    ("2*-1.5e309", "float literal out of range", 3),
])
def test_malformed_input_is_reported_where_it_goes_wrong(
        everything1, src, message, pos):
    with pytest.raises(SyntaxErrorAt) as e:
        parse_term(src, everything1)
    assert (str(e.value), e.value.pos) == (f"{message} (at position {pos})",
                                           pos)


# -- render_term ----------------------------------------------------------------

def test_render_sequence(scope):
    t = app(Const(G("arith1", "plus")), IntLit(1), IntLit(2), IntLit(3))
    assert render_term(t, scope) == "1+2+3"


def test_render_literal(scope):
    assert render_term(IntLit(5), scope) == "5"


def test_render_inserts_parens(scope):
    t = app(Const(G("arith1", "minus")),
            app(Const(G("arith1", "plus")), IntLit(1), IntLit(2)), IntLit(3))
    s = render_term(t, scope)
    assert s == "(1+2)-3"
    assert parse_term(s, scope) == t


def _c(module, name):
    return Const(G(module, name))


_LAMBDA = _c("fns1", "lambda")
_PLUS = _c("arith1", "plus")
_MINUS = _c("arith1", "minus")


@pytest.mark.parametrize("t, text", [
    # a binder notation
    (Bind(_LAMBDA, ("x", "y"), app(_PLUS, Var("x"), IntLit(1))), "x,y↦x+1"),
    # a binder in a sequence slot and in a call argument is parenthesized
    (app(_c("set1", "set"), Bind(_LAMBDA, ("x",), Var("x")), IntLit(2)),
     "{(x↦x),2}"),
    (app(_c("set1", "size"), Bind(_LAMBDA, ("x",), Var("x"))),
     "set1?size((x↦x))"),
    (app(_c("set1", "map"),
         Bind(_LAMBDA, ("x",), app(_c("arith1", "times"), Var("x"), Var("x"))),
         app(_c("set1", "set"), IntLit(1))), "{1} map (x↦x*x)"),
    # a numeral under a prefix notation is parenthesized, so that it does
    # not read back as a negative literal; other operands by precedence
    (app(_c("arith1", "unary_minus"), IntLit(3)), "-(3)"),
    (app(_c("arith1", "unary_minus"), FloatLit(2.5)), "-(2.5)"),
    (app(_c("arith1", "power"), app(_c("arith1", "unary_minus"), Var("x")),
         IntLit(2)), "-x^2"),
    (app(_c("logic1", "not"), app(_c("logic1", "and"), _c("logic1", "true"),
                                  _c("logic1", "false"))),
     "¬(logic1?true∧logic1?false)"),
    # an equal-precedence right operand is parenthesized
    (app(_MINUS, IntLit(1), app(_MINUS, IntLit(2), IntLit(3))), "1-(2-3)"),
    # a closed notation without slots renders a bare constant
    (_c("set1", "emptyset"), "∅"),
    # a sequence of one element, an application of a binder, and a binding
    # by a non-binder fall back to the call and bind forms
    (app(_PLUS, IntLit(1)), "arith1?plus(1)"),
    (app(_LAMBDA, IntLit(1)), "fns1?lambda(1)"),
    (Bind(_PLUS, ("x",), Var("x")), "bind(arith1?plus, [x], x)"),
    # a call on a constant whose notation has no slots names the constant:
    # "∅(1)" would not read back
    (app(_c("set1", "emptyset"), IntLit(1)), "set1?emptyset(1)"),
])
def test_render_text(scope, t, text):
    assert render_term(t, scope) == text
    assert parse_term(text, scope) == t


def test_render_fallback_is_qualified(scope):
    t = app(Const(G("set1", "size")),
            app(Const(G("set1", "set")), IntLit(1)))
    s = render_term(t, scope)
    assert s == "set1?size({1})"
    assert parse_term(s, scope) == t


def test_round_trip_of_the_fallback_forms(scope):
    # Foreign and a binder without a notation render as foreign(...) and
    # bind(...), whose quoted literals need the escapes read back.
    for t in (Foreign("native", 'x "y" \\ z'),
              Bind(Const(G("set1", "size")), ("x", "y"),
                   app(Var("x"), StrLit('"'), Foreign("", "")))):
        s = render_term(t, scope)
        assert s.startswith(("foreign(", "bind(")), s
        assert parse_term(s, scope) == t, s


def test_precedence_property(scope):
    rng = random.Random(7)
    plus, times = Const(G("arith1", "plus")), Const(G("arith1", "times"))
    for _ in range(50):
        a, b, c = (rng.randrange(100) for _ in range(3))
        t = parse_term(f"{a}+{b}*{c}", scope)
        assert t == app(plus, IntLit(a), app(times, IntLit(b), IntLit(c)))


def test_generated_round_trip(scope):
    rng = random.Random(20260810)
    for _ in range(300):
        t = surface_term(rng, depth=rng.randrange(1, 4))
        s = render_term(t, scope)
        assert parse_term(s, scope) == t, s


# -- string literals -------------------------------------------------------------

def _tokens_or_error(lex, src, *args):
    try:
        return lex(src, *args)
    except SyntaxErrorAt as e:
        return str(e), e.pos


def test_lex_string_agrees_with_the_character_loop():
    rng = random.Random(7)
    for _ in range(20000):
        lead = "x" * rng.randrange(3)
        src = lead + '"' + "".join(rng.choice('ab"\\\n ')
                                   for _ in range(rng.randrange(12)))
        assert (_tokens_or_error(lex_string, src, len(lead))
                == _tokens_or_error(ref_lex_string, src, len(lead))), src
    assert escape_str('a"b\\c') == '"a\\"b\\\\c"'
    assert lex_string(escape_str('a"b\\c'), 0) == ('a"b\\c', 9)


# -- the lexer ---------------------------------------------------------------------

# Characters the lexer's classes split on: identifier and digit characters,
# a Unicode digit (a digit), a superscript two (a letter to ``\w``, not a
# digit), a no-break space and an information separator (both whitespace),
# exponents; then, drawn less often as each may end the scan with an error,
# quotes, backslashes, a float out of range and stray characters.
_CHARS = ["a", "x", "_", "0", "1", "9", "٣", "²", "\xa0", "\x1c", " ", "e",
          "E", "1.5", "2e+7"]
_RARE = ['"', '"', "\\", "9e999", ".", "+", "-"]


def _agree(scope, rng, count, delimiters):
    """``tokenize`` and the loop agree on ``count`` strings made of
    ``delimiters`` and the characters above."""
    for _ in range(count):
        src = "".join(rng.choice(delimiters if r < 0.45 else _CHARS
                                 if r < 0.9 else _RARE)
                      for r in (rng.random() for _ in range(rng.randrange(12))))
        assert (_tokens_or_error(tokenize, src, scope)
                == _tokens_or_error(ref_tokenize, src, scope)), repr(src)


def test_the_lexer_agrees_with_the_character_loop_in_every_stdlib_scope(
        loaded):
    g = loaded.graph
    rng = random.Random(14)
    theories = [m.name for m in g.modules.values() if isinstance(m, Theory)]
    assert len(theories) == 20
    for ref in theories:
        scope = g.scope_for(ref)
        _agree(scope, rng, 300, sorted(scope.delimiters))


# Digit-leading, word-like and mixed delimiters, and some that a longer
# delimiter, identifier or number contains or continues.
_DELIMITERS = ["1.", "2D", "1e", "1.5", "2e+", "٣", "map", "in", "π", "a+",
               "x1", "_", "ab", "=", "==", "==>", "..", "-", "+", "ⁿ", "²x",
               '"q', 'a"', " +", "\\"]


def _scope_over(delimiters):
    return ParseScope((G("t", f"d{k}"), Notation((Delim(d),)))
                      for k, d in enumerate(delimiters))


def test_the_lexer_agrees_with_the_character_loop_on_generated_notations():
    rng = random.Random(1414)
    for _ in range(150):
        delimiters = rng.sample(_DELIMITERS, rng.randrange(1, 8))
        _agree(_scope_over(delimiters), rng, 80, delimiters)


def test_a_number_or_identifier_beats_a_delimiter_only_when_longer():
    scope = _scope_over(["1.", "2D", "map", "a+", "1e"])
    assert [t[:2] for t in tokenize("1.5 1.x 2D5 map mapx a+b ab 1e5 1e",
                                    scope)[:-2]] == [
        ("float", "1.5"), ("sym", "1."), ("ident", "x"), ("sym", "2D"),
        ("int", "5"), ("sym", "map"), ("ident", "mapx"), ("sym", "a+"),
        ("ident", "b"), ("ident", "ab"), ("float", "1e5"), ("sym", "1e")]


def test_scopes_share_the_lexer_of_their_delimiters():
    # Ingested theories include arith1 and relation1 and add no notation,
    # so the scope of each new one compiles no lexer.
    graph, _, _ = build_graph()
    arith1, relation1 = graph.resolve("arith1"), graph.resolve("relation1")
    a = Theory(ModuleRef("um:/lex", "A"), meta=OPENMATH, declarations=[
        Include(arith1), Include(relation1), Constant("k")])
    b = Theory(ModuleRef("um:/lex", "B"), meta=OPENMATH, declarations=[
        Include(relation1), Include(arith1)])
    graph.add(a, b)
    assert graph.scope_for(a.name).lexer is graph.scope_for(b.name).lexer
    # Delimiters that an identifier or one character spells are looked up,
    # not compiled: the stdlib's scopes differ only in "List(" and "List[",
    # which either both are in scope or neither is.
    assert len({graph.scope_for(m.name).lexer for m in graph.modules.values()
                if isinstance(m, Theory)}) == 2
