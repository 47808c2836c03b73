"""Scopes merged from kept tables agree with one walk and one index.

``reference_walks.ref_scope_for`` builds a scope as the graph did before it
kept tables: one walk of the include graph and the meta chain, then every
table indexed from the constants met.  ``TheoryGraph.scope_for`` must give
the same tables, in the same order, and fail with the same error, on the
first call and on later ones, which reuse what the first one kept.
"""

import pytest

from reference_walks import ref_scope_for, scope_tables
from umachine.codegen import build_graph
from umachine.graph import (OPENMATH, SCOPE_CACHE_SIZE, Constant, Include,
                            Theory, TheoryGraph, View)
from umachine.notation import AmbiguityError, ParseScope, parse_notation
from umachine.surface import SurfaceError, parse_modules
from umachine.terms import Const, ModuleRef

CD = "http://www.openmath.org/cd"
ARITH1 = ModuleRef(CD, "arith1")
RELATION1 = ModuleRef(CD, "relation1")
FNS1 = ModuleRef(CD, "fns1")


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 (compared below)
        return type(e), str(e)


def _agree(graph, roots, times=2):
    """``scope_for(roots)``, or for a list the scopes of its roots composed,
    gives the reference's tables or error, each of ``times`` times."""
    want = _outcome(ref_scope_for, graph, roots)

    def scope():
        if isinstance(roots, list):
            return ParseScope(*map(graph.scope_for, roots))
        return graph.scope_for(roots)

    for _ in range(times):
        got = _outcome(lambda: scope_tables(scope()))
        assert got == want, roots
    return want


def _ref(name, base="um:/ref"):
    return ModuleRef(base, name)


def _c(name, notation=None):
    return Constant(name, notation=parse_notation(notation)
                    if notation else None)


def _theory(name, *decls, meta=OPENMATH, base="um:/ref"):
    return Theory(_ref(name, base), meta=meta, declarations=[
        Include(d) if isinstance(d, ModuleRef) else d for d in decls])


@pytest.fixture(scope="module")
def stdlib():
    graph, _, _ = build_graph()
    return graph


def test_every_stdlib_theory_agrees(stdlib):
    theories = [m.name for m in stdlib.modules.values()
                if isinstance(m, Theory)]
    assert len(theories) == 20
    for ref in theories:
        assert isinstance(_agree(stdlib, ref), dict)
    _agree(stdlib, theories)
    _agree(stdlib, list(reversed(theories)))


def test_ingested_shapes_agree():
    graph, _, _ = build_graph()
    a = _theory("A", _c("a1", "1 ⊕ 2 prec 30"), _c("a2"), ARITH1)
    b = _theory("B", _ref("A"), _c("b1", "⟦ 1 ⟧"), _c("b2", "1 <=> 2 prec 8"),
                RELATION1, _c("plus"))
    # Before the includes; a diamond (A through B) and a repeated include.
    c = _theory("C", _c("eq"), _c("mapsto"), _ref("A"), _ref("B"),
                _ref("A"), _c("a1"), _c("c1", "1 ==> 2 prec 40"), FNS1,
                _c("Object"))
    # Own names that shadow an include's and the meta chain's.
    d = _theory("D", ARITH1, _c("plus"), _c("mapsto"), _c("FMP"),
                RELATION1, _c("eq"))
    # A meta-theory of its own, which includes what the theory includes.
    m = _theory("M", _c("m1", "⟨ 1 ⟩"), ARITH1, meta=OPENMATH)
    t = _theory("T", ARITH1, _c("m1"), _ref("A"), meta=_ref("M"))
    # The same shapes under another base, so frames are shared.
    a2 = _theory("A", _c("a1"), ARITH1, base="um:/other")
    e = _theory("E", ARITH1, RELATION1, _c("k0"), base="um:/other")
    f = _theory("F", ARITH1, RELATION1, _c("k0"), _c("k1"), _c("plus"),
                base="um:/other")
    empty = _theory("Empty", meta=None)
    graph.add(a, b, c, d, m, t, a2, e, f, empty)
    for x in (a, b, c, d, m, t, a2, e, f, empty):
        assert isinstance(_agree(graph, x.name), dict), x.name
    _agree(graph, [c.name, b.name, d.name])
    _agree(graph, [t.name, m.name])
    # Theories registered after the scopes they read were kept.
    late = (_theory("U1", _c("u"), ARITH1, _c("plus"), _c("v", "1 ⊛ 2")),
            _theory("U2", RELATION1, _c("mapsto")),
            _theory("U3", meta=_ref("T")))
    graph.add(*late)
    for x in late:
        assert isinstance(_agree(graph, x.name), dict), x.name


def test_a_notation_ambiguity_raises_the_same_error():
    graph, _, _ = build_graph()
    x1 = _theory("X1", _c("x", "1 ⊗ 2 prec 20"))
    x2 = _theory("X2", _c("x", "1 ⊗ 2 prec 20"))
    y = _theory("Y", _c("y1", "⊘ 1 prec 5"), _c("y2", "⊘ 1 prec 5"))
    cases = [
        _theory("E1", ARITH1, _c("e", "1 + 2 prec 50")),
        _theory("E2", _c("e", "1 + 2 prec 50"), ARITH1),
        _theory("E3", ARITH1, _c("e", "1 → 2 prec 15")),
        _theory("E4", _ref("X1"), _ref("X2")),
        _theory("E5", _ref("X1"), _c("k"), _ref("X2")),
        _theory("E6", _ref("Y")),
        _theory("E7", ARITH1, _ref("Y"), _c("e", "1 + 2 prec 50")),
        _theory("E8", _c("e", "⊘ 1 prec 5"), _c("f", "⊘ 1 prec 5"),
                _c("g", "1 + 2 prec 50"), ARITH1),
        _theory("E9", _c("e", "1 ⊗ 2 prec 20"), _ref("X1"),
                _c("f", "1 ⊗ 2 prec 20")),
        _theory("E10", _ref("X1"), meta=_ref("X2")),
    ]
    graph.add(x1, x2, y, *cases)
    messages = set()
    for t in cases:
        kind, message = _agree(graph, t.name)
        assert kind.__name__ == "AmbiguityError"
        messages.add(message)
    assert messages == {
        "notations of arith1?plus and E1?e both match '+' at precedence 50",
        "notations of E2?e and arith1?plus both match '+' at precedence 50",
        "notations of E3?e and OpenMath?mapsto both match '→' at "
        "precedence 15",
        "notations of X1?x and X2?x both match '⊗' at precedence 20",
        "notations of Y?y1 and Y?y2 both match '⊘' at precedence 5",
        "notations of E8?e and E8?f both match '⊘' at precedence 5",
        "notations of E9?e and X1?x both match '⊗' at precedence 20"}
    # An unambiguous theory with the frame of an ambiguous one.
    graph.add(_theory("Fine", ARITH1, _c("k")))
    _agree(graph, _ref("Fine"))


def test_an_include_cycle_raises_the_same_error():
    graph = TheoryGraph()
    graph.add(_theory("P", _c("p"), _ref("Q")), _theory("Q", _ref("P")),
              _theory("R", _c("r"), _ref("P")),
              _theory("S", _ref("S")),
              _theory("Z", _ref("Missing")),
              View(_ref("V"), OPENMATH, OPENMATH),
              _theory("W", _ref("V")))
    messages = {}
    for name in ("P", "Q", "R", "S", "Z", "W"):
        kind, messages[name] = _agree(graph, _ref(name))
        assert kind.__name__ in ("IncludeCycleError",
                                 "UnresolvedModuleError")
    assert messages["R"] == ("include cycle: um:/ref?R -> um:/ref?P -> "
                             "um:/ref?Q -> um:/ref?P")
    assert messages["S"] == "include cycle: um:/ref?S -> um:/ref?S"
    _agree(graph, [_ref("Z"), _ref("P")])
    # Once the missing theory arrives, the scope builds.
    graph.add(_theory("Missing", _c("late")))
    assert isinstance(_agree(graph, _ref("Z")), dict)


def test_a_failing_frame_is_built_again_only_after_an_add():
    graph, _, _ = build_graph()
    e = _theory("E", _ref("X1"), _ref("X2"))
    graph.add(_theory("X1", _c("x", "1 ⊗ 2 prec 20")),
              _theory("X2", _c("x", "1 ⊗ 2 prec 20")), e)

    # A failure is not kept: each request builds the frame again, and
    # fails with the reference's error, before an add and after one.
    first = _agree(graph, e.name)
    assert first[0] is AmbiguityError
    graph.add(_theory("Other", _c("o")))
    assert _agree(graph, e.name) == first


def test_a_frame_that_reaches_its_theory_gives_its_scope():
    # K includes N, and is N's meta-theory: N's walk skips N under K, and a
    # theory with the same frame reads N's constants there.
    for first in ("N", "N2"):
        graph = TheoryGraph()
        graph.add(_theory("K", _c("k"), _ref("N"), meta=None),
                  _theory("N", _c("n"), meta=_ref("K")),
                  _theory("N2", _c("n"), meta=_ref("K")))
        order = ["N", "N2"] if first == "N" else ["N2", "N"]
        for name in order:
            assert isinstance(_agree(graph, _ref(name)), dict)
    # Meta chains that loop back.
    graph = TheoryGraph()
    graph.add(_theory("A", _c("a"), meta=_ref("B")),
              _theory("B", _c("b"), meta=_ref("A")),
              _theory("C", _c("c"), meta=_ref("C")))
    for name in "ABC":
        assert isinstance(_agree(graph, _ref(name)), dict)


def test_the_scope_in_two_is_the_scope(stdlib):
    for m in list(stdlib.modules.values()):
        if isinstance(m, Theory):
            walk, meta = stdlib._walked(m)
            assert (scope_tables(ParseScope(walk, meta))
                    == scope_tables(stdlib.scope_for(m.name)))


def test_theories_sharing_a_frame_share_its_notation_tables():
    graph, _, _ = build_graph()
    kept = graph._scopes.cache_info().currsize
    graph.add(*(_theory(f"I{i}", ARITH1, RELATION1,
                        *(_c(f"k{j}") for j in range(i % 4 + 1)))
                for i in range(10)))
    scopes = [graph.scope_for(_ref(f"I{i}")) for i in range(10)]
    assert all(s.led is scopes[0].led and s.lexer is scopes[0].lexer
               and s.delimiters is scopes[0].delimiters
               and s.binder_seps is scopes[0].binder_seps for s in scopes)
    # Ten theories' scopes and one frame's.
    assert graph._scopes.cache_info().currsize == kept + 11


def test_includes_first_theories_lay_over_a_kept_frame(monkeypatch):
    graph, _, _ = build_graph()
    # The shape of an ingested theory: two includes, then constants.
    graph.add(_theory("Ingest", ARITH1, RELATION1, _c("k0"), _c("k1")))
    theories = [m for m in graph.modules.values() if isinstance(m, Theory)]
    for t in theories:
        graph.scope_for(t.name)
    # A twin of each under another base: a theory not read yet, whose frame
    # is kept.
    twins = [Theory(_ref(t.name.module, "um:/twin"), meta=t.meta,
                    declarations=t.declarations) for t in theories]
    graph.add(*twins)

    def walked(self, t):
        raise AssertionError(f"{t.name} was walked")

    monkeypatch.setattr(TheoryGraph, "_walked", walked)
    for t in twins:
        before = graph._scopes.cache_info()
        graph.scope_for(t.name)
        after = graph._scopes.cache_info()
        # Its own scope is a miss; its frame's, a hit.
        assert (after.misses, after.hits) == (
            before.misses + 1, before.hits + 1), t.name


def test_a_theory_with_an_include_after_a_constant_has_no_frame():
    graph, _, _ = build_graph()
    t = _theory("CIC", _c("c0", "1 ⊞ 2 prec 30"), ARITH1, _c("c1"))
    graph.add(t)
    kept = graph._scopes.cache_info().currsize
    assert isinstance(_agree(graph, t.name), dict)
    # Its own scope, and no frame's.
    assert graph._scopes.cache_info().currsize == kept + 1


def test_kept_frames_are_bounded():
    graph = TheoryGraph()
    base = _theory("Base", _c("b"))
    graph.add(base, *(_theory(f"T{i}", *[_ref("Base")] * (i % 3 + 1),
                              _c("t"), meta=None if i % 2 else OPENMATH)
                      for i in range(6)))
    graph.add(*(_theory(f"L{i}", _ref(f"T{i % 6}"), _c(f"x{i}"))
                for i in range(SCOPE_CACHE_SIZE + 10)))
    for i in range(SCOPE_CACHE_SIZE + 10):
        _agree(graph, _ref(f"L{i}"), times=1)
    info = graph._scopes.cache_info()
    assert info.currsize <= SCOPE_CACHE_SIZE


def test_one_bounded_cache_keeps_a_shared_frame_under_churn(monkeypatch):
    # The shape of the ingest workload: many theories, each read once,
    # all with the includes of one frame.
    graph = TheoryGraph()
    cd = [_theory(name, _c(f"{name}_c"), base=CD)
          for name in ("arith1", "relation1")]
    n = SCOPE_CACHE_SIZE + 10
    graph.add(*cd, *(_theory(f"I{i}", ARITH1, RELATION1, _c(f"c{i}"))
                     for i in range(n)))

    def walked(self, t):
        raise AssertionError(f"{t.name} was walked")

    monkeypatch.setattr(TheoryGraph, "_walked", walked)
    for i in range(n):
        before = graph._scopes.cache_info()
        assert isinstance(_agree(graph, _ref(f"I{i}"), times=1), dict)
        after = graph._scopes.cache_info()
        # The theory's own scope misses; its frame is built on the first
        # read only.
        frame_hits = 0 if i == 0 else 1
        assert after.hits == before.hits + frame_hits, i
        assert after.misses == before.misses + 2 - frame_hits, i
    assert graph._scopes.cache_info().currsize <= SCOPE_CACHE_SIZE


# -- an open theory extends its scope one constant at a time -------------------

SHADOWING = """
document um:/surf
theory S : OpenMath
  include http://www.openmath.org/cd?arith1
  constant mapsto
  constant plus : mapsto
  constant dot # 1 ⊡ 2 prec 30
  constant uses : 1 ⊡ plus
  include http://www.openmath.org/cd?relation1
  constant after : eq
"""


def test_an_open_theory_reads_each_constant_in_the_scope_so_far():
    graph, _, _ = build_graph()
    parse_modules(graph, SHADOWING)
    s = graph.theory(ModuleRef("um:/surf", "S"))
    name = s.name.name
    # An own constant comes before the meta chain's, after the includes'
    # before it; each is read once declared, with its notation.
    assert s.constant("plus").type == Const(name("mapsto"))
    uses = s.constant("uses").type
    assert uses.head == Const(name("dot"))
    assert uses.args[1] == Const(ARITH1.name("plus"))
    assert s.constant("after").type == Const(RELATION1.name("eq"))


def test_an_ambiguous_constant_fails_at_its_line():
    cases = [
        ("  include http://www.openmath.org/cd?arith1\n"
         "  constant p # 1 + 2 prec 50\n  constant q\n",
         "4:0: notations of arith1?plus and T?p both match '+' at "
         "precedence 50"),
        # Against the meta chain, after an include that comes later.
        ("  constant p # 1 → 2 prec 15\n  constant q\n"
         "  include http://www.openmath.org/cd?arith1\n",
         "3:0: notations of T?p and OpenMath?mapsto both match '→' at "
         "precedence 15"),
        # The last constant of a block, against the one before.
        ("  constant a # 1 ⊕ 2 prec 50\n  constant b # 1 ⊕ 2 prec 50\n",
         "4:0: notations of T?a and T?b both match '⊕' at precedence 50"),
        # The last constant of a block, against the meta chain.
        ("  constant a\n  constant p # 1 → 2 prec 15\n",
         "4:0: notations of T?p and OpenMath?mapsto both match '→' at "
         "precedence 15"),
    ]
    for body, message in cases:
        graph, _, _ = build_graph()
        with pytest.raises(SurfaceError) as e:
            parse_modules(graph, f"document um:/amb\ntheory T : OpenMath\n"
                          f"{body}", "amb.mmt")
        assert str(e.value) == f"amb.mmt:{message}"
        assert ModuleRef("um:/amb", "T") not in graph.modules


def test_a_block_of_constants_builds_its_theory_once(monkeypatch):
    built = []
    original = Theory.__post_init__

    def counted(self):
        built.append(self.name)
        original(self)

    monkeypatch.setattr(Theory, "__post_init__", counted)
    graph = TheoryGraph()
    text = "theory Big : OpenMath\n" + "".join(
        f"  constant c{i} : Object\n" for i in range(2000))
    parse_modules(graph, text)
    assert len(graph.theory(ModuleRef("um:/local", "Big")).declarations) \
        == 2000
    # The header, the walk its first constant reads, and the whole block.
    assert len(built) <= 3


def test_loading_the_stdlib_builds_each_scope_and_flattens_each_module_once(
        monkeypatch):
    calls = {"scope_for": [], "_walked": [], "flatten": []}
    for method in calls:
        original = getattr(TheoryGraph, method)

        def counted(self, arg, _original=original, _method=method):
            calls[_method].append(getattr(arg, "name", arg))
            return _original(self, arg)

        monkeypatch.setattr(TheoryGraph, method, counted)
    graph, _, _ = build_graph()
    modules = len(graph.modules)
    for method, args in calls.items():
        assert len(args) <= modules, method
    # At most one walk per theory block, whatever its number of constants.
    assert len(calls["_walked"]) == len(set(calls["_walked"]))
    # One flattened domain per view block, whatever its assignments.
    assert len(calls["flatten"]) == len(
        [m for m in graph.modules.values() if isinstance(m, View)
         and m.statements])
