"""Theories, views, includes, flattening, morphism application, pushouts.

The graph holds named modules (theories and views).  Two theories are always
present: ``OpenMath`` (the meta-theory of content dictionaries, declaring the
type formers) and ``Computation`` (the native target, declaring the shapes
realizations map types into).  A constant reference resolves in its theory,
the theory's includes, then the meta-theory chain; a view assigns a name by
its own statements first, then its included views in order, first hit wins.
Modules are values: each is built whole, with its declarations in a tuple,
and registered once.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

from .notation import (AmbiguityError, Arg, Delim, Notation, ParseScope,
                       SeqArg)
from .terms import Bind, Const, Foreign, GlobalName, ModuleRef, Term, rebuild


# Scopes a graph keeps, of theories and of frames (see
# ``TheoryGraph.scope_for``): a stated memory budget.
SCOPE_CACHE_SIZE = 64


class GraphError(Exception):
    pass


class UnresolvedModuleError(GraphError):
    pass


class DuplicateModuleError(GraphError):
    pass


class IncludeCycleError(GraphError):
    pass


class MorphismError(GraphError):
    pass


@dataclass(frozen=True, slots=True)
class SourcePos:
    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass(frozen=True, slots=True)
class Constant:
    name: str
    type: Term | None = None
    definiens: Term | None = None
    notation: Notation | None = None
    pos: SourcePos | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("a constant needs a nonempty name")


@dataclass(frozen=True, slots=True)
class Include:
    target: ModuleRef
    pos: SourcePos | None = None


def _body(module, items, kind: str, of_kind: type) -> tuple:
    """``items`` as a tuple, with the module's name and each ``of_kind``
    name checked in turn (``check_declared``)."""
    items = tuple(items)
    _check_name(module.name.module)
    seen: set[str] = set()
    for d in items:
        if isinstance(d, of_kind):
            check_declared(module.name, seen, d.name, kind)
    return items


def check_declared(module: ModuleRef, seen: set, name: str, kind: str):
    """Refuse ``name`` as a new ``kind`` of ``module`` if it is in ``seen``
    or has a ``?`` (``_check_name``); else add it to ``seen``."""
    if name in seen:
        raise DuplicateModuleError(f"duplicate {kind} {name} in {module}")
    _check_name(name)
    seen.add(name)


def _check_name(name: str) -> None:
    """Refuse a name with a ``?``: a reference splits at its last ``?``, so
    no reference could reach it."""
    if "?" in name:
        raise ValueError(f"a name may not contain '?': {name!r}")


@dataclass(frozen=True, slots=True)
class Theory:
    """A value; no two of its constants share a name."""

    name: ModuleRef
    meta: ModuleRef | None = None
    declarations: tuple = ()
    pos: SourcePos | None = None

    def __post_init__(self):
        object.__setattr__(self, "declarations", _body(
            self, self.declarations, "constant", Constant))

    def constants(self):
        return [d for d in self.declarations if isinstance(d, Constant)]

    def includes(self):
        return [d for d in self.declarations if isinstance(d, Include)]

    def constant(self, name: str) -> Constant | None:
        for d in self.declarations:
            if isinstance(d, Constant) and d.name == name:
                return d
        return None


@dataclass(frozen=True, slots=True)
class Assignment:
    name: str
    target: Term
    # Span of the escaped snippet literal in the source file (for integrate).
    snippet_span: tuple[str, int, int] | None = None
    pos: SourcePos | None = None


@dataclass(frozen=True, slots=True)
class View:
    """A value; no two of its assignments share a name."""

    name: ModuleRef
    domain: ModuleRef
    codomain: ModuleRef
    statements: tuple = ()
    pos: SourcePos | None = None

    def __post_init__(self):
        object.__setattr__(self, "statements", _body(
            self, self.statements, "assignment", Assignment))

    def includes(self):
        return [s for s in self.statements if isinstance(s, Include)]

    def assignment(self, name: str) -> Assignment | None:
        for s in self.statements:
            if isinstance(s, Assignment) and s.name == name:
                return s
        return None


def snippet_body(t: Term) -> Foreign | None:
    """The escaped payload of an assignment, unwrapping a parameter binder."""
    if isinstance(t, Foreign):
        return t
    if isinstance(t, Bind) and isinstance(t.scope, Foreign):
        return t.scope
    return None


def snippet_is_stub(t: Term) -> bool:
    """An escaped assignment whose body is empty is a stub awaiting code."""
    f = snippet_body(t)
    return f is not None and f.content.strip() == ""


# ---------------------------------------------------------------------------
# Built-in theories

BUILTIN_BASE = "urn:um:builtin"
OPENMATH_CD_BASE = "http://www.openmath.org/cd"
LISTS_DOC_BASE = "http://cds.omdoc.org/unsorted/uom.omdoc"

OPENMATH = ModuleRef(BUILTIN_BASE, "OpenMath")
COMPUTATION = ModuleRef(BUILTIN_BASE, "Computation")

OM_MAPSTO = OPENMATH.name("mapsto")
OM_OBJECT = OPENMATH.name("Object")
OM_NARYOBJECT = OPENMATH.name("naryObject")
OM_BINDER = OPENMATH.name("binder")
OM_FMP = OPENMATH.name("FMP")

CMP_ANY = COMPUTATION.name("Any")
CMP_FUNCTION = COMPUTATION.name("Function")
CMP_LAMBDA = COMPUTATION.name("Lambda")
CMP_LIST = COMPUTATION.name("List")
CMP_TERM = COMPUTATION.name("Term")
CMP_CONTEXT = COMPUTATION.name("Context")


# Values, so every graph shares them.
_BUILTINS = (
    Theory(OPENMATH, declarations=(
        Constant("mapsto", notation=Notation(
            (SeqArg(1, "×"), Delim("→"), Arg(2)), precedence=15)),
        *map(Constant, ("Object", "naryObject", "binder", "FMP")))),
    Theory(COMPUTATION, declarations=(
        *map(Constant, ("type", "Any", "Function", "Lambda")),
        Constant("List", notation=Notation(
            (Delim("List["), Arg(1), Delim("]")))),
        Constant("list", notation=Notation(
            (Delim("List("), SeqArg(1, ","), Delim(")")))),
        *map(Constant, ("Term", "Context", "Integer", "Double", "Boolean",
                        "String")))),
)


# ---------------------------------------------------------------------------


def _pairs(flat: list) -> list:
    """Flattened constants as ``(GlobalName, Notation | None)`` pairs."""
    return [(g, c.notation) for g, c in flat]


class _Run:
    """A run of a theory's constants, iterated as ``(GlobalName, Notation |
    None)`` pairs; the names are made each time, as a scope reads them."""

    __slots__ = ("ref", "constants")

    def __init__(self, ref: ModuleRef, constants: list):
        self.ref = ref
        self.constants = constants

    def __iter__(self):
        name = self.ref.name
        return ((name(c.name), c.notation) for c in self.constants)


def _frame(t: Theory) -> tuple[tuple, _Run, bool] | None:
    """``t``'s frame, which is what its scope takes from other modules; its
    constants; and whether any of them has a notation.  A frame is ``t``'s
    meta-theory and the targets of its includes, and only a theory whose
    includes all come before its constants has one: None for any other."""
    targets: list = []
    constants: list = []
    noted = False
    for d in t.declarations:
        if d.__class__ is Include:
            if constants:
                return None
            targets.append(d.target)
        else:
            constants.append(d)
            noted = noted or d.notation is not None
    return (t.meta, tuple(targets)), _Run(t.name, constants), noted


def _map_constants(t: Term, f) -> Term:
    """``t`` with every constant ``x`` replaced by ``f(x)``."""
    return rebuild(t, lambda x: f(x) if isinstance(x, Const) else x)


class TheoryGraph:
    """Modules by ref, and aliases.  ``add``, the only way in, registers
    whole modules; one writer at a time, any number of readers."""

    def __init__(self):
        self.modules: dict[ModuleRef, object] = {}
        self.aliases: dict[str, ModuleRef] = {}
        # Bare module name -> refs carrying it, in registration order.
        self._by_name: dict[str, tuple[ModuleRef, ...]] = {}
        # Theory ref -> its scope, and frame -> its scopes (see ``_frame``),
        # at most ``SCOPE_CACHE_SIZE`` of them, least recently used out
        # first.  A module is a value, so they never go stale; an error is
        # not kept, so it is raised again.
        self._scopes = functools.lru_cache(maxsize=SCOPE_CACHE_SIZE)(
            self._scope)
        self.add(*_BUILTINS)

    # -- registration -------------------------------------------------------

    def check_new(self, *refs: ModuleRef) -> None:
        """Refuse a ref already registered or repeated among ``refs``."""
        batch: set[ModuleRef] = set()
        for ref in refs:
            if ref in self.modules or ref in batch:
                raise DuplicateModuleError(f"module {ref} already loaded")
            batch.add(ref)

    def add(self, *modules) -> None:
        """Register whole theories and views: every name is checked, against
        the graph and within the batch, before any module is registered."""
        self.check_new(*(m.name for m in modules))
        for m in modules:
            self.modules[m.name] = m
            name = m.name.module
            self._by_name[name] = self._by_name.get(name, ()) + (m.name,)

    def add_alias(self, name: str, target: ModuleRef):
        _check_name(name)
        self.aliases[name] = target

    # -- resolution ----------------------------------------------------------

    def resolve(self, ref: str, default_base: str | None = None) -> ModuleRef:
        """Resolve ``base?module`` or a bare module name against the graph."""
        ref = ref.strip()
        if "?" in ref:
            base, module = ref.rsplit("?", 1)
            try:
                mref = ModuleRef(base, module)
            except ValueError:  # a base ``urlsplit`` refuses names none
                raise UnresolvedModuleError(f"unknown module {ref}") from None
            if mref not in self.modules:
                raise UnresolvedModuleError(f"unknown module {mref}")
            return mref
        if default_base is not None:
            mref = ModuleRef(default_base, ref)
            if mref in self.modules:
                return mref
        if ref in self.aliases:
            return self.aliases[ref]
        hits = self._by_name.get(ref, ())
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise UnresolvedModuleError(f"unknown module {ref!r}")
        raise UnresolvedModuleError(
            f"ambiguous module {ref!r}: " + ", ".join(str(h) for h in hits))

    def theory(self, ref: ModuleRef) -> Theory:
        m = self.modules.get(ref)
        if m is None:
            raise UnresolvedModuleError(f"unknown module {ref}")
        if not isinstance(m, Theory):
            raise UnresolvedModuleError(f"{ref} is a view, not a theory")
        return m

    def view(self, ref: ModuleRef) -> View:
        m = self.modules.get(ref)
        if m is None:
            raise UnresolvedModuleError(f"unknown module {ref}")
        if not isinstance(m, View):
            raise UnresolvedModuleError(f"{ref} is a theory, not a view")
        return m

    def views(self):
        return [m for m in self.modules.values() if isinstance(m, View)]

    # -- flattening ----------------------------------------------------------

    def flatten(self, ref: ModuleRef) -> list[tuple[GlobalName, Constant]]:
        """Depth-first include expansion; a repeated include is a no-op."""
        out: list[tuple[GlobalName, Constant]] = []
        self._flatten(self.theory(ref), out, {})
        return out

    def _flatten(self, t: Theory, out: list, walking: dict):
        """Append the constants of ``t`` and of its includes to ``out``, depth
        first.  ``walking`` maps each module met to ``True`` while it is
        under way and to ``False`` once walked; a walked one is skipped."""
        if t.name in walking:
            return
        walking[t.name] = True
        # The modules under way, each with its declarations still to walk.
        stack = [(t.name, iter(t.declarations))]
        while stack:
            r, decls = stack[-1]
            for d in decls:
                if not isinstance(d, Include):
                    out.append((r.name(d.name), d))
                    continue
                u = self.theory(d.target)
                under_way = walking.get(u.name)
                if under_way:
                    cycle = " -> ".join(str(s) for s, _ in stack)
                    raise IncludeCycleError(
                        f"include cycle: {cycle} -> {u.name}")
                if under_way is None:
                    walking[u.name] = True
                    stack.append((u.name, iter(u.declarations)))
                    break
            else:
                walking[r] = False
                stack.pop()

    def lookup(self, g: GlobalName) -> Constant | None:
        m = self.modules.get(g.module_ref)
        if isinstance(m, Theory):
            return m.constant(g.name)
        return None

    # -- scopes ---------------------------------------------------------------

    def scope_for(self, ref: ModuleRef) -> ParseScope:
        """A parse scope over one theory: its flattened constants, then
        those of its meta-theory chain.  The scope over several theories is
        theirs composed, ``ParseScope(*map(graph.scope_for, refs))``.

        One walk of the include graph: a module already walked is skipped,
        so each constant appears once, at its first occurrence.  A
        meta-theory cycle ends the chain; an include cycle raises
        ``IncludeCycleError``.

        Kept, with the scopes of frames, in one cache of
        ``SCOPE_CACHE_SIZE``.  A theory whose includes all come before its
        constants lays those constants over its frame's scope tables (see
        ``_frame``), read through the same cache, and only their notations
        make new notation tables.  Any other theory, and one whose frame
        fails to build, is walked whole, so that it fails as that walk
        meets the fault.
        """
        return self._scopes(ref)

    def _scope(self, key: ModuleRef | tuple):
        """What the cache keeps for ``key``: a theory's scope, or a frame's
        scopes (``_frame_scopes``)."""
        if key.__class__ is not ModuleRef:
            return self._frame_scopes(key)
        t = self.theory(key)
        framed = _frame(t)
        if framed is None:
            return ParseScope(*self._walked(t))
        frame, run, noted = framed
        try:
            included, meta, joined = self._scopes(frame)
        except (GraphError, AmbiguityError):
            return ParseScope(*self._walked(t))
        # A frame reaches ``t`` itself only through an include cycle, which
        # fails it, or through the meta chain, where ``t``'s constants, met
        # again, add nothing.
        return ParseScope(included, run, meta,
                          notations=None if noted else joined)

    def _walked(self, t: Theory) -> tuple[list, list]:
        """The ``(GlobalName, Notation | None)`` pairs of ``t``'s walk and
        of its meta chain's, in one walk (see ``_flatten``)."""
        walking: dict[ModuleRef, bool] = {}
        walk: list = []
        meta: list = []
        self._flatten(t, walk, walking)
        self._flatten_meta(t.meta, meta, walking, {t.name})
        return _pairs(walk), _pairs(meta)

    def _flatten_meta(self, ref: ModuleRef | None, out: list, walking: dict,
                      chain: set) -> None:
        """``_flatten`` each theory of the meta chain from ``ref`` on, up to
        one in ``chain``, which collects them."""
        while ref is not None and ref not in chain:
            chain.add(ref)
            m = self.theory(ref)
            self._flatten(m, out, walking)
            ref = m.meta

    def _frame_scopes(self, frame: tuple) \
            -> tuple[ParseScope, ParseScope, ParseScope]:
        """The scopes of ``frame``'s includes and of its meta chain, and the
        scope of both: the walk of a theory with the frame and no constants
        of its own."""
        meta_ref, targets = frame
        walking: dict[ModuleRef, bool] = {}
        out: list = []
        for ref in targets:
            self._flatten(self.theory(ref), out, walking)
        included = ParseScope(_pairs(out))
        out = []
        self._flatten_meta(meta_ref, out, walking, set())
        meta = ParseScope(_pairs(out))
        return included, meta, ParseScope(included, meta)

    # -- views ----------------------------------------------------------------

    def assignments(self, vref: ModuleRef) \
            -> dict[GlobalName, tuple[ModuleRef, Assignment]]:
        """What ``vref`` assigns to each name, with the view providing it.

        One walk: a view's own statements first, then its included views in
        include order; the first hit wins, and a view reached twice is read
        once.  Each view assigns only names of its own flattened domain.
        """
        table: dict[GlobalName, tuple[ModuleRef, Assignment]] = {}
        seen: set[ModuleRef] = set()
        todo = [vref]  # a stack, so included views are read depth first
        while todo:
            ref = todo.pop()
            if ref in seen:
                continue
            seen.add(ref)
            v = self.view(ref)
            own = {s.name: s for s in v.statements
                   if isinstance(s, Assignment)}
            for g, c in self.flatten(v.domain):
                if c.name in own and g not in table:
                    table[g] = (ref, own[c.name])
            todo.extend(reversed([i.target for i in v.includes()]))
        return table

    def check_view(self, vref: ModuleRef) -> list[GlobalName]:
        """Names of definiens-less domain constants without a real assignment.

        An escaped assignment whose body is empty is a stub, not an
        assignment.
        """
        table = self.assignments(vref)
        return [g for g, c in self.flatten(self.view(vref).domain)
                if c.definiens is None
                and (g not in table or snippet_is_stub(table[g][1].target))]

    def apply_morphism(self, vref: ModuleRef, t: Term) -> Term:
        """Homomorphic replacement of constants by their view assignments.

        Constants the view does not assign fall back to their definiens
        (translated recursively); anything else is an error.
        """
        return self.morphism(vref)(t)

    def morphism(self, vref: ModuleRef) -> Callable[[Term], Term]:
        """``apply_morphism`` along ``vref`` as a function, with the view's
        assignment table built once for every term it is applied to."""
        table = self.assignments(vref)
        return lambda t: self._translate(vref, table, t, 0)

    def _translate(self, vref: ModuleRef, table: dict, t: Term,
                   depth: int) -> Term:
        if depth > 100:
            raise MorphismError("definiens expansion does not terminate")

        def assign(x: Const) -> Term:
            hit = table.get(x.head)
            if hit is not None:
                return hit[1].target
            c = self.lookup(x.head)
            if c is not None and c.definiens is not None:
                return self._translate(vref, table, c.definiens, depth + 1)
            raise MorphismError(f"no assignment for {x.head} in view {vref}")

        return _map_constants(t, assign)

    def pushout(self, vref: ModuleRef, tref: ModuleRef) -> Theory:
        """The canonical translation of ``tref`` along ``vref``.

        Requires the theory's meta-theory to equal the view's domain.  The
        result declares the flattened constants under the new module name,
        with types and definientia translated; constants of the theory itself
        are fixed (they name the result's own constants); any other constant
        is translated as ``apply_morphism`` translates it, definiens fallback
        included.
        """
        v = self.view(vref)
        t = self.theory(tref)
        if t.meta != v.domain:
            raise MorphismError(
                f"pushout needs meta-theory {v.domain}, got {t.meta}")
        flat = self.flatten(tref)
        new_ref = ModuleRef(tref.base, f"{v.name.module}_{tref.module}")
        fixed = {g: Const(new_ref.name(c.name)) for g, c in flat}
        along = self.morphism(vref)

        def assign(x: Const) -> Term:
            hit = fixed.get(x.head)
            return along(x) if hit is None else hit

        def translate(term: Term | None) -> Term | None:
            return None if term is None else _map_constants(term, assign)

        return Theory(new_ref, meta=v.codomain, declarations=(
            Constant(c.name, type=translate(c.type),
                     definiens=translate(c.definiens), notation=c.notation)
            for _, c in flat))
