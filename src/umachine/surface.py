"""Line-oriented surface syntax for modules (``.mmt`` files).

::

    document <base-uri>
    theory <Name> [: <Ref>]
      include <Ref>
      constant <name> [: <expr>] [= <expr> | = "<escaped>"] [# <notation>]
    view <Name> : <Ref> -> <Ref>
      include <ViewRef>
      constant <name> = <expr> | = [(<param>: <TypeName>, ...)] "<escaped>"
    alias <name> = <Ref>

``<Ref>`` is a bare module name (resolved in-document, then against loaded
documents) or a full ``base?module`` URI.  Escaped bodies are double-quoted
with ``\\"`` and ``\\\\`` escapes and may span lines; their byte spans are
recorded so build processes can splice edits back in place.  Lines starting
with ``//`` are comments.

Each statement of a ``theory`` or ``view`` block is checked at its own line;
the module is built once, and registered whole, when the next ``document``,
``theory``, ``view`` or ``alias`` line or the end of the text closes it.  A
block that fails registers nothing, so the fixed text parses again.  An open
theory's constant parses in the scope so far (a block cannot include
itself), and its notation may not clash with that scope; a clash among the
includes alone surfaces only when a later constant or a request needs it.
"""

from __future__ import annotations

import re

from .graph import (CMP_LAMBDA, Assignment, Constant, Include, SourcePos,
                    Theory, TheoryGraph, View, check_declared)
from .notation import ParseScope, lex_string, parse_notation, parse_term
from .terms import Bind, Const, Foreign, ModuleRef


class SurfaceError(ValueError):
    def __init__(self, message: str, file: str, line: int, col: int = 0):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.file, self.line, self.col = file, line, col


_DEFAULT_BASE = "um:/local"

_THEORY_RE = re.compile(r"^theory\s+(\S+)\s*(?::\s*(.+?)\s*)?$")
_VIEW_RE = re.compile(r"^view\s+(\S+)\s*:\s*(.+?)\s*->\s*(.+?)\s*$")
_ALIAS_RE = re.compile(r"^alias\s+(\S+)\s*=\s*(.+?)\s*$")
# A view's escaped body: an optional parameter list, then the opening quote
# at the match's end.
_SNIPPET_RE = re.compile(r'\s*(?:\(([^()]*)\)\s*)?(?=")')


def _logical_lines(text: str):
    """Yield (absolute_offset, line_number, content); a line with an open
    quoted literal extends over following physical lines until it closes,
    except a ``//`` comment, which ends at its newline."""
    lines = text.splitlines(keepends=True)
    start = i = 0
    while i < len(lines):
        lineno = i + 1
        chunk = lines[i]
        while (not chunk.lstrip().startswith("//") and _open_quote(chunk)
               and i + 1 < len(lines)):
            i += 1
            chunk += lines[i]
        yield start, lineno, chunk.rstrip("\n")
        start += len(chunk)
        i += 1


# Text outside quotes and closed quoted literals, with their escapes.
_CLOSED_QUOTES_RE = re.compile(r'[^"]*(?:"[^"\\]*(?:\\.[^"\\]*)*"[^"]*)*',
                               re.S)


def _open_quote(s: str) -> bool:
    return _CLOSED_QUOTES_RE.match(s).end() < len(s)


def _split_markers(s: str, err) -> tuple[str, dict]:
    """A constant's name, and the ``(start, end)`` span in ``s`` of each of
    its parts by marker: ``:`` the type, which runs to the next marker;
    ``=`` the definiens, which runs to ``#`` or the end; ``#`` the
    notation, which runs to the end.  A marker is a top-level ``:``, ``=``
    or ``#`` outside quotes and brackets, met in that order."""
    marks = {}
    depth = 0
    i = 0
    while i < len(s):
        c = s[i]
        if c == '"':
            _, i = lex_string(s, i, err)
            continue
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif depth == 0 and c == "#":
            marks["#"] = i
            break  # notation runs to end of line
        elif depth == 0 and c == "=" and "=" not in marks:
            # Not part of an operator like => or == inside an expression;
            # a definiens marker is a lone '='.
            prev = s[i - 1] if i > 0 else " "
            nxt = s[i + 1] if i + 1 < len(s) else " "
            if prev not in "<>=!" and nxt != "=":
                marks["="] = i
        elif depth == 0 and c == ":" and not marks:
            marks[":"] = i
        i += 1
    # Markers are met in order, so each part runs to the next one.
    at = [*marks.values(), len(s)]
    return s[:at[0]].strip(), {k: (at[n] + 1, at[n + 1])
                               for n, k in enumerate(marks)}


class _ModuleParser:
    def __init__(self, graph: TheoryGraph, text: str, filename: str):
        self.graph = graph
        self.text = text
        self.filename = filename
        self.base = _DEFAULT_BASE
        self.added: list[ModuleRef] = []
        self._open(None)

    def error(self, message: str, line: int, col: int = 0) -> SurfaceError:
        return SurfaceError(message, self.filename, line, col)

    def parse(self) -> list[ModuleRef]:
        for start, lineno, raw in _logical_lines(self.text):
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            head = line.split(None, 1)[0]
            try:
                if head in ("document", "theory", "view", "alias"):
                    self._close()
                if head == "document":
                    self.base = self._argument(line, "a base URI", lineno)
                elif head == "theory":
                    self._theory_header(line, lineno)
                elif head == "view":
                    self._view_header(line, lineno)
                elif head == "alias":
                    self._alias(line, lineno)
                elif head == "include":
                    self._include(line, lineno)
                elif head == "constant":
                    self._constant(raw, start, lineno)
                else:
                    raise self.error(f"unknown statement {head!r}", lineno)
            except SurfaceError:
                raise
            except Exception as e:
                raise self.error(str(e), lineno) from e
        self._close()
        return self.added

    def _argument(self, line: str, what: str, lineno: int) -> str:
        words = line.split(None, 1)
        if len(words) < 2:
            raise self.error(f"{words[0]} needs {what}", lineno)
        return words[1].strip()

    # -- blocks ----------------------------------------------------------

    def _open(self, block: Theory | View | None):
        """Make ``block``, a header with no statements, the open one."""
        self.current = block
        # Its statements so far and their names; then, each built when first
        # needed, an open theory's walk so far as a scope, its meta chain's
        # pairs (``TheoryGraph._walked``) and the scope of both, built again
        # after an include, and an open view's domain names.
        self.statements: list = []
        self.names: set[str] = set()
        self.walked: ParseScope | None = None
        self.meta: list = []
        self.scope: ParseScope | None = None
        self.declared: set[str] | None = None

    def _close(self):
        """Build and register the open block, if any."""
        b = self.current
        if b is not None:
            s = tuple(self.statements)
            self.graph.add(Theory(b.name, b.meta, s, b.pos)
                           if isinstance(b, Theory) else
                           View(b.name, b.domain, b.codomain, s, b.pos))
            self.added.append(b.name)
            self._open(None)

    def _theory_header(self, line: str, lineno: int):
        m = _THEORY_RE.match(line)
        if not m:
            raise self.error("bad theory header", lineno)
        name, meta = m.group(1), m.group(2)
        ref = ModuleRef(self.base, name)
        meta_ref = self.graph.resolve(meta, self.base) if meta else None
        self.graph.check_new(ref)
        self._open(Theory(ref, meta=meta_ref,
                          pos=SourcePos(self.filename, lineno)))

    def _view_header(self, line: str, lineno: int):
        m = _VIEW_RE.match(line)
        if not m:
            raise self.error("bad view header", lineno)
        name, dom, cod = m.groups()
        ref = ModuleRef(self.base, name)
        domain = self.graph.resolve(dom, self.base)
        codomain = self.graph.resolve(cod, self.base)
        self.graph.check_new(ref)
        self._open(View(ref, domain=domain, codomain=codomain,
                        pos=SourcePos(self.filename, lineno)))

    def _alias(self, line: str, lineno: int):
        m = _ALIAS_RE.match(line)
        if not m:
            raise self.error("bad alias", lineno)
        self.graph.add_alias(m.group(1), self.graph.resolve(m.group(2), self.base))

    def _include(self, line: str, lineno: int):
        target = self._argument(line, "a module", lineno)
        if self.current is None:
            raise self.error("include outside a module", lineno)
        ref = self.graph.resolve(target, self.base)
        # A theory includes theories and a view views; fail at this line.
        if isinstance(self.current, View):
            self.graph.view(ref)
        else:
            self.graph.theory(ref)
            self.walked = None  # the walk changes: build it again
        self.statements.append(Include(ref, SourcePos(self.filename, lineno)))

    # -- constants ---------------------------------------------------------

    def _constant(self, raw: str, start: int, lineno: int):
        line = raw.strip()
        indent = len(raw) - len(raw.lstrip())
        rest = line.split(None, 1)
        if len(rest) < 2:
            raise self.error("constant needs a name", lineno)
        body = rest[1]
        body_off = start + indent + (len(line) - len(body))

        def err(msg, i):
            return self.error(msg, lineno + body[:i].count("\n"))

        name, parts = _split_markers(body, err)
        if not name:
            raise self.error("constant needs a name", lineno)
        if isinstance(self.current, Theory):
            self._theory_constant(name, body, lineno, parts)
        elif isinstance(self.current, View):
            if parts.keys() != {"="}:
                raise self.error("a view constant takes exactly '= <body>'",
                                 lineno)
            self._view_constant(name, body, body_off, lineno, parts["="])
        else:
            raise self.error("constant outside a module", lineno)

    def _theory_constant(self, name, body, lineno, parts):
        t = self.current
        check_declared(t.name, self.names, name, "constant")
        if self.walked is None:
            walk, self.meta = self.graph._walked(
                Theory(t.name, t.meta, tuple(self.statements)))
            self.walked = ParseScope(walk)
            self.scope = ParseScope(self.walked, self.meta)
        text = {k: body[a:b].strip() for k, (a, b) in parts.items()}
        ctype = cdef = notation = None
        if ":" in text:
            ctype = parse_term(text[":"], self.scope)
        if "=" in text:
            if text["="].startswith('"'):
                content, _ = lex_string(text["="], 0,
                                        lambda m, i: self.error(m, lineno))
                cdef = Foreign("native", content)
            else:
                cdef = parse_term(text["="], self.scope)
        if "#" in text:
            notation = parse_notation(text["#"])
        self.statements.append(Constant(name, type=ctype, definiens=cdef,
                                        notation=notation,
                                        pos=SourcePos(self.filename, lineno)))
        # Laid over the walk at once, so that a notation clashing with the
        # scope so far fails at this line.
        self.walked = ParseScope(self.walked, [(t.name.name(name), notation)])
        self.scope = ParseScope(self.walked, self.meta)

    def _view_constant(self, name, body, body_off, lineno, span):
        view = self.current
        if self.declared is None:
            self.declared = {c.name for _, c in self.graph.flatten(view.domain)}
        if name not in self.declared:
            raise self.error(
                f"view {view.name.module} assigns {name!r}, which is not "
                f"declared in {view.domain}", lineno)
        check_declared(view.name, self.names, name, "assignment")
        m = _SNIPPET_RE.match(body, *span)
        snippet = None
        if m is None:
            target = parse_term(body[span[0]:span[1]].strip(),
                                self.graph.scope_for(view.codomain))
        else:
            plist = (m[1] or "").strip()
            params = [p.split(":", 1)[0].strip()
                      for p in plist.split(",")] if plist else []
            if not all(params):
                raise self.error("bad parameter list", lineno)
            content, end = lex_string(body, m.end(),
                                      lambda m_, i: self.error(m_, lineno))
            target = Foreign("native", content)
            if params:
                target = Bind(Const(CMP_LAMBDA), tuple(params), target)
            snippet = (self.filename, body_off + m.end(), body_off + end)
        pos = SourcePos(self.filename, lineno)
        self.statements.append(Assignment(name, target, snippet, pos))


def parse_modules(graph: TheoryGraph, text: str, filename: str = "<input>") \
        -> list[ModuleRef]:
    """Parse surface-syntax modules into the graph; returns the new refs."""
    return _ModuleParser(graph, text, filename).parse()
