"""HTTP simplification service.

The server speaks HTTP/1.1 and keeps connections alive: a client may send
any number of requests over one connection, each answered in turn.  A
connection that sends nothing for ``IDLE_TIMEOUT_S`` seconds is closed.

Endpoints:
  POST /simplify?scope=<theory-ref>&fuel=<n>  — body is a term, either
      ``text/plain`` in notation syntax (scope required) or
      ``application/openmath+xml``; the response mirrors the request format
      and carries ``X-Simplify-Steps`` and ``X-Simplify-Exhausted`` headers.
      200 success, 400 parse error or bad fuel, 404 unknown scope or one
      whose notations are ambiguous, 413 result integer too long to render,
      term nested too deeply or term too large, 422 fuel exhausted (partial
      result in the body).
  POST /theories  — ingest an OMDoc document; theories become available as
      scopes; no rules are gained.  201 ingested, 400 subset violation,
      409 name collision (nothing registered), 413 nested too deeply.
  GET /theories   — loaded module URIs, one per line.
  GET /health     — "ok".

GET and POST on any path: 404 unknown path, 400 malformed or negative
``Content-Length``, 411 body without ``Content-Length`` (chunked), 413 body
over ``MAX_BODY_BYTES``, 500 internal error.
The standard library's request parser answers 400, 414, 431 and 505 for
malformed requests and 501 for other methods.  After 411, the 413 for an
oversized body, a bad ``Content-Length``, 500 and the parser's replies the
server closes the connection; after any other reply it keeps the connection
open.

Scopes: a served graph only grows.  A registered module never changes, and
``POST /theories`` registers all of a document's theories or none; an
include names a resolved module.  So a theory's parse scope never changes
once it builds, and a ``Service`` caches the scopes it builds, at most
``SCOPE_CACHE_SIZE`` of them (least recently used out first): a stated
memory budget.  The ``scope`` parameter is resolved on every request, since
a bare name can become ambiguous as modules arrive, and a scope that fails
to build is not cached, so it is built again on the next request.

An integer literal longer than ``sys.get_int_max_str_digits()`` digits is a
400 on input; ``power`` and ``factorial`` decline a result that long.
"Nested too deeply" is an input with more than ``MAX_TERM_DEPTH`` levels
nested (see ``terms``), or a rule that runs out of stack
(``RecursionError``); "term too large" is a rule that runs out of memory
(``MemoryError``).  Both keep the connection open.  No walk of the server's
own recurses along a term, so the answer does not depend on the interpreter
or its recursion limit.
``Service.simplify_request`` also answers ``um simplify`` and ``um repl``,
which map its status to an exit code.  A ``Service`` refuses a default fuel
outside ``1..MAX_FUEL``.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .graph import (DuplicateModuleError, GraphError, TheoryGraph,
                    UnresolvedModuleError)
from .machine import (DEFAULT_FUEL, MAX_FUEL,  # noqa: F401 (re-exported)
                      RuleBase, SimplifyBudget, simplify)
from .notation import AmbiguityError, parse_term, render_term
from .omdoc import OmdocError, ingest_omdoc
from .omxml import XmlDecodeError, decode_xml, encode_xml
from .terms import (MAX_TERM_DEPTH,  # noqa: F401 (re-exported)
                    TermTooDeepError)

TEXT = "text/plain; charset=utf-8"
OMXML = "application/openmath+xml"

MAX_BODY_BYTES = 1 << 20
IDLE_TIMEOUT_S = 30
SCOPE_CACHE_SIZE = 64


@dataclass
class Response:
    status: int
    body: str
    content_type: str = TEXT
    headers: dict = field(default_factory=dict)


@dataclass
class Service:
    """Framework-free request handling over a graph that only grows and a
    frozen rule base."""

    graph: TheoryGraph
    base: RuleBase
    default_fuel: int = DEFAULT_FUEL
    _ingest_lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self):
        SimplifyBudget(self.default_fuel)  # ValueError outside 1..MAX_FUEL
        # A theory's scope never changes once built (see the module
        # docstring); an error is never cached, so it is raised again.
        self.scope_for = functools.lru_cache(maxsize=SCOPE_CACHE_SIZE)(
            self.graph.scope_for)

    def simplify_request(self, body: bytes, content_type: str,
                         scope_ref: str | None, fuel: str | None) -> Response:
        xml = content_type.split(";")[0].strip().lower() == OMXML
        out_type = OMXML if xml else TEXT
        try:
            fuel_n = int(fuel) if fuel else self.default_fuel
        except ValueError:
            return Response(400, f"bad fuel value: {fuel}\n")
        try:
            budget = SimplifyBudget(fuel_n)
        except ValueError as e:
            return Response(400, f"{e}\n")
        scope = None
        if scope_ref:
            try:
                scope = self.scope_for(self.graph.resolve(scope_ref))
            except (UnresolvedModuleError, GraphError,
                    AmbiguityError) as e:
                return Response(404, f"{e}\n")
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            return Response(400, "body is not UTF-8\n")
        if not xml and scope is None:
            return Response(400, "text requests need a scope parameter\n")
        try:
            term = decode_xml(text) if xml else parse_term(text.strip(), scope)
        except TermTooDeepError as e:
            return Response(413, f"{e}\n")
        except XmlDecodeError as e:
            return Response(400, f"{e}\n")
        except ValueError as e:  # SyntaxErrorAt, or a literal too long
            return Response(400, f"parse error: {e}\n")
        try:
            result = simplify(self.base, term, budget)
        except RecursionError:  # a rule ran out of stack
            return Response(413, "term nested too deeply\n")
        except MemoryError:  # a rule ran out of memory
            return Response(413, "term too large\n")
        try:
            if xml:
                payload = encode_xml(result.term)
            else:
                payload = render_term(result.term, scope)
        except ValueError:  # an integer over sys.get_int_max_str_digits()
            return Response(413, "result integer too long to render\n")
        headers = {"X-Simplify-Steps": str(result.steps),
                   "X-Simplify-Exhausted": "true" if result.exhausted else "false"}
        status = 422 if result.exhausted else 200
        return Response(status, payload, out_type, headers)

    def ingest(self, body: bytes) -> Response:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            return Response(400, "body is not UTF-8\n")
        with self._ingest_lock:
            try:
                added = ingest_omdoc(self.graph, text)
            except DuplicateModuleError as e:
                return Response(409, f"{e}\n")
            except TermTooDeepError as e:
                return Response(413, f"{e}\n")
            except OmdocError as e:
                return Response(400, f"{e}\n")
        names = "".join(f"{t.name}\n" for t in added)
        return Response(201, names)

    def theories(self) -> Response:
        # A snapshot, since a concurrent ingest may add modules.
        refs = tuple(self.graph.modules)
        return Response(200, "".join(f"{ref}\n" for ref in refs))

    def health(self) -> Response:
        return Response(200, "ok")


class _Handler(BaseHTTPRequestHandler):
    service: Service  # set on the subclass by make_server
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S

    def log_message(self, *args):  # tests stay quiet
        pass

    def _send(self, r: Response, close: bool = False):
        body = r.body.encode("utf-8")
        head = [f"{self.protocol_version} {r.status} {self.responses[r.status][0]}",
                f"Date: {self.date_time_string()}",
                f"Content-Type: {r.content_type}",
                f"Content-Length: {len(body)}"]
        head += [f"{k}: {v}" for k, v in r.headers.items()]
        if close:
            head.append("Connection: close")
            self.close_connection = True
        # One write: a body sent as a second small segment is held back by
        # Nagle's algorithm until the client's delayed ACK, up to 40 ms.
        self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n"
                         + body)

    def _read_body(self) -> bytes | Response:
        """The request body, or the error reply after which the connection
        closes, because the body's end on the wire is unknown."""
        if "Transfer-Encoding" in self.headers:
            return Response(411, "send the body with a Content-Length\n")
        lengths = {v.strip() for v in self.headers.get_all("Content-Length", ["0"])}
        length = lengths.pop() if len(lengths) == 1 else ""
        if not (length.isascii() and length.isdigit()):
            return Response(400, "bad Content-Length\n")
        if int(length) > MAX_BODY_BYTES:
            return Response(413, f"body over {MAX_BODY_BYTES} bytes\n")
        return self.rfile.read(int(length))

    def _answer(self, route):
        # The body is read whatever the path, so that none of it is left on
        # a kept-alive connection to be parsed as the next request.
        body = self._read_body()
        if isinstance(body, Response):
            self._send(body, close=True)
            return
        try:
            r = route(urlsplit(self.path), body)
        except Exception as e:  # keep the connection answered
            self._send(Response(500, f"internal error: {e}\n"), close=True)
            return
        self._send(r)

    def _get(self, url, body: bytes) -> Response:
        if url.path == "/health":
            return self.service.health()
        if url.path == "/theories":
            return self.service.theories()
        return Response(404, "not found\n")

    def _post(self, url, body: bytes) -> Response:
        if url.path == "/simplify":
            query = parse_qs(url.query)
            return self.service.simplify_request(
                body, self.headers.get("Content-Type", TEXT),
                (query.get("scope") or [None])[0],
                (query.get("fuel") or [None])[0])
        if url.path == "/theories":
            return self.service.ingest(body)
        return Response(404, "not found\n")

    def do_GET(self):
        self._answer(self._get)

    def do_POST(self):
        self._answer(self._post)


def make_server(service: Service, port: int = 8080,
                host: str = "127.0.0.1") -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve(service: Service, port: int = 8080, host: str = "0.0.0.0"):
    server = make_server(service, port, host)
    try:
        server.serve_forever()
    finally:
        server.server_close()
