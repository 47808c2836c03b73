"""HTTP simplification service.

The server speaks HTTP/1.1 and keeps connections alive: a client may send
any number of requests over one connection, each answered in turn.  A
connection that sends nothing for ``IDLE_TIMEOUT_S`` seconds is closed.
HTTP/1.1 stays open unless the client sends ``Connection: close``, HTTP/1.0
only if it sends ``Connection: keep-alive``.  ``Expect: 100-continue`` is
answered with ``100 Continue`` once the body's framing is accepted, if the
body has not all arrived yet.

One thread serves every connection: the one that calls ``serve_forever``,
over non-blocking sockets and one selector.  A request is answered once its
head and its body have all arrived; a client that stops in the middle of one
holds up no other.  Requests are answered one at a time, in the order they
are complete, so a long computation delays the replies to every other
connection for its whole length.

The request head is read by the server's own loop (RFC 9112): the request
line, then field lines into a dict by lower-cased name, then the body by
``Content-Length``.  A line is at most ``MAX_LINE_BYTES`` long and a head
has at most ``MAX_FIELD_LINES`` field lines.

Endpoints:
  POST /simplify?scope=<theory-ref>&fuel=<n>  — body is a term, either
      ``text/plain`` in notation syntax (scope required) or
      ``application/openmath+xml``; the response mirrors the request format
      and carries ``X-Simplify-Steps`` and ``X-Simplify-Exhausted`` headers.
      200 success, 400 parse error, bad fuel or XML with a ``DOCTYPE``,
      404 unknown scope or one whose notations are ambiguous, 413 result
      integer too long to render, term nested too deeply or term too large,
      422 fuel exhausted (partial result in the body).
  POST /theories  — ingest an OMDoc document; theories become available as
      scopes; no rules are gained.  201 ingested, 400 subset violation (a
      ``DOCTYPE`` among them), 409 name collision (nothing registered), 413
      nested too deeply.
  GET /theories   — loaded module URIs, one per line.
  GET /health     — "ok".

GET and POST on any path: 404 unknown path, 400 malformed or negative
``Content-Length``, 411 body without ``Content-Length`` (chunked), 413 body
over ``MAX_BODY_BYTES``, 500 internal error.
Any request: 400 malformed request line, HTTP version or field line (no
colon, whitespace before the colon, an obsolete line fold) or a head cut
short, 414 request line too long, 431 field line too long or too many field
lines, 501 a method other than GET and POST, 505 an HTTP version other than
1.x.
After 411, the 413 for an oversized body, a bad ``Content-Length``, 500,
the head errors and a reply to a client that asked to close, the server
closes the connection, and says so with ``Connection: close``; after any
other reply it keeps the connection open.  An error is a ``text/plain``
reply of one line, head errors included.  After a closing reply the server
drops what the client still sends for up to ``LINGER_S`` seconds, or until
the client closes, so that the reply is not lost to a connection reset.

Scopes: a served graph only grows.  A registered module never changes, and
``POST /theories`` registers all of a document's theories or none; an
include names a resolved module.  So a theory's parse scope never changes
once it builds, and the graph keeps the scopes it builds (see
``TheoryGraph.scope_for``), at most ``graph.SCOPE_CACHE_SIZE`` of them: a
stated memory budget.  The ``scope`` parameter is resolved on every
request, since a bare name can become ambiguous as modules arrive, and a
scope that fails to build is not kept, so it is built again on the next
request.

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

import selectors
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
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
MAX_LINE_BYTES = 65536
MAX_FIELD_LINES = 100
IDLE_TIMEOUT_S = 30
LINGER_S = 2


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
                scope = self.graph.scope_for(self.graph.resolve(scope_ref))
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


# RFC 9110 reason phrases of every final status the server sends.
_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 409: "Conflict", 411: "Length Required",
            413: "Content Too Large", 414: "URI Too Long",
            422: "Unprocessable Content",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 501: "Not Implemented",
            505: "HTTP Version Not Supported"}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec")
_EMPTY_LINES = (b"\r\n", b"\n")


def _http_date() -> str:
    """Now as an RFC 9110 IMF-fixdate, whatever the locale."""
    y, mo, d, h, mi, s, wd, _, _ = time.gmtime()
    return (f"{_DAYS[wd]}, {d:02d} {_MONTHS[mo - 1]} {y} "
            f"{h:02d}:{mi:02d}:{s:02d} GMT")


class _Refusal(Exception):
    """A request answered with ``response``, after which the connection
    closes, because where the next request starts is unknown."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.response = Response(status, f"{reason}\n")


def _request_line(line: bytes) -> tuple[bytes, str, bool]:
    """The method, the target and whether the version is HTTP/1.1 or later,
    of a request line that is well formed (RFC 9112 §3) and asks for GET or
    POST over HTTP/1.x."""
    parts = line.split()
    if len(parts) != 3:
        raise _Refusal(400, "malformed request line")
    method, target, version = parts
    if not (len(version) == 8 and version.startswith(b"HTTP/")
            and version[5:6].isdigit() and version[6:7] == b"."
            and version[7:8].isdigit()):
        raise _Refusal(400, "malformed HTTP version")
    if version[5:6] != b"1":
        raise _Refusal(505, "only HTTP/1.x is served")
    if method not in (b"GET", b"POST"):
        raise _Refusal(501, "only GET and POST are served")
    return method, target.decode("latin-1"), version != b"HTTP/1.0"


def _keep_alive(fields: dict, http11: bool) -> bool:
    """RFC 9112 §9.3: HTTP/1.1 persists unless the client sends ``close``,
    HTTP/1.0 only if it sends ``keep-alive``."""
    if "connection" not in fields:
        return http11
    options = {o.strip().lower() for v in fields["connection"]
               for o in v.split(",")}
    return "close" not in options and (http11 or "keep-alive" in options)


class _Connection:
    """One client: the bytes it sent that are not yet read as requests, the
    reply it has not yet taken, and the time past which it is closed.

    ``steps`` reads its requests and answers each in turn, until a reply
    closes the connection or the client does.  It is a generator, which
    yields wherever it waits for the client: to send more of a request, or
    to take more of a reply.  Each wait for input ends at EOF, so after EOF
    it yields only while a reply is unsent."""

    def __init__(self, sock: socket.socket, service: Service,
                 idle_timeout: float):
        self.sock = sock
        self.service = service
        self.idle_timeout = idle_timeout
        self.inbuf = bytearray()
        self.pos = 0  # where the next line starts in ``inbuf``
        self.eof = False
        self.out = memoryview(b"")  # what the socket has not yet taken
        self.lingering = False
        self.deadline = time.monotonic() + idle_timeout
        self.steps = self._exchanges()

    def receive(self):
        """Read what the client sent; nothing on EOF, and nothing is kept
        once the connection lingers."""
        try:
            data = self.sock.recv(65536)
        except BlockingIOError:
            return
        if not data:
            self.eof = True
        elif not self.lingering:
            self.inbuf += data
            self.deadline = time.monotonic() + self.idle_timeout

    def flush(self):
        """Send what the socket takes of the unsent reply."""
        try:
            sent = self.sock.send(self.out)
        except BlockingIOError:
            return
        self.out = self.out[sent:]
        self.deadline = time.monotonic() + self.idle_timeout

    def _exchanges(self):
        while True:
            del self.inbuf[:self.pos]
            self.pos = 0
            line = yield from self._line()
            if line in _EMPTY_LINES:  # RFC 9112 §2.2: one may precede it
                line = yield from self._line()
            if not line:  # the client closed the connection
                return
            try:
                if len(line) > MAX_LINE_BYTES:
                    raise _Refusal(414, "request line too long")
                method, target, http11 = _request_line(line)
                fields = yield from self._read_fields()
                keep_alive = _keep_alive(fields, http11)
                # The body is read whatever the path, so that none of it is
                # left on a kept-alive connection to be read as the next
                # request.
                body = yield from self._read_body(fields, http11)
            except _Refusal as e:
                yield from self._send(e.response, close=True)
                return
            if body is None:  # the client closed the connection mid-body
                return
            try:
                r = self._route(method, target, fields, body)
            except Exception as e:  # keep the connection answered
                r, keep_alive = Response(500, f"internal error: {e}\n"), False
            yield from self._send(r, close=not keep_alive)
            if not keep_alive:
                return

    def _line(self):
        """The next line, cut as ``readline(MAX_LINE_BYTES + 1)`` cuts it:
        through its newline, or the first ``MAX_LINE_BYTES + 1`` bytes of a
        line that is longer, or what is left at EOF."""
        start = checked = self.pos
        limit = start + MAX_LINE_BYTES + 1
        while not (end := self.inbuf.find(b"\n", checked, limit) + 1):
            if len(self.inbuf) >= limit:
                end = limit
                break
            if self.eof:
                end = len(self.inbuf)
                break
            checked = len(self.inbuf)
            yield
        self.pos = end
        return bytes(self.inbuf[start:end])

    def _read_fields(self):
        """The field lines up to the empty line, by lower-cased name; a
        field line that is malformed (RFC 9112 §5.1–§5.2: no colon,
        whitespace in the name or before it, which is an obsolete line
        fold) or past a budget is refused."""
        fields: dict[str, list[str]] = {}
        for _ in range(MAX_FIELD_LINES + 1):
            line = yield from self._line()
            if line in _EMPTY_LINES:
                return fields
            if len(line) > MAX_LINE_BYTES:
                raise _Refusal(431, "field line too long")
            if not line:
                raise _Refusal(400, "request head cut short")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name or " " in name or "\t" in name:
                raise _Refusal(400, "malformed header field")
            fields.setdefault(name.lower(), []).append(value.strip(" \t\r\n"))
        raise _Refusal(431, f"more than {MAX_FIELD_LINES} field lines")

    def _read_body(self, fields: dict, http11: bool):
        """The request body; ``None`` if the client closed the connection
        before sending all of it."""
        if "transfer-encoding" in fields:
            raise _Refusal(411, "send the body with a Content-Length")
        lengths = set(fields.get("content-length", ("0",)))
        length = lengths.pop() if len(lengths) == 1 else ""
        if not (length.isascii() and length.isdigit()):
            raise _Refusal(400, "bad Content-Length")
        n = int(length)
        if n > MAX_BODY_BYTES:
            raise _Refusal(413, f"body over {MAX_BODY_BYTES} bytes")
        end = self.pos + n
        if (len(self.inbuf) < end and http11
                and any(v.lower() == "100-continue"
                        for v in fields.get("expect", ()))):
            yield from self._write(b"HTTP/1.1 100 Continue\r\n\r\n")
        while len(self.inbuf) < end:
            if self.eof:
                return None
            yield
        body = bytes(self.inbuf[self.pos:end])
        self.pos = end
        return body

    def _route(self, method: bytes, target: str, fields: dict,
               body: bytes) -> Response:
        url = urlsplit(target)
        if method == b"GET":
            if url.path == "/health":
                return self.service.health()
            if url.path == "/theories":
                return self.service.theories()
        elif url.path == "/simplify":
            query = parse_qs(url.query)
            return self.service.simplify_request(
                body, fields.get("content-type", (TEXT,))[0],
                (query.get("scope") or [None])[0],
                (query.get("fuel") or [None])[0])
        elif url.path == "/theories":
            return self.service.ingest(body)
        return Response(404, "not found\n")

    def _send(self, r: Response, close: bool):
        """Write the reply, and after a closing one, linger."""
        body = r.body.encode("utf-8")
        head = [f"HTTP/1.1 {r.status} {_REASONS.get(r.status, '')}",
                f"Date: {_http_date()}",
                f"Content-Type: {r.content_type}",
                f"Content-Length: {len(body)}"]
        head += [f"{k}: {v}" for k, v in r.headers.items()]
        if close:
            head.append("Connection: close")
        # One send: a body sent as a second small segment would wait for
        # the client's delayed ACK if Nagle's algorithm were on.
        yield from self._write("\r\n".join(head).encode("latin-1")
                               + b"\r\n\r\n" + body)
        if close:
            yield from self._linger()

    def _write(self, data: bytes):
        """Send ``data``: at once what the socket takes, the rest as the
        client reads it."""
        self.out = memoryview(data)
        self.flush()
        while self.out:
            yield

    def _linger(self):
        """Half-close, then drop what the client still sends for up to
        ``LINGER_S`` seconds: a socket closed with unread input resets the
        connection, and a reset can discard the reply before the client
        reads it."""
        self.sock.shutdown(socket.SHUT_WR)
        self.lingering = True
        self.inbuf.clear()
        self.deadline = time.monotonic() + LINGER_S
        while not self.eof:
            yield


class _Server:
    """Every connection, served by the thread that calls ``serve_forever``.

    It waits on one selector for the listening socket, each connection and
    a socket that ``shutdown`` writes to, with a timeout that ends at the
    nearest connection's deadline.  A connection is read while it waits
    for a request and written to while it has an unsent reply, never both,
    so that it holds at most one request, one read past it and one reply."""

    def __init__(self, service: Service, address: tuple[str, int]):
        self.service = service
        self.idle_timeout = IDLE_TIMEOUT_S
        self._listener = socket.create_server(address)
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._connections: set[_Connection] = set()
        self._stopping = False
        self._stopped = threading.Event()

    def serve_forever(self):
        try:
            while not self._stopping:
                for key, _ in self._selector.select(self._expire()):
                    if key.data is not None:
                        self._step(key.data, key.events)
                    elif key.fileobj is self._listener:
                        self._accept()
                    else:
                        self._wake_r.recv(64)
        finally:
            self._stopped.set()

    def shutdown(self):
        """Stop ``serve_forever`` from another thread, and wait until it
        has."""
        self._stopping = True
        self._wake_w.send(b"\0")
        self._stopped.wait()

    def server_close(self):
        for conn in self._connections:
            conn.sock.close()
        self._connections.clear()
        self._selector.close()
        self._listener.close()
        self._wake_r.close()
        self._wake_w.close()

    def _expire(self) -> float | None:
        """Close each connection past its deadline; the seconds until the
        nearest deadline left, or ``None`` if there is none."""
        now = time.monotonic()
        for conn in [c for c in self._connections if c.deadline <= now]:
            self._close(conn)
        if not self._connections:
            return None
        return min(c.deadline for c in self._connections) - now

    def _accept(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # none is waiting, or no descriptor is left
                return
            sock.setblocking(False)
            # Each reply is one send, so sending it at once costs no extra
            # segment.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
            conn = _Connection(sock, self.service, self.idle_timeout)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._connections.add(conn)

    def _step(self, conn: _Connection, events: int):
        """Write to or read from ``conn``, whichever it waits for (its
        registered ``events``), then let it go on to its next wait."""
        try:
            if events == selectors.EVENT_WRITE:
                conn.flush()
                if conn.out:
                    return
            else:
                conn.receive()
            next(conn.steps)
        except (StopIteration, OSError):  # done, or the client went away
            return self._close(conn)
        except Exception:  # a fault of the server's own: this client only
            sys.excepthook(*sys.exc_info())
            return self._close(conn)
        wait = selectors.EVENT_WRITE if conn.out else selectors.EVENT_READ
        if wait != events:
            self._selector.modify(conn.sock, wait, conn)

    def _close(self, conn: _Connection):
        self._selector.unregister(conn.sock)
        conn.sock.close()
        self._connections.discard(conn)


def make_server(service: Service, port: int = 8080,
                host: str = "127.0.0.1") -> _Server:
    return _Server(service, (host, port))


def serve(service: Service, port: int = 8080, host: str = "0.0.0.0"):
    """Print the port bound, then serve until SIGTERM, which exits 0."""
    server = make_server(service, port, host)
    signal.signal(signal.SIGTERM, _exit)
    print(f"serving on port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def _exit(signum, frame):
    raise SystemExit(0)
