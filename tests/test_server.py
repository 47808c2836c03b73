import http.client
import io
import socket
import sys
import threading
import time
from urllib.parse import parse_qsl, urlsplit

import pytest
import requests
from hypothesis import given, settings, strategies as st

from umachine.codegen import build_graph, load
from umachine.graph import LISTS_DOC_BASE, SCOPE_CACHE_SIZE, TheoryGraph
from umachine.graph import OPENMATH_CD_BASE as CD
from umachine.machine import Rule, RuleBase
from umachine.omxml import decode_xml, encode_xml
from umachine.realization import install_bifoundations
from umachine.server import (IDLE_TIMEOUT_S, MAX_BODY_BYTES,
                             MAX_FIELD_LINES, MAX_FUEL, MAX_LINE_BYTES,
                             MAX_TERM_DEPTH, OMXML, TEXT,
                             Response, Service, make_server)
from umachine.stdlib import rules
from umachine.surface import parse_modules
from umachine.sts import Fixed
from umachine.terms import Const, GlobalName, IntLit, app


@pytest.fixture(scope="module")
def server_url():
    graph, _, _ = build_graph()
    base, _ = load(graph)
    service = Service(graph, base)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}", service
    httpd.shutdown()
    httpd.server_close()


def clist(*vs):
    t = rules.NIL
    for v in reversed(vs):
        t = app(Const(rules.CONS), IntLit(v), t)
    return t


def test_health(server_url):
    url, _ = server_url
    r = requests.get(f"{url}/health")
    assert r.status_code == 200 and r.text == "ok"


def test_theories_listing(server_url):
    url, _ = server_url
    r = requests.get(f"{url}/theories")
    assert r.status_code == 200
    lines = r.text.splitlines()
    assert "http://www.openmath.org/cd?arith1" in lines
    assert "http://cds.omdoc.org/unsorted/uom.omdoc?lists" in lines


# A document type whose entity &f; expands to 10**6 characters: a few
# hundred bytes of body would become megabytes of term.
_ENTITIES = "".join(
    f'<!ENTITY {n} "{("&" + p + ";") * 10 if p else "x" * 10}">'
    for p, n in zip(["", *"abcde"], "abcdef"))


def test_a_doctype_is_refused_before_its_entities_expand(server_url):
    url, _ = server_url
    listed = requests.get(f"{url}/theories").text
    xml = (f"<!DOCTYPE OMOBJ [{_ENTITIES}]>"
           f"<OMOBJ><OMSTR>{'&f;' * 5}</OMSTR></OMOBJ>")
    r = requests.post(f"{url}/simplify", data=xml.encode(),
                      headers={"Content-Type": OMXML})
    assert (r.status_code, r.text) == (400, "a DOCTYPE is not accepted\n")
    doc = (f"<!DOCTYPE omdoc [{_ENTITIES}]>"
           '<omdoc xmlns="http://omdoc.org/ns" base="um:/entity">'
           '<theory name="T"><constant name="c"><definition><OMOBJ>'
           "<OMSTR>&f;</OMSTR></OMOBJ></definition></constant></theory>"
           "</omdoc>")
    r = requests.post(f"{url}/theories", data=doc.encode(),
                      headers={"Content-Type": "application/xml"})
    assert (r.status_code, r.text) == (400, "a DOCTYPE is not accepted\n")
    assert requests.get(f"{url}/theories").text == listed


def test_simplify_text(server_url):
    url, _ = server_url
    r = requests.post(f"{url}/simplify?scope=arith1", data="1+2",
                      headers={"Content-Type": "text/plain; charset=utf-8"})
    assert r.status_code == 200
    assert r.text == "3"
    assert r.headers["X-Simplify-Steps"] == "1"
    assert r.headers["X-Simplify-Exhausted"] == "false"


def test_simplify_xml_append_many(server_url):
    url, _ = server_url
    scenario = app(Const(rules.APPEND_MANY), clist(1, 2, 3), clist(4, 5),
                   clist(6, 7))
    r = requests.post(f"{url}/simplify", data=encode_xml(scenario),
                      headers={"Content-Type": OMXML})
    assert r.status_code == 200
    assert r.headers["Content-Type"] == OMXML
    assert decode_xml(r.text) == clist(1, 2, 3, 4, 5, 6, 7)


def test_parse_error_is_400(server_url):
    url, _ = server_url
    r = requests.post(f"{url}/simplify?scope=arith1", data="1+",
                      headers={"Content-Type": "text/plain"})
    assert r.status_code == 400
    assert "position" in r.text


def test_float_literal_out_of_range_is_400(server_url):
    # As a float, 1e400 is inf, whose rendering reads back as a variable.
    url, _ = server_url
    r = requests.post(f"{url}/simplify?scope=arith1", data="1e400",
                      headers={"Content-Type": "text/plain"})
    assert r.status_code == 400
    assert r.text == "parse error: float literal out of range (at position 0)\n"


def test_unknown_scope_is_404(server_url):
    url, _ = server_url
    r = requests.post(f"{url}/simplify?scope=nosuch", data="1+2",
                      headers={"Content-Type": "text/plain"})
    assert r.status_code == 404


def test_scope_by_full_uri(server_url):
    url, _ = server_url
    cd = "http://www.openmath.org/cd"
    r = requests.post(f"{url}/simplify?scope={cd}?arith1", data="1+2",
                      headers={"Content-Type": "text/plain"})
    assert (r.status_code, r.text) == (200, "3")
    r = requests.post(f"{url}/simplify?scope={cd}?nosuch", data="1+2",
                      headers={"Content-Type": "text/plain"})
    assert r.status_code == 404


# A base that ``urlsplit`` refuses (an unclosed IPv6 bracket) names no
# module: a 404 in a scope, a 400 in a document, which registers nothing.
BRACKETED = "http://[x"


def test_a_bracketed_host_in_a_scope_is_404(server_url):
    url, _ = server_url
    conn = _connection(url)
    try:
        conn.request("POST", f"/simplify?scope={BRACKETED}?arith1",
                     body=b"1+2", headers={"Content-Type": TEXT})
        r = conn.getresponse()
        assert (r.status, r.read().decode()) == (
            404, f"unknown module {BRACKETED}?arith1\n")
    finally:
        conn.close()


@pytest.mark.parametrize("doc, reply", [
    (f'<omdoc base="{BRACKETED}"/>', f"bad base '{BRACKETED}': "),
    (f'<omdoc base="um:/b"><theory name="T">'
     f'<include from="{BRACKETED}?arith1"/></theory></omdoc>',
     f"bad include from '{BRACKETED}?arith1': "),
    ('<omdoc base="um:/b"><theory name="T"><constant name="c"><type>'
     f'<OMOBJ><OMS cdbase="{BRACKETED}" cd="a" name="b"/></OMOBJ>'
     '</type></constant></theory></omdoc>', f"bad cdbase '{BRACKETED}': "),
], ids=["base", "include", "cdbase"])
def test_a_bracketed_host_in_a_document_is_400(server_url, doc, reply):
    url, _ = server_url
    listed = requests.get(f"{url}/theories").text
    r = requests.post(f"{url}/theories", data=doc.encode())
    assert r.status_code == 400 and r.text.startswith(reply), r.text
    assert requests.get(f"{url}/theories").text == listed


def test_view_as_scope_is_404(server_url):
    url, _ = server_url
    r = requests.post(f"{url}/simplify?scope=IntegerArith", data="1+2",
                      headers={"Content-Type": "text/plain"})
    assert r.status_code == 404


def test_bad_fuel_is_400(server_url):
    url, _ = server_url
    r = requests.post(f"{url}/simplify?scope=arith1&fuel=abc", data="1+2",
                      headers={"Content-Type": "text/plain"})
    assert r.status_code == 400
    r = requests.post(f"{url}/simplify?scope=arith1&fuel=0", data="1+2",
                      headers={"Content-Type": "text/plain"})
    assert r.status_code == 400


def test_fuel_exhaustion_is_422_with_partial_result(server_url):
    url, _ = server_url
    r = requests.post(f"{url}/simplify?scope=arith1&fuel=1", data="1+2*3",
                      headers={"Content-Type": "text/plain"})
    assert r.status_code == 422
    assert r.text == "1+6"
    assert r.headers["X-Simplify-Exhausted"] == "true"
    assert r.headers["X-Simplify-Steps"] == "1"


def test_text_without_scope_is_400(server_url):
    url, _ = server_url
    r = requests.post(f"{url}/simplify", data="1+2",
                      headers={"Content-Type": "text/plain"})
    assert r.status_code == 400


def test_simplify_is_stateless(server_url):
    url, _ = server_url
    responses = [requests.post(f"{url}/simplify?scope=NumbersTest",
                               data="{1,2}∪{2,3}",
                               headers={"Content-Type": "text/plain"})
                 for _ in range(3)]
    assert {r.text for r in responses} == {"{1,2,3}"}
    assert all(r.status_code == 200 for r in responses)


def test_format_neutrality(server_url):
    # The same term sent as text and as XML yields the same result term.
    from umachine.terms import GlobalName
    url, _ = server_url
    text = requests.post(f"{url}/simplify?scope=arith1", data="2*3+1",
                         headers={"Content-Type": "text/plain"})
    plus = Const(GlobalName("http://www.openmath.org/cd", "arith1", "plus"))
    times = Const(GlobalName("http://www.openmath.org/cd", "arith1", "times"))
    t = app(plus, app(times, IntLit(2), IntLit(3)), IntLit(1))
    xml = requests.post(f"{url}/simplify", data=encode_xml(t),
                        headers={"Content-Type": OMXML})
    assert text.text == "7"
    assert decode_xml(xml.text) == IntLit(7)


def test_big_integers_get_typed_answers(server_url):
    url, _ = server_url

    def text(expr):
        return requests.post(f"{url}/simplify?scope=everything1", data=expr,
                             headers={"Content-Type": "text/plain"})

    # power and factorial decline a result too long to render, before
    # computing it.
    for expr in ("2^200000", "2^1000000000000"):
        start = time.monotonic()
        r = text(expr)
        assert (r.status_code, r.text) == (200, expr)
        assert time.monotonic() - start < 1
    r = text("factorial(2000)")
    assert (r.status_code, r.text) == (200, "integer1?factorial(2000)")
    # Any other result integer too long to render or encode is a 413.
    r = text("10^4000*10^4000")
    assert r.status_code == 413 and "too long" in r.text
    power = Const(GlobalName("http://www.openmath.org/cd", "arith1", "power"))
    times = Const(GlobalName("http://www.openmath.org/cd", "arith1", "times"))
    big = app(power, IntLit(10), IntLit(4000))
    r = requests.post(f"{url}/simplify", data=encode_xml(app(times, big, big)),
                      headers={"Content-Type": OMXML})
    assert r.status_code == 413
    # An OMI literal too long to decode is a 400, in a term or a theory.
    omi = f"<OMOBJ><OMI>{'7' * 5000}</OMI></OMOBJ>"
    r = requests.post(f"{url}/simplify", data=omi,
                      headers={"Content-Type": OMXML})
    assert r.status_code == 400 and "OMI too long" in r.text
    doc = (f'<omdoc base="um:/big"><theory name="big"><constant name="n">'
           f'<definition>{omi}</definition></constant></theory></omdoc>')
    r = requests.post(f"{url}/theories", data=doc)
    assert r.status_code == 400 and "OMI too long" in r.text


INGEST_DOC = """<omdoc xmlns="http://omdoc.org/ns" base="um:/uploaded">
  <theory name="pairs">
    <constant name="pair"/>
    <constant name="fst"/>
  </theory>
</omdoc>"""


def test_ingest_and_collision(server_url):
    url, service = server_url
    rules_before = len(service.base)
    r = requests.post(f"{url}/theories", data=INGEST_DOC)
    assert r.status_code == 201
    assert "um:/uploaded?pairs" in r.text
    # theories become visible as scopes
    listing = requests.get(f"{url}/theories").text
    assert "um:/uploaded?pairs" in listing
    simp = requests.post(f"{url}/simplify?scope=pairs", data="fst",
                         headers={"Content-Type": "text/plain"})
    assert simp.status_code == 200 and simp.text == "pairs?fst"
    # uploading never adds rules
    assert len(service.base) == rules_before
    r2 = requests.post(f"{url}/theories", data=INGEST_DOC)
    assert r2.status_code == 409


def test_ingest_empty_document(server_url):
    url, _ = server_url
    r = requests.post(f"{url}/theories", data='<omdoc base="um:/empty"/>')
    assert r.status_code == 201 and r.text == ""


def test_ingest_subset_violation_is_400(server_url):
    url, _ = server_url
    r = requests.post(f"{url}/theories",
                      data='<omdoc base="um:/bad"><proof/></omdoc>')
    assert r.status_code == 400


def test_concurrent_simplifications(server_url):
    url, _ = server_url
    results = {}

    def hit(i):
        r = requests.post(f"{url}/simplify?scope=arith1", data=f"{i}+{i}",
                          headers={"Content-Type": "text/plain"})
        results[i] = (r.status_code, r.text)

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: (200, str(2 * i)) for i in range(12)}


# -- HTTP/1.1 connections ------------------------------------------------------


class CountingConnection(http.client.HTTPConnection):
    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


def _connection(url) -> CountingConnection:
    host, port = url.removeprefix("http://").split(":")
    return CountingConnection(host, int(port), timeout=10)


def _exchange(url, raw: bytes) -> tuple[int, bytes]:
    """Send raw request bytes; the status and everything the server sent
    until it closed the connection."""
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as s:
        s.sendall(raw)
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    return int(data.split(b" ", 2)[1]), data


def test_requests_share_one_connection(server_url):
    url, _ = server_url
    conn = _connection(url)
    try:
        for i in range(3):
            conn.request("POST", "/simplify?scope=arith1", body=f"{i}+1",
                         headers={"Content-Type": "text/plain"})
            r = conn.getresponse()
            assert (r.status, r.read()) == (200, str(i + 1).encode())
        conn.request("GET", "/health")
        assert conn.getresponse().read() == b"ok"
    finally:
        conn.close()
    assert conn.connects == 1


def test_unknown_post_path_consumes_its_body(server_url):
    url, _ = server_url
    conn = _connection(url)
    try:
        conn.request("POST", "/nosuch", body="GET /health HTTP/1.1\r\n\r\n")
        r = conn.getresponse()
        assert (r.status, r.read()) == (404, b"not found\n")
        conn.request("POST", "/simplify?scope=arith1", body="2*3",
                     headers={"Content-Type": "text/plain"})
        r = conn.getresponse()
        assert (r.status, r.read()) == (200, b"6")
    finally:
        conn.close()
    assert conn.connects == 1


@pytest.mark.parametrize("length", ["abc", "-1", "1_0", "+5", "5, 6"])
def test_bad_content_length_is_400_and_closes(server_url, length):
    url, _ = server_url
    status, reply = _exchange(url, (
        "POST /simplify?scope=arith1 HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n").encode())
    assert status == 400 and b"Connection: close" in reply


def test_conflicting_content_lengths_are_400(server_url):
    url, _ = server_url
    status, _ = _exchange(url, b"POST /simplify?scope=arith1 HTTP/1.1\r\n"
                               b"Content-Length: 3\r\nContent-Length: 4\r\n"
                               b"\r\n")
    assert status == 400


def test_oversized_body_is_413_and_closes(server_url):
    url, _ = server_url
    status, reply = _exchange(url, (
        "POST /simplify?scope=arith1 HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n").encode())
    assert status == 413 and b"Connection: close" in reply


def test_chunked_body_is_411_and_closes(server_url):
    url, _ = server_url
    status, reply = _exchange(url, b"POST /simplify?scope=arith1 HTTP/1.1\r\n"
                                   b"Transfer-Encoding: chunked\r\n\r\n"
                                   b"3\r\n1+2\r\n0\r\n\r\n")
    assert status == 411 and b"Connection: close" in reply


def _read_reply(f) -> tuple[int, dict, bytes]:
    """The status, the fields by lower-cased name and the body of the next
    reply in the binary file ``f``."""
    status = int(f.readline().split(b" ", 2)[1])
    fields = {}
    while (line := f.readline()) != b"\r\n":
        assert line, "the reply head ends early"
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.lower()] = value.strip()
    return status, fields, f.read(int(fields["content-length"]))


def _replies(data: bytes) -> list[tuple[int, dict, bytes]]:
    """Every reply in ``data``, which ends with the last one."""
    f = io.BytesIO(data)
    replies = []
    while f.tell() < len(data):
        replies.append(_read_reply(f))
    return replies


def _assert_closing_text_reply(reply: bytes, status: int, reason: bytes):
    [(got, fields, body)] = _replies(reply)
    assert (got, body) == (status, reason)
    assert fields["content-type"] == TEXT
    assert fields["connection"] == "close"
    assert "server" not in fields


@pytest.mark.parametrize("field", [b"Content-Length : 3", b"X-Junk",
                                   b" folded"],
                         ids=["space-before-colon", "no-colon", "obs-fold"])
def test_a_malformed_field_line_is_400_and_closes(server_url, field):
    # Read as no length, ``Content-Length : 3`` once left the body on the
    # connection to be read as the next request line.
    url, _ = server_url
    _, reply = _exchange(url, b"POST /simplify?scope=arith1 HTTP/1.1\r\n"
                              b"Content-Type: text/plain\r\nX-A: 1\r\n"
                              + field + b"\r\n\r\n1+2")
    _assert_closing_text_reply(reply, 400, b"malformed header field\n")


_LONG = b"a" * (MAX_LINE_BYTES + 1)


@pytest.mark.parametrize("raw, status, reason", [
    (b"GET /" + _LONG + b" HTTP/1.1\r\n\r\n", 414, b"request line too long\n"),
    (b"GET /health HTTP/1.1\r\nX-Long: " + _LONG + b"\r\n\r\n", 431,
     b"field line too long\n"),
    (b"GET /health HTTP/1.1\r\n"
     + b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_FIELD_LINES + 1))
     + b"\r\n", 431, b"more than %d field lines\n" % MAX_FIELD_LINES),
    (b"PUT /theories HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501,
     b"only GET and POST are served\n"),
    (b"GET /health HTTP/2.0\r\n\r\n", 505, b"only HTTP/1.x is served\n"),
    (b"GET /health HTTP/1.x\r\n\r\n", 400, b"malformed HTTP version\n"),
    (b"GET /health\r\n", 400, b"malformed request line\n"),
], ids=["414", "431-line", "431-count", "501", "505", "400-version",
        "400-no-version"])
def test_a_head_error_is_a_text_reply_and_closes(server_url, raw, status,
                                                 reason):
    url, _ = server_url
    start = time.monotonic()
    _, reply = _exchange(url, raw)
    _assert_closing_text_reply(reply, status, reason)
    assert time.monotonic() - start < 5


def test_a_head_at_both_budgets_is_answered(server_url):
    url, _ = server_url
    short = b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_FIELD_LINES - 2))
    long = b"X-Long: " + b"a" * (MAX_LINE_BYTES - 10) + b"\r\n"
    assert len(long) == MAX_LINE_BYTES
    _, reply = _exchange(url, b"GET /health HTTP/1.1\r\n" + short + long
                         + b"Connection: close\r\n\r\n")
    [(status, fields, body)] = _replies(reply)
    assert (status, body) == (200, b"ok") and fields["connection"] == "close"


def test_one_empty_line_before_a_request_is_ignored(server_url):
    # RFC 9112 §2.2: a client may end a body with a stray CRLF.
    url, _ = server_url
    _, reply = _exchange(url, b"\r\nGET /health HTTP/1.1\r\n"
                              b"Connection: close\r\n\r\n")
    [(status, fields, body)] = _replies(reply)
    assert (status, body) == (200, b"ok") and fields["connection"] == "close"


def test_http10_keeps_the_connection_only_when_asked(server_url):
    url, _ = server_url
    _, reply = _exchange(url, b"GET /health HTTP/1.0\r\n"
                              b"Connection: keep-alive\r\n\r\n"
                              b"GET /health HTTP/1.0\r\n\r\n")
    (status, fields, body), (status2, fields2, body2) = _replies(reply)
    assert (status, body) == (200, b"ok") and "connection" not in fields
    assert (status2, body2) == (200, b"ok") and fields2["connection"] == "close"


def test_expect_100_continue_is_answered_before_the_body(server_url):
    url, _ = server_url
    host, port = url.removeprefix("http://").split(":")
    interim = b"HTTP/1.1 100 Continue\r\n\r\n"
    with socket.create_connection((host, int(port)), timeout=10) as s:
        s.sendall(b"POST /simplify?scope=arith1 HTTP/1.1\r\n"
                  b"Content-Type: text/plain\r\nContent-Length: 3\r\n"
                  b"Expect: 100-continue\r\n\r\n")
        got = b""
        while len(got) < len(interim) and (chunk := s.recv(len(interim))):
            got += chunk
        assert got == interim
        s.sendall(b"1+2")
        s.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := s.recv(65536):
            reply += chunk
    [(status, fields, body)] = _replies(reply)
    assert (status, body) == (200, b"3") and "connection" not in fields


def test_expect_100_continue_is_sent_once_for_a_body_still_to_come(server_url):
    url, _ = server_url
    host, port = url.removeprefix("http://").split(":")
    head = (b"POST /simplify?scope=arith1 HTTP/1.1\r\nContent-Length: 3\r\n"
            b"Expect: 100-continue\r\nConnection: close\r\n\r\n")
    # The body came with the head: nothing is left to ask for.
    _, reply = _exchange(url, head + b"1+2")
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
    with socket.create_connection((host, int(port)), timeout=10) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        for part in (head, b"1", b"+2"):
            s.sendall(part)
            time.sleep(0.05)
        reply = b""
        while chunk := s.recv(65536):
            reply += chunk
    interim = b"HTTP/1.1 100 Continue\r\n\r\n"
    assert reply.startswith(interim) and reply.count(b" 100 ") == 1
    [(status, _, body)] = _replies(reply.removeprefix(interim))
    assert (status, body) == (200, b"3")

def test_expect_100_continue_is_not_sent_for_a_body_refused(server_url):
    url, _ = server_url
    _, reply = _exchange(url, b"POST /simplify?scope=arith1 HTTP/1.1\r\n"
                              b"Expect: 100-continue\r\nContent-Length: %d"
                              b"\r\n\r\n" % (MAX_BODY_BYTES + 1))
    _assert_closing_text_reply(reply, 413,
                               b"body over %d bytes\n" % MAX_BODY_BYTES)


# -- framing over one connection, pipelined and split at random ---------------

_PLUS = Const(GlobalName("http://www.openmath.org/cd", "arith1", "plus"))
# (target, content type, body) of requests a connection keeps open after.
_KEPT = [("/simplify?scope=arith1", "text/plain", b"1+2*3"),
         ("/simplify?scope=arith1&fuel=1", "text/plain", b"1+2*3"),
         ("/simplify?scope=arith1", "text/plain", b"1+"),
         ("/simplify?scope=nosuch", "text/plain", b"1"),
         ("/simplify?scope=NumbersTest", TEXT, "{1,2}∪{2,3}".encode()),
         ("/simplify", OMXML,
          encode_xml(app(_PLUS, IntLit(1), IntLit(2))).encode()),
         ("/simplify", OMXML, b"<OMOBJ><OMI>x</OMI></OMOBJ>"),
         ("/health", None, b"")]
# Raw requests after whose reply, with this status, the connection closes.
_CLOSING = [(b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n", 200),
            (b"GET /health HTTP/1.0\r\n\r\n", 200),
            (b"POST /simplify HTTP/1.1\r\nContent-Length : 3\r\n\r\n1+2", 400),
            (b"POST /simplify HTTP/1.1\r\nX-Junk\r\n\r\n", 400),
            (b"GET /health HTTP/1.1\r\nX: 1\r\n folded\r\n\r\n", 400),
            (b"GET /health\r\n", 400),
            (b"GET /health HTTP/1.x\r\n\r\n", 400),
            (b"PUT /health HTTP/1.1\r\n\r\n", 501),
            (b"GET /health HTTP/2.0\r\n\r\n", 505),
            (b"POST /theories HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
            (b"POST /simplify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
             b"3\r\n1+2\r\n0\r\n\r\n", 411),
            (b"POST /theories HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
             % (MAX_BODY_BYTES + 1), 413)]
_CASES = [str.lower, str.upper, str.title, str.swapcase]


def _raw_kept(request, case) -> bytes:
    target, content_type, body = request
    if content_type is None:
        return f"GET {target} HTTP/1.1\r\n{case('Host')}: x\r\n\r\n".encode()
    return (f"POST {target} HTTP/1.1\r\n{case('Content-Type')}: "
            f"{content_type}\r\n{case('Content-Length')}: {len(body)}\r\n\r\n"
            ).encode() + body


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kept=st.lists(st.tuples(st.sampled_from(_KEPT),
                               st.sampled_from(_CASES)), max_size=6),
       closing=st.one_of(st.none(), st.sampled_from(_CLOSING)),
       after=st.lists(st.sampled_from(_KEPT), max_size=2),
       cuts=st.lists(st.floats(0, 1), max_size=8))
def test_pipelined_requests_are_answered_in_order(server_url, kept, closing,
                                                  after, cuts):
    url, service = server_url
    raw = b"".join(_raw_kept(r, case) for r, case in kept)
    if closing is not None:
        raw += closing[0] + b"".join(_raw_kept(r, str.title) for r in after)
    offsets = sorted({0, len(raw), *(int(c * len(raw)) for c in cuts)})
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        for a, b in zip(offsets, offsets[1:]):
            s.sendall(raw[a:b])
        with s.makefile("rb") as f:
            for (target, content_type, body), _ in kept:
                status, fields, reply = _read_reply(f)
                if content_type is None:
                    want = service.health()
                else:
                    query = dict(parse_qsl(urlsplit(target).query))
                    want = service.simplify_request(
                        body, content_type, query.get("scope"),
                        query.get("fuel"))
                assert (status, reply) == (want.status, want.body.encode())
                assert "connection" not in fields
            if closing is not None:
                status, fields, _ = _read_reply(f)
                assert (status, fields["connection"]) == (closing[1], "close")
                assert f.read() == b""


def test_idle_connection_is_closed(loaded):
    httpd = make_server(Service(loaded.graph, loaded.base), port=0)
    assert httpd.idle_timeout == IDLE_TIMEOUT_S
    httpd.idle_timeout = 0.2  # this server's connections only
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(httpd.server_address, timeout=10) as s:
            start = time.perf_counter()
            assert s.recv(1) == b""
            assert time.perf_counter() - start < 5
    finally:
        httpd.shutdown()
        httpd.server_close()


# -- one thread serves every connection ----------------------------------------


def test_a_stalled_peer_holds_up_no_one(server_url):
    url, _ = server_url
    host, port = url.removeprefix("http://").split(":")
    address = (host, int(port))
    threads = threading.active_count()
    with socket.create_connection(address, timeout=10) as half_head, \
            socket.create_connection(address, timeout=10) as half_body, \
            socket.create_connection(address, timeout=10) as silent:
        half_head.sendall(b"GET /health HTTP/1.1\r\nHo")
        half_body.sendall(b"POST /simplify?scope=arith1 HTTP/1.1\r\n"
                          b"Content-Type: text/plain\r\n"
                          b"Content-Length: 10\r\n\r\n1+2")
        conn = _connection(url)
        try:
            for method, target, body, want in [
                    ("GET", "/health", None, b"ok"),
                    ("POST", "/simplify?scope=arith1", "1+2", b"3")]:
                start = time.monotonic()
                conn.request(method, target, body=body,
                             headers={"Content-Type": "text/plain"})
                r = conn.getresponse()
                assert (r.status, r.read()) == (200, want)
                assert time.monotonic() - start < 1
            assert threading.active_count() == threads
        finally:
            conn.close()
        half_head.sendall(b"st: x\r\n\r\n")
        half_body.sendall(b"*3+4000")
        for s, want in [(half_head, b"ok"), (half_body, b"4007")]:
            with s.makefile("rb") as f:
                status, fields, reply = _read_reply(f)
            assert (status, reply) == (200, want)
            assert "connection" not in fields
        # Connected all along, it is neither answered nor closed.
        silent.setblocking(False)
        with pytest.raises(BlockingIOError):
            silent.recv(1)


def test_a_reply_larger_than_the_socket_buffers_is_sent_whole(loaded):
    httpd = make_server(Service(loaded.graph, loaded.base), port=0)
    # Accepted sockets take the listener's send buffer, so that one send
    # takes a small part of the reply; loopback's own can hold all of it.
    httpd._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    cells = 4000
    body = (f'<OMOBJ><OMA><OMS cdbase="{LISTS_DOC_BASE}" cd="lists" '
            f'name="append"/>{_xml_list(cells)}{_xml_list(cells)}</OMA>'
            "</OMOBJ>").encode()
    assert len(body) < MAX_BODY_BYTES
    try:
        with socket.socket() as s:
            # A small receive window, so that the reply waits in the server.
            s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            s.settimeout(10)
            s.connect(httpd.server_address)
            s.sendall(b"POST /simplify HTTP/1.1\r\nContent-Type: %s\r\n"
                      b"Content-Length: %d\r\n\r\n"
                      % (OMXML.encode(), len(body)) + body)
            # The reply has begun, and waits unread a while longer.
            assert s.recv(1, socket.MSG_PEEK) == b"H"
            time.sleep(0.5)
            conn = _connection(f"http://127.0.0.1:{httpd.server_address[1]}")
            try:
                start = time.monotonic()
                conn.request("GET", "/health")
                r = conn.getresponse()
                assert (r.status, r.read()) == (200, b"ok")
                assert time.monotonic() - start < 1
            finally:
                conn.close()
            with s.makefile("rb") as f:
                status, _, reply = _read_reply(f)
    finally:
        httpd.shutdown()
        httpd.server_close()
    assert status == 200 and len(reply) > 500_000
    assert decode_xml(reply.decode()) == clist(*[1] * (2 * cells))


class _UnsendableHealth:
    """A service whose ``/health`` reply cannot be encoded: a fault past
    the routing, where no 500 can answer it."""

    def health(self):
        return Response(200, "\ud800")

    def theories(self):
        return Response(200, "")


def test_a_fault_in_one_reply_closes_that_connection_only(capsys):
    httpd = make_server(_UnsendableHealth(), port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(httpd.server_address, timeout=10) as s:
            s.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            assert s.recv(65536) == b""
        with socket.create_connection(httpd.server_address, timeout=10) as s:
            s.sendall(b"GET /theories HTTP/1.1\r\n\r\n")
            with s.makefile("rb") as f:
                assert _read_reply(f)[::2] == (200, b"")
    finally:
        httpd.shutdown()
        httpd.server_close()
    assert "UnicodeEncodeError" in capsys.readouterr().err


def test_a_connection_that_sends_slowly_is_not_idle(loaded):
    httpd = make_server(Service(loaded.graph, loaded.base), port=0)
    httpd.idle_timeout = 0.3
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    raw = (b"POST /simplify?scope=arith1 HTTP/1.1\r\nContent-Length: 3\r\n"
           b"Connection: close\r\n\r\n1+2")
    try:
        with socket.create_connection(httpd.server_address, timeout=10) as s:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
            # Each part well within the timeout, all of them well past it.
            for i in range(0, len(raw), 12):
                s.sendall(raw[i:i + 12])
                time.sleep(0.1)
            with s.makefile("rb") as f:
                assert _read_reply(f)[::2] == (200, b"3")
    finally:
        httpd.shutdown()
        httpd.server_close()

def test_theories_listing_beside_ingests():
    graph, _, _ = build_graph()
    service = Service(graph, RuleBase())
    docs = [f'<omdoc base="um:/race/d{i}"><theory name="t{i}"/></omdoc>'
            .encode() for i in range(3000)]
    statuses, failures = [], []

    def ingest_all():
        statuses.extend(service.ingest(doc).status for doc in docs)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer = threading.Thread(target=ingest_all)
        writer.start()
        while writer.is_alive():
            try:
                service.theories()
            except RuntimeError as e:
                failures.append(e)
        writer.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not writer.is_alive() and statuses == [201] * len(docs)
    assert failures == []
    assert "um:/race/d2999?t2999" in service.theories().body


def _a_rule_that_raises_is_413_and_keeps_the_connection(loaded, error,
                                                        reply: bytes):
    deep = GlobalName("um:/t", "m", "deep")

    def give_out(a):
        raise error

    base = RuleBase([Rule(deep, Fixed(1), give_out), *loaded.base.rules()])
    httpd = make_server(Service(loaded.graph, base), port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    conn = _connection(f"http://127.0.0.1:{httpd.server_address[1]}")
    try:
        conn.request("POST", "/simplify",
                     body=encode_xml(app(Const(deep), IntLit(1))),
                     headers={"Content-Type": OMXML})
        r = conn.getresponse()
        assert (r.status, r.read()) == (413, reply)
        assert r.getheader("Connection") is None
        conn.request("POST", "/simplify?scope=arith1", body="1+2",
                     headers={"Content-Type": "text/plain"})
        r = conn.getresponse()
        assert (r.status, r.read()) == (200, b"3")
    finally:
        conn.close()
        httpd.shutdown()
        httpd.server_close()
    assert conn.connects == 1


def test_term_nested_too_deeply_is_413_and_keeps_the_connection(loaded):
    # A rule that runs out of stack stands for any recursion along the term;
    # the reply must not depend on the interpreter's limit.
    _a_rule_that_raises_is_413_and_keeps_the_connection(
        loaded, RecursionError("maximum recursion depth exceeded"),
        b"term nested too deeply\n")


def test_a_rule_out_of_memory_is_413_and_keeps_the_connection(loaded):
    _a_rule_that_raises_is_413_and_keeps_the_connection(
        loaded, MemoryError(), b"term too large\n")


def test_service_answers_a_term_nested_too_deeply_with_413(loaded):
    deep = GlobalName("um:/t", "m", "deep")

    def give_out(a):
        raise RecursionError("maximum recursion depth exceeded")

    base = RuleBase([Rule(deep, Fixed(1), give_out), *loaded.base.rules()])
    r = Service(loaded.graph, base).simplify_request(
        encode_xml(app(Const(deep), IntLit(1))).encode("utf-8"), OMXML,
        None, None)
    assert (r.status, r.body) == (413, "term nested too deeply\n")


def _omdoc(base: str, definition: str) -> bytes:
    return (f'<omdoc base="{base}"><theory name="t"><constant name="c">'
            f"<definition><OMOBJ>{definition}</OMOBJ></definition>"
            "</constant></theory></omdoc>").encode()


def _negations(depth: int) -> str:
    """``-(-(…1…))``, ``depth`` applications deep, as OpenMath XML."""
    neg = f'<OMA><OMS cdbase="{CD}" cd="arith1" name="unary_minus"/>'
    return neg * depth + "<OMI>1</OMI>" + "</OMA>" * depth


def test_ingest_nested_too_deeply_is_413(loaded):
    service = Service(TheoryGraph(), loaded.base)
    before = dict(service.graph.modules)
    r = service.ingest(_omdoc("um:/deep", _negations(MAX_TERM_DEPTH + 1)))
    assert (r.status, r.body) == (413, "term nested too deeply\n")
    assert service.graph.modules == before
    r = service.ingest(_omdoc("um:/deep", _negations(MAX_TERM_DEPTH)))
    assert r.status == 201


REPEATED_BVAR = (f'<OMBIND><OMS cdbase="{CD}" cd="fns1" name="lambda"/>'
                 '<OMBVAR><OMV name="x"/><OMV name="x"/></OMBVAR>'
                 '<OMV name="x"/></OMBIND>')


def test_a_repeated_bound_variable_is_400(loaded):
    service = Service(TheoryGraph(), loaded.base)
    before = dict(service.graph.modules)
    message = "bound variable names must be pairwise distinct\n"
    r = service.simplify_request(REPEATED_BVAR.encode(), OMXML, None, None)
    assert (r.status, r.body) == (400, message)
    r = service.ingest(_omdoc("um:/bvar", REPEATED_BVAR))
    assert (r.status, r.body) == (400, message)
    assert service.graph.modules == before


def _xml_list(n: int) -> str:
    cons = f'<OMS cdbase="{LISTS_DOC_BASE}" cd="lists" name="cons"/>'
    nil = f'<OMS cdbase="{LISTS_DOC_BASE}" cd="lists" name="nil"/>'
    return (f"<OMA>{cons}<OMI>1</OMI>" * n + nil + "</OMA>" * n)


@pytest.mark.parametrize("cells", [300, 3000])
def test_equality_of_long_lists_at_the_default_recursion_limit(loaded, cells):
    # Once 413 on one interpreter and 200 on another, depending on the
    # recursion limit; now 200 on all, at the interpreter's default limit.
    assert sys.getrecursionlimit() <= 1000
    body = (f'<OMOBJ><OMA><OMS cdbase="{CD}" cd="relation1" name="eq"/>'
            f"{_xml_list(cells)}{_xml_list(cells)}</OMA></OMOBJ>")
    r = Service(loaded.graph, loaded.base).simplify_request(
        body.encode(), OMXML, None, None)
    assert r.status == 200
    assert decode_xml(r.body) == rules.LOGIC_TRUE


def test_nesting_up_to_the_budget_is_answered(loaded):
    assert sys.getrecursionlimit() <= 1000
    service = Service(loaded.graph, loaded.base)
    for depth, status, body in [(2000, 200, "1"),
                                (MAX_TERM_DEPTH, 200, "1"),
                                (MAX_TERM_DEPTH + 1, 413,
                                 "term nested too deeply\n")]:
        r = service.simplify_request(
            ("(" * depth + "1" + ")" * depth).encode(), TEXT, "arith1", None)
        assert (r.status, r.body) == (status, body)
    for depth, status in [(MAX_TERM_DEPTH, 200), (MAX_TERM_DEPTH + 1, 413)]:
        r = service.simplify_request(_negations(depth).encode(), OMXML, None,
                                     None)
        assert r.status == status


@pytest.mark.parametrize("fuel", [0, MAX_FUEL + 1])
def test_service_refuses_a_default_fuel_out_of_range(loaded, fuel):
    with pytest.raises(ValueError, match=f"fuel out of range: {fuel}"):
        Service(loaded.graph, loaded.base, default_fuel=fuel)


# C only includes A and B, whose notations share a trigger: C loads, but no
# parse scope can be built for it.
AMBIGUOUS = """\
document um:/amb

theory A : OpenMath
  constant f : Object × Object → Object # 1 ⊕ 2 prec 50

theory B : OpenMath
  constant g : Object × Object → Object # 1 ⊕ 2 prec 50

theory C : OpenMath
  include A
  include B
"""
AMBIGUOUS_REPLY = (404, "notations of A?f and B?g both match '⊕' at "
                        "precedence 50\n")


@pytest.fixture()
def ambiguous():
    graph = TheoryGraph()
    install_bifoundations(graph)
    parse_modules(graph, AMBIGUOUS, "amb.mmt")
    return Service(graph, RuleBase())


def test_service_answers_an_ambiguous_scope_with_404(ambiguous):
    r = ambiguous.simplify_request("1 ⊕ 2".encode(), TEXT, "C", None)
    assert (r.status, r.body) == AMBIGUOUS_REPLY


def test_ambiguous_scope_is_404_and_keeps_the_connection(ambiguous):
    httpd = make_server(ambiguous, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    conn = _connection(f"http://127.0.0.1:{httpd.server_address[1]}")
    try:
        conn.request("POST", "/simplify?scope=C", body="1 ⊕ 2".encode(),
                     headers={"Content-Type": "text/plain"})
        r = conn.getresponse()
        assert (r.status, r.read().decode()) == AMBIGUOUS_REPLY
        assert r.getheader("Connection") is None
        conn.request("POST", "/simplify?scope=A", body="1 ⊕ 2".encode(),
                     headers={"Content-Type": "text/plain"})
        r = conn.getresponse()
        assert (r.status, r.read().decode()) == (200, "1⊕2")
    finally:
        conn.close()
        httpd.shutdown()
        httpd.server_close()
    assert conn.connects == 1


def test_a_call_on_a_constant_without_slots_reads_back(loaded):
    service = Service(loaded.graph, loaded.base)
    r = service.simplify_request(b"set1?emptyset(1)", TEXT, "set1", None)
    assert (r.status, r.body) == (200, "set1?emptyset(1)")
    again = service.simplify_request(r.body.encode(), TEXT, "set1", None)
    assert (again.status, again.body) == (r.status, r.body)


# -- the scope cache ------------------------------------------------------------
# The graph keeps the scopes, and every Service over it shares them: each
# test has a graph of its own.

def _theory(base, name, *includes):
    body = "".join(f'<include from="{i}"/>' for i in includes)
    return (f'<omdoc base="{base}"><theory name="{name}">{body}'
            f'</theory></omdoc>').encode()


def test_a_repeated_scoped_request_reuses_its_scope():
    graph, _, _ = build_graph()
    base, _ = load(graph)
    graph._scopes.cache_clear()
    service = Service(graph, base)
    for _ in range(3):
        r = service.simplify_request(b"1+2", TEXT, "arith1", None)
        assert (r.status, r.body) == (200, "3")
    ref = graph.resolve("arith1")
    assert graph.scope_for(ref) is graph.scope_for(ref)
    info = graph._scopes.cache_info()
    # arith1's scope and its frame's, each built once.
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)


def test_a_scope_that_fails_to_build_is_not_cached():
    service = Service(TheoryGraph(), RuleBase())
    assert service.ingest(_theory("um:/late", "A", "?B")).status == 201
    r = service.simplify_request(b"x", TEXT, "A", None)
    assert (r.status, r.body) == (404, "unknown module um:/late?B\n")
    assert service.graph._scopes.cache_info().currsize == 0
    assert service.ingest(_theory("um:/late", "B")).status == 201
    r = service.simplify_request(b"x", TEXT, "A", None)
    assert (r.status, r.body) == (200, "x")


def test_a_bare_name_is_resolved_on_every_request():
    service = Service(TheoryGraph(), RuleBase())
    assert service.ingest(_theory("um:/one", "T")).status == 201
    assert service.simplify_request(b"x", TEXT, "T", None).status == 200
    assert service.ingest(_theory("um:/two", "T")).status == 201
    r = service.simplify_request(b"x", TEXT, "T", None)
    assert (r.status, r.body) == (
        404, "ambiguous module 'T': um:/one?T, um:/two?T\n")
    r = service.simplify_request(b"x", TEXT, "um:/one?T", None)
    assert (r.status, r.body) == (200, "x")
    assert service.graph._scopes.cache_info().hits == 1


def test_the_scope_cache_is_bounded():
    service = Service(TheoryGraph(), RuleBase())
    n = SCOPE_CACHE_SIZE + 10
    for i in range(n):
        assert service.ingest(_theory(f"um:/many/d{i}", f"t{i}")).status == 201
        r = service.simplify_request(b"x", TEXT, f"t{i}", None)
        assert (r.status, r.body) == (200, "x")
    info = service.graph._scopes.cache_info()
    # Each theory's scope once, and their one frame's, read on each miss.
    assert (info.misses, info.hits) == (n + 1, n - 1)
    assert info.currsize == info.maxsize == SCOPE_CACHE_SIZE


# Scopes the stdlib graph has from the start, and a request in each.
_SCOPED = [("arith1", b"1+2*3"), ("set1", b"set1?emptyset(1)"),
           ("nums1", b"\xcf\x80"), ("logic1", b"true \xe2\x88\xa7 false"),
           ("NumbersTest", b"2*3+1"), ("everything1", b"{1,2} \xe2\x88\xaa {3}"),
           ("lists", b"x"), ("integer1", b"factorial(5)")]


def test_scoped_requests_beside_ingests_answer_as_a_fresh_service():
    graph, _, _ = build_graph()
    base, _ = load(graph)
    service = Service(graph, base)
    answers, failures = [], []
    grown = [_theory(f"um:/grow/d{i}", f"t{i}",
                     "http://www.openmath.org/cd?arith1")
             for i in range(2 * SCOPE_CACHE_SIZE)]

    def read(k):
        try:
            for i in range(40):
                scope, body = _SCOPED[(k + i) % len(_SCOPED)]
                r = service.simplify_request(body, TEXT, scope, None)
                answers.append((scope, body, r.status, r.body))
        except Exception as e:  # noqa: BLE001 (reported below)
            failures.append(e)

    def ingest():
        # Each new theory is then asked for by its full name, so the cache
        # evicts the stdlib scopes while the readers use them.
        try:
            for i, doc in enumerate(grown):
                assert service.ingest(doc).status == 201
                ref = f"um:/grow/d{i}?t{i}"
                r = service.simplify_request(b"1+2", TEXT, ref, None)
                answers.append((ref, b"1+2", r.status, r.body))
        except Exception as e:  # noqa: BLE001 (reported below)
            failures.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
        threads.append(threading.Thread(target=ingest))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert failures == [] and not any(t.is_alive() for t in threads)
    assert len(answers) == 8 * 40 + 2 * SCOPE_CACHE_SIZE
    assert graph._scopes.cache_info().currsize <= SCOPE_CACHE_SIZE
    # A graph of its own, so that no answer is checked through the cache
    # that gave it; the ingests replayed in order.
    fresh_graph, _, _ = build_graph()
    fresh = Service(fresh_graph, base)
    for doc in grown:
        assert fresh.ingest(doc).status == 201
    for scope, body, status, reply in answers:
        r = fresh.simplify_request(body, TEXT, scope, None)
        assert (status, reply) == (r.status, r.body), (scope, body)


# -- ingest is all or nothing --------------------------------------------------

def test_a_colliding_document_registers_none_of_its_theories():
    graph, _, _ = build_graph()
    service = Service(graph, RuleBase())
    cd = "http://www.openmath.org/cd"
    doc = (f'<omdoc base="{cd}"><theory name="fresh1"/>'
           '<theory name="arith1"/></omdoc>')
    r = service.ingest(doc.encode())
    assert (r.status, r.body) == (409, f"module {cd}?arith1 already loaded\n")
    assert f"{cd}?fresh1" not in service.theories().body.splitlines()
    fixed = doc.replace('<theory name="arith1"/>', "")
    r = service.ingest(fixed.encode())
    assert (r.status, r.body) == (201, f"{cd}?fresh1\n")


def test_a_document_naming_a_theory_twice_registers_nothing():
    service = Service(TheoryGraph(), RuleBase())
    before = service.theories().body
    r = service.ingest(b'<omdoc base="um:/d"><theory name="t"/>'
                       b'<theory name="u"/><theory name="t"/></omdoc>')
    assert (r.status, r.body) == (409, "module um:/d?t already loaded\n")
    assert service.theories().body == before


@pytest.mark.parametrize("element", ["type", "definition"])
def test_a_repeated_constant_element_is_400_and_registers_nothing(element):
    service = Service(TheoryGraph(), RuleBase())
    before = service.theories().body
    one = f"<{element}><OMOBJ><OMI>1</OMI></OMOBJ></{element}>"
    two = f"<{element}><OMOBJ><OMI>2</OMI></OMOBJ></{element}>"
    r = service.ingest(f'<omdoc base="um:/d"><theory name="ok"/>'
                       f'<theory name="t"><constant name="c">{one}{two}'
                       f'</constant></theory></omdoc>'.encode())
    assert (r.status, r.body) == (
        400, f"constant c has more than one {element}\n")
    assert service.theories().body == before


@pytest.mark.parametrize("theory, reply", [
    ('<theory name="t"><include/></theory>',
     "include needs a from attribute"),
    ('<theory name="t"><constant name="c"><axiom/></constant></theory>',
     "unsupported element: axiom"),
    ('<theory name="t"><constant name="c"><type/></constant></theory>',
     "type needs one OMOBJ child"),
    ('<theory name="t"><constant name="c"><definition>'
     "<OMOBJ><OMI>1</OMI></OMOBJ><OMOBJ><OMI>2</OMI></OMOBJ>"
     "</definition></constant></theory>",
     "definition needs one OMOBJ child"),
    ('<theory name="t"><constant name="c"><definition><OMI>1</OMI>'
     "</definition></constant></theory>",
     "definition needs one OMOBJ child")],
    ids=["include", "element", "type", "two", "bare"])
def test_a_malformed_theory_element_is_400_and_registers_nothing(theory,
                                                                 reply):
    service = Service(TheoryGraph(), RuleBase())
    before = service.theories().body
    r = service.ingest(f'<omdoc base="um:/d"><theory name="ok"/>{theory}'
                       "</omdoc>".encode())
    assert (r.status, r.body) == (400, f"{reply}\n")
    assert service.theories().body == before


@pytest.mark.parametrize("theory, name", [
    ('<theory name="x?y"/>', "x?y"),
    ('<theory name="t"><constant name="a?b"/></theory>', "a?b")],
    ids=["theory", "constant"])
def test_a_name_with_a_question_mark_is_400_and_registers_nothing(theory,
                                                                  name):
    # A reference splits at a '?', so no reference could reach the name.
    service = Service(TheoryGraph(), RuleBase())
    before = service.theories().body
    r = service.ingest(f'<omdoc base="um:/q"><theory name="ok"/>{theory}'
                       f'</omdoc>'.encode())
    assert (r.status, r.body) == (
        400, f"a name may not contain '?': {name!r}\n")
    assert service.theories().body == before


def test_an_include_of_a_registered_view_is_400():
    graph, _, _ = build_graph()
    service = Service(graph, RuleBase())
    before = service.theories().body
    cd = "http://www.openmath.org/cd"
    r = service.ingest(f'<omdoc base="um:/d"><theory name="t">'
                       f'<include from="{cd}?IntegerArith"/></theory>'
                       f'</omdoc>'.encode())
    assert (r.status, r.body) == (
        400, f"theory t includes {cd}?IntegerArith, a view\n")
    assert service.theories().body == before
    # A module not registered yet may still be named.
    r = service.ingest(b'<omdoc base="um:/d"><theory name="t">'
                       b'<include from="?later"/></theory></omdoc>')
    assert (r.status, r.body) == (201, "um:/d?t\n")


def test_a_long_include_chain_is_answered():
    # The include walk is a loop: a chain far deeper than the recursion
    # limit builds its scope, where a recursive walk answered 500.
    n = 3000
    theories = "".join(
        f'<theory name="t{i}">' + (f'<include from="?t{i - 1}"/>' if i else "")
        + '<constant name="c"/></theory>' for i in range(n))
    service = Service(TheoryGraph(), RuleBase())
    r = service.ingest(f'<omdoc base="um:/chain">{theories}</omdoc>'.encode())
    assert r.status == 201
    r = service.simplify_request(b"c", TEXT, f"t{n - 1}", None)
    assert (r.status, r.body) == (200, "t0?c")


@pytest.mark.parametrize("body, message", [
    (b"\xff<omdoc/>", "body is not UTF-8\n"),
    (b"<omdoc", "not well-formed XML: unclosed token: line 1, column 0\n"),
    (b'<theory name="t"/>', "expected an omdoc root, got theory\n")],
    ids=["not UTF-8", "malformed XML", "not an omdoc root"])
def test_an_ingest_that_is_not_an_omdoc_document_is_400(body, message):
    service = Service(TheoryGraph(), RuleBase())
    before = service.theories().body
    r = service.ingest(body)
    assert (r.status, r.body) == (400, message)
    assert service.theories().body == before


# -- every answer is one of the documented ones --------------------------------

_CONTENT_TYPES = [TEXT, "text/plain", OMXML, f"{OMXML}; charset=utf-8",
                  "APPLICATION/OPENMATH+XML ;q=1", "", "junk/;;", "\x00"]
_SCOPES = [None, "", "arith1", "NumbersTest", "everything1",
           "http://www.openmath.org/cd?set1", "IntegerArith", "?", "a?b?c",
           "nosuch", " arith1 "]
_BODIES = [b"1+2*3", b"2^10", b"1+", b"{1,2} \xe2\x88\xaa {3}",
           encode_xml(app(Const(GlobalName("http://www.openmath.org/cd",
                                           "arith1", "plus")),
                          IntLit(1), IntLit(2))).encode(),
           b"<OMOBJ><OMI>x</OMI></OMOBJ>", b"\xff\xfe",
           REPEATED_BVAR.encode()]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(body=st.one_of(st.sampled_from(_BODIES), st.binary(max_size=40),
                      st.text(max_size=20).map(str.encode)),
       content_type=st.one_of(st.sampled_from(_CONTENT_TYPES),
                              st.text(max_size=12)),
       scope=st.one_of(st.sampled_from(_SCOPES), st.text(max_size=12)),
       fuel=st.one_of(st.none(), st.sampled_from(
           ["", "1", "3", "0", "-1", "abc", "1e3", " 7 ", str(MAX_FUEL + 1),
            "9" * 5000]), st.text(max_size=6)))
def test_every_answer_has_a_documented_status(status_service, body,
                                              content_type, scope, fuel):
    r = status_service.simplify_request(body, content_type, scope, fuel)
    assert isinstance(r, Response)
    assert r.status in (200, 400, 404, 413, 422)
    if r.status in (200, 422):
        assert set(r.headers) == {"X-Simplify-Steps", "X-Simplify-Exhausted"}


@pytest.fixture(scope="module")
def status_service(loaded):
    return Service(loaded.graph, loaded.base)
