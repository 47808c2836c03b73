"""Seeded request streams for the benchmark, with their expected answers.

Each client owns one stream: a deterministic sequence of requests built from
``random.Random(f"{seed}:{workload}:{client}")``.  The same seed gives the same
request bytes.  The expected answer of every request is computed here from
Python integers, booleans, sorted sets and tuples, never by calling umachine,
so the server is checked against an independent oracle.

Terms are small trees of tuples ``(op, *children)``; ``evaluate`` gives their
value, ``to_text`` the notation syntax and ``to_xml`` OpenMath XML.
"""

from __future__ import annotations

import hashlib
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from math import factorial

CD = "http://www.openmath.org/cd"
LISTS = "http://cds.omdoc.org/unsorted/uom.omdoc"
TEXT = "text/plain; charset=utf-8"
OMXML = "application/openmath+xml"

WORKLOADS = ("small", "ingest", "bulk")
CLIENTS = {"small": 2, "ingest": 2, "bulk": 1}

# What each scope's notations can express; see stdlib/source/*.mmt.
SCOPES = {
    "arith1": {"arith"},
    "logic1": {"logic"},
    "relation1": {"rel"},
    "integer1": {"int1"},
    "set1": {"set"},
    "NumbersTest": {"arith", "set", "map", "rel"},
    "everything1": {"arith", "logic", "rel", "set", "map", "int1"},
}
INGESTED_CAPS = {"arith", "rel"}  # ingested theories include arith1, relation1

MAX_OPERATORS = 15
MAX_SET_LITERAL = 5


@dataclass(frozen=True)
class Request:
    """One HTTP request and the answer the server must give."""

    path: str
    body: bytes
    content_type: str
    status: int
    expect: object  # text/ingest: the exact body; XML: a tagged value
    write: bool = False

    @property
    def xml(self) -> bool:
        return self.content_type == OMXML


# ---------------------------------------------------------------------------
# Term trees: generation


class TermGen:
    """Random typed terms over the constructs one scope can express."""

    def __init__(self, rng: random.Random, caps: set):
        self.rng = rng
        self.caps = caps

    def split(self, n: int, k: int) -> list[int]:
        """``n`` operators shared out over ``k`` children."""
        cuts = sorted(self.rng.randint(0, n) for _ in range(k - 1))
        return [b - a for a, b in zip([0] + cuts, cuts + [n])]

    def lit(self):
        return ("int", self.rng.randint(0, 20))

    def integer(self, n: int, var: bool = False):
        r, caps = self.rng, self.caps
        if n <= 0:
            if var and r.random() < 0.6:
                return ("var", "x")
            return self.lit()
        ops = []
        if "arith" in caps:
            ops += ["plus", "times", "minus", "neg", "power"]
        if "int1" in caps and not var:
            ops += ["quotient", "remainder", "factorial"]
        if "set" in caps and not var:
            ops += ["size"]
        if not ops:
            return self.lit()
        op = r.choice(ops)
        m = n - 1
        if op in ("plus", "times"):
            k = r.randint(2, 3)
            return (op, *(self.integer(p, var) for p in self.split(m, k)))
        if op == "minus":
            a, b = self.split(m, 2)
            return (op, self.integer(a, var), self.integer(b, var))
        if op == "neg":
            return (op, self.integer(m, var))
        if op == "power":
            return (op, self.integer(min(m, 2), var), ("int", r.randint(0, 3)))
        if op in ("quotient", "remainder"):
            return (op, self.integer(m), ("int", r.randint(1, 9)))
        if op == "factorial":
            return (op, ("int", r.randint(0, 7)))
        return ("size", self.set_(m))

    def boolean(self, n: int):
        r, caps = self.rng, self.caps
        if n <= 0:
            if "logic" in caps:
                return ("bool", r.random() < 0.5)
            if "rel" in caps:
                return (r.choice(["lt", "gt", "leq", "geq", "eq", "neq"]),
                        self.lit(), self.lit())
            return ("in", self.lit(), self.set_(0))
        ops = []
        if "logic" in caps:
            ops += ["and", "or", "not", "implies"]
        if "rel" in caps:
            ops += ["lt", "gt", "leq", "geq", "eq", "neq", "eqb"]
            if "set" in caps:
                ops += ["eqs"]
        if "set" in caps:
            ops += ["in"]
        op = r.choice(ops)
        m = n - 1
        if op in ("and", "or"):
            k = r.randint(2, 3)
            return (op, *(self.boolean(p) for p in self.split(m, k)))
        if op == "not":
            return (op, self.boolean(m))
        if op == "implies":
            a, b = self.split(m, 2)
            return (op, self.boolean(a), self.boolean(b))
        a, b = self.split(m, 2)
        if op == "eqb":
            return (r.choice(["eq", "neq"]), self.boolean(a), self.boolean(b))
        if op == "eqs":
            return (r.choice(["eq", "neq"]), self.set_(a), self.set_(b))
        if op == "in":
            return (op, self.integer(a), self.set_(b))
        return (op, self.integer(a), self.integer(b))

    def set_(self, n: int):
        r, caps = self.rng, self.caps
        if n <= 0:
            k = r.randint(0, MAX_SET_LITERAL)
            return ("set", *(("int", r.randint(0, 9)) for _ in range(k)))
        ops = ["set", "union", "intersect"]
        if "map" in caps:
            ops += ["map"]
        op = r.choice(ops)
        m = n - 1
        if op == "set":
            k = r.randint(1, MAX_SET_LITERAL)
            return (op, *(self.integer(p) for p in self.split(m, k)))
        if op == "map":
            a, b = self.split(m, 2)
            return (op, self.set_(min(a, 1)), self.integer(max(b, 1), var=True))
        a, b = self.split(m, 2)
        return (op, self.set_(a), self.set_(b))

    def term(self, n: int):
        """A term of a type the scope can express, with ``n`` operators."""
        kinds = []
        if self.caps & {"arith", "int1"}:
            kinds.append(self.integer)
        if self.caps & {"logic", "rel"}:
            kinds.append(self.boolean)
        if "set" in self.caps:
            kinds += [self.set_, self.integer, self.boolean]
        return self.rng.choice(kinds)(n)


# ---------------------------------------------------------------------------
# Term trees: the oracle


def _euclid(a: int, b: int) -> tuple[int, int]:
    r = a % abs(b)
    return (a - r) // b, r


def evaluate(t, env=None):
    """The value of a term tree: an int, a bool, a frozenset or a tuple."""
    op, args = t[0], t[1:]
    if op in ("int", "bool"):
        return args[0]
    if op == "var":
        return env[args[0]]
    if op == "map":
        s, body = evaluate(args[0], env), args[1]
        return frozenset(evaluate(body, {"x": v}) for v in s)
    v = [evaluate(a, env) for a in args]
    if op == "plus":
        return sum(v)
    if op == "times":
        out = 1
        for x in v:
            out *= x
        return out
    if op == "minus":
        return v[0] - v[1]
    if op == "neg":
        return -v[0]
    if op == "power":
        return v[0] ** v[1]
    if op == "quotient":
        return _euclid(v[0], v[1])[0]
    if op == "remainder":
        return _euclid(v[0], v[1])[1]
    if op == "factorial":
        return factorial(v[0])
    if op == "and":
        return all(v)
    if op == "or":
        return any(v)
    if op == "not":
        return not v[0]
    if op == "implies":
        return (not v[0]) or v[1]
    if op == "eq":
        return v[0] == v[1]
    if op == "neq":
        return v[0] != v[1]
    if op == "lt":
        return v[0] < v[1]
    if op == "gt":
        return v[0] > v[1]
    if op == "leq":
        return v[0] <= v[1]
    if op == "geq":
        return v[0] >= v[1]
    if op == "set":
        return frozenset(v)
    if op == "union":
        return v[0] | v[1]
    if op == "intersect":
        return v[0] & v[1]
    if op == "in":
        return v[0] in v[1]
    if op == "size":
        return len(v[0])
    if op == "list":
        return tuple(v)
    if op == "append":
        return v[0] + v[1]
    if op == "append_many":
        return sum(v, ())
    raise ValueError(f"unknown operator {op}")


def render_value(v) -> str:
    """The server's notation rendering of a ground value."""
    if isinstance(v, bool):
        return "logic1?true" if v else "logic1?false"
    if isinstance(v, int):
        return str(v)
    if not v:
        return "∅"
    return "{" + ",".join(str(x) for x in sorted(v)) + "}"


def tag_value(v):
    """The tagged form ``xml_value`` decodes a response into."""
    if isinstance(v, bool):
        return ("bool", v)
    if isinstance(v, int):
        return ("int", v)
    if isinstance(v, tuple):
        return ("list", v)
    return ("set", tuple(sorted(v)))


# ---------------------------------------------------------------------------
# Term trees: encodings

_INFIX = {"plus": "+", "times": "*", "minus": "-", "power": "^", "and": "∧",
          "or": "∨", "implies": "⇒", "eq": "=", "neq": "≠", "lt": "<",
          "gt": ">", "leq": "≤", "geq": "≥", "union": "∪", "intersect": "∩",
          "in": "∈"}
_CALL = {"size": "set1?size", "quotient": "integer1?quotient",
         "remainder": "integer1?remainder", "factorial": "integer1?factorial"}
_ATOMIC = {"int", "bool", "var", "set"} | set(_CALL)


def to_text(t) -> str:
    op, args = t[0], t[1:]
    if op == "int":
        return str(args[0])
    if op == "bool":
        return "true" if args[0] else "false"
    if op == "var":
        return args[0]
    if op == "set":
        return "{" + ",".join(to_text(a) for a in args) + "}" if args else "∅"
    if op in _CALL:
        return f"{_CALL[op]}({', '.join(to_text(a) for a in args)})"
    if op == "neg":
        return "-" + _child(args[0])
    if op == "not":
        return "¬" + _child(args[0])
    if op == "map":
        return f"{_child(args[0])} map (x ↦ {to_text(args[1])})"
    return _INFIX[op].join(_child(a) for a in args)


def _child(t) -> str:
    # Every compound operand is parenthesized, so no precedence rule of the
    # notation parser decides the shape.
    return to_text(t) if t[0] in _ATOMIC else f"({to_text(t)})"


_SYMBOLS = {
    "plus": "arith1", "times": "arith1", "minus": "arith1", "neg": "arith1",
    "power": "arith1", "and": "logic1", "or": "logic1", "not": "logic1",
    "implies": "logic1", "eq": "relation1", "neq": "relation1",
    "lt": "relation1", "gt": "relation1", "leq": "relation1",
    "geq": "relation1", "set": "set1", "union": "set1", "intersect": "set1",
    "in": "set1", "size": "set1", "map": "set1", "quotient": "integer1",
    "remainder": "integer1", "factorial": "integer1"}
_NAMES = {"neg": "unary_minus"}


def _oms(cd: str, name: str, base: str | None = None) -> str:
    at = f' cdbase="{base}"' if base else ""
    return f'<OMS{at} cd="{cd}" name="{name}"/>'


def _cons_list(values, tail: str) -> str:
    cons = _oms("lists", "cons", LISTS)
    return ("".join(f"<OMA>{cons}<OMI>{v}</OMI>" for v in values) + tail
            + "</OMA>" * len(values))


def _xml(t) -> str:
    op, args = t[0], t[1:]
    if op == "int":
        return f"<OMI>{args[0]}</OMI>"
    if op == "bool":
        return _oms("logic1", "true" if args[0] else "false")
    if op == "var":
        return f'<OMV name="{args[0]}"/>'
    if op == "set" and not args:
        return _oms("set1", "emptyset")
    if op == "list":
        return _cons_list([a[1] for a in args], _oms("lists", "nil", LISTS))
    if op in ("append", "append_many"):
        cd = "lists" if op == "append" else "lists_ext"
        head = _oms(cd, op, LISTS)
        return f"<OMA>{head}{''.join(_xml(a) for a in args)}</OMA>"
    if op == "map":
        lam = (f"<OMBIND>{_oms('fns1', 'lambda')}<OMBVAR>"
               f'<OMV name="x"/></OMBVAR>{_xml(args[1])}</OMBIND>')
        return f"<OMA>{_oms('set1', 'map')}{lam}{_xml(args[0])}</OMA>"
    head = _oms(_SYMBOLS[op], _NAMES.get(op, op))
    return f"<OMA>{head}{''.join(_xml(a) for a in args)}</OMA>"


def to_xml(t) -> str:
    return (f'<OMOBJ xmlns="http://www.openmath.org/OpenMath" cdbase="{CD}">'
            f"{_xml(t)}</OMOBJ>")


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _is_oms(el, cd: str, name: str) -> bool:
    return _local(el.tag) == "OMS" and el.get("cd") == cd \
        and el.get("name") == name


def xml_value(body: bytes):
    """Decode a response into the form ``tag_value`` gives, or ``None``.

    Only ground values are recognized: an integer, a truth value, a set of
    integers, or a cons list of integers.  Lists are walked iteratively, so
    deep ones decode like shallow ones.
    """
    try:
        el = ET.fromstring(body)
    except ET.ParseError:
        return None
    if _local(el.tag) == "OMOBJ":
        if len(el) != 1:
            return None
        el = el[0]
    tag = _local(el.tag)
    if tag == "OMI":
        return ("int", int(el.text.strip()))
    for b in (True, False):
        if _is_oms(el, "logic1", "true" if b else "false"):
            return ("bool", b)
    if _is_oms(el, "set1", "emptyset"):
        return ("set", ())
    if tag == "OMA" and len(el) and _is_oms(el[0], "set1", "set"):
        if not all(_local(c.tag) == "OMI" for c in el[1:]):
            return None
        return ("set", tuple(int(c.text) for c in el[1:]))
    cells = []
    while tag == "OMA" and len(el) == 3 and _is_oms(el[0], "lists", "cons") \
            and _local(el[1].tag) == "OMI":
        cells.append(int(el[1].text))
        el = el[2]
        tag = _local(el.tag)
    if _is_oms(el, "lists", "nil"):
        return ("list", tuple(cells))
    return None


# ---------------------------------------------------------------------------
# Requests


def _simplify_text(scope: str, text: str, value) -> Request:
    return Request(f"/simplify?scope={scope}", text.encode("utf-8"), TEXT, 200,
                   render_value(value))


def _simplify_xml(t) -> Request:
    return Request("/simplify", to_xml(t).encode("utf-8"), OMXML, 200,
                   tag_value(evaluate(t)))


def small_request(rng: random.Random, scope: str, xml: bool,
                  caps=None) -> Request:
    gen = TermGen(rng, caps or SCOPES[scope])
    t = gen.term(rng.randint(0, MAX_OPERATORS - 3))
    if xml:
        return _simplify_xml(t)
    return _simplify_text(scope, to_text(t), evaluate(t))


def omdoc_request(rng: random.Random, client: int, k: int) -> tuple[Request, str]:
    """A fresh theory including arith1 and relation1; returns its bare name."""
    name = f"bench_c{client}_{k}"
    base = f"um:/bench/c{client}/d{k}"
    gen = TermGen(rng, {"arith"})
    consts = "".join(
        f'<constant name="k{i}"><definition>'
        f"<OMOBJ cdbase=\"{CD}\">{_xml(gen.integer(rng.randint(0, 4)))}</OMOBJ>"
        f"</definition></constant>"
        for i in range(rng.randint(1, 4)))
    doc = (f'<omdoc xmlns="http://omdoc.org/ns" base="{base}">'
           f'<theory name="{name}">'
           f'<include from="{CD}?arith1"/><include from="{CD}?relation1"/>'
           f"{consts}</theory></omdoc>")
    return Request("/theories", doc.encode("utf-8"), "application/xml", 201,
                   f"{base}?{name}\n", write=True), name


def probe_requests(seed: int, client: int, n: int) -> list[Request]:
    """``n`` ingests under client number ``client``, for workloads that
    write nothing themselves."""
    rng = random.Random(f"{seed}:probe:{client}")
    return [omdoc_request(rng, client, k)[0] for k in range(n)]


class Stream:
    """The request sequence of one client; ``get(i)`` extends it on demand."""

    def __init__(self, workload: str, seed: int, client: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.client = client
        self.rng = random.Random(f"{seed}:{workload}:{client}")
        self.requests: list[Request] = []
        self.ingested: list[str] = []
        self.writes = 0
        self.kind_counts: dict[str, int] = {}
        self.orders: dict[str, list] = {}

    def get(self, i: int) -> Request:
        while len(self.requests) <= i:
            self.requests.extend(getattr(self, f"_{self.workload}_block")())
        return self.requests[i]

    def digest(self, n: int) -> str:
        h = hashlib.sha256()
        for i in range(n):
            r = self.get(i)
            h.update(f"{r.path}\n{r.content_type}\n{len(r.body)}\n".encode())
            h.update(r.body)
        return h.hexdigest()

    # Blocks fix each workload's mix exactly; only the order within a block
    # and the terms themselves depend on the seed.

    def _small_block(self) -> list[Request]:
        """35 requests: per scope four text terms and one XML term."""
        kinds = [(s, x) for s in SCOPES for x in (False,) * 4 + (True,)]
        self.rng.shuffle(kinds)
        return [small_request(self.rng, s, x) for s, x in kinds]

    def _ingest(self) -> Request:
        req, name = omdoc_request(self.rng, self.client, self.writes)
        self.writes += 1
        self.ingested.append(name)
        return req

    def _ingest_block(self) -> list[Request]:
        """20 requests: 2 ingests, 9 texts in an ingested theory's scope and
        9 requests of the ``small`` mix.  The block opens with an ingest, so
        a scope of this client's own, already answered, always exists."""
        out = [self._ingest()]
        kinds = ["ingest"] + ["own"] * 9 + ["text"] * 7 + ["xml"] * 2
        self.rng.shuffle(kinds)
        for kind in kinds:
            if kind == "ingest":
                out.append(self._ingest())
            elif kind == "own":
                scope = self.rng.choice(self.ingested)
                out.append(small_request(self.rng, scope, False, INGESTED_CAPS))
            else:
                scope = self.rng.choice(list(SCOPES))
                out.append(small_request(self.rng, scope, kind == "xml"))
        return out

    def _bulk_block(self) -> list[Request]:
        kinds = ["sum", "nested", "setmap", "list"]
        self.rng.shuffle(kinds)
        return [self._bulk(kind) for kind in kinds]

    def _size(self, kind: str, lo: int, hi: int, strata: int = 8) -> int:
        """A size in ``[lo, hi)``.  Each cycle of ``strata`` sizes of a kind
        takes one from every stratum, in a fresh seeded order, so every run
        has the same size mix."""
        j = self.kind_counts.get(kind, 0)
        self.kind_counts[kind] = j + 1
        order = self.orders.setdefault(kind, [])
        if j % strata == 0:
            order[:] = self.rng.sample(range(strata), strata)
        point = (order[j % strata] + self.rng.random()) / strata
        return lo + int((hi - lo) * point)

    def _bulk(self, kind: str) -> Request:
        r = self.rng
        if kind == "sum":
            terms = [r.randint(0, 999) for _ in range(self._size(kind, 200, 3200))]
            return _simplify_text("arith1", "+".join(map(str, terms)), sum(terms))
        if kind == "nested":
            depth, start = self._size(kind, 50, 400), r.randint(0, 999)
            text = "(" * depth + str(start) + "+1)" * depth
            return _simplify_text("arith1", text, start + depth)
        if kind == "setmap":
            elems = r.sample(range(2000), self._size(kind, 50, 300))
            text = "{" + ",".join(map(str, elems)) + "} map (x ↦ -x*x+2*x+3)"
            return _simplify_text("NumbersTest", text,
                                  frozenset(-x * x + 2 * x + 3 for x in elems))
        cells = self._size(kind, 50, 400)
        many = self.kind_counts[kind] % 2 == 0
        parts = r.randint(3, 4) if many else 2
        cuts = sorted(r.sample(range(1, cells), parts - 1))
        lists = [("list", *(("int", r.randint(0, 999)) for _ in range(b - a)))
                 for a, b in zip([0] + cuts, cuts + [cells])]
        t = ("append_many" if many else "append", *lists)
        return _simplify_xml(t)


def streams(workload: str, seed: int) -> list[Stream]:
    return [Stream(workload, seed, c) for c in range(CLIENTS[workload])]
