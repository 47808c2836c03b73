"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import json
import subprocess
import sys

import pytest

import layers
import run
import workloads
from launcher import Tracer
from loadgen import HERE, ROOT, check
from workloads import Stream


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload):
    a, b = Stream(workload, 11, 0), Stream(workload, 11, 0)
    n = 60 if workload == "bulk" else 400
    assert [a.get(i) for i in range(n)] == [b.get(i) for i in range(n)]
    assert a.digest(n) == b.digest(n)
    assert Stream(workload, 12, 0).digest(n) != a.digest(n)
    assert Stream(workload, 11, 1).digest(n) != a.digest(n)


def test_oracle_agrees_with_the_service():
    from umachine.codegen import build_graph, load
    from umachine.server import Service
    graph, _, _ = build_graph()
    service = Service(graph, load(graph)[0])
    for workload, n in (("small", 300), ("ingest", 300), ("bulk", 8)):
        stream = Stream(workload, 3, 0)
        for i in range(n):
            req = stream.get(i)
            if req.write:
                r = service.ingest(req.body)
            else:
                scope = req.path.partition("scope=")[2] or None
                r = service.simplify_request(req.body, req.content_type,
                                             scope, None)
            assert check(req, r.status, r.body.encode()) == "", req


def test_oracle_rejects_wrong_answers():
    text = workloads.small_request(workloads.random.Random(1), "arith1", False)
    good = text.expect.encode()
    assert check(text, 200, good) == ""
    assert check(text, 200, good + b"0") != ""
    assert check(text, 500, good) != ""
    xml = workloads._simplify_xml(("plus", ("int", 2), ("int", 3)))
    assert check(xml, 200, b"<OMOBJ><OMI>5</OMI></OMOBJ>") == ""
    assert check(xml, 200, b"<OMOBJ><OMI>6</OMI></OMOBJ>") != ""
    assert check(xml, 200, b"<OMOBJ><OMI>5") != ""
    lst = workloads._simplify_xml(("append", ("list", ("int", 1)),
                                   ("list", ("int", 2))))
    cons = workloads._cons_list
    nil = workloads._oms("lists", "nil", workloads.LISTS)
    assert check(lst, 200, cons([1, 2], nil).encode()) == ""
    assert check(lst, 200, cons([2, 1], nil).encode()) != ""
    assert check(lst, 200, cons([1, 2], "<OMI>0</OMI>").encode()) != ""


def span(name, sid, parent, start, end, tail=0, extra=None):
    return [name, start, end, tail, sid, parent, 1, extra or {}]


def test_self_time_arithmetic():
    spans = [
        span("request", 1, 0, 0, 100),
        span("a", 2, 1, 10, 30, tail=5),        # covers 10..35
        span("b", 3, 1, 30, 50),                # overlaps a's tail: 35..50
        span("c", 4, 1, 90, 120),               # clipped to 90..100
        span("leafy", 5, 3, 30, 50, extra={"rule": [3, 8, 0], "mark": [2, 4, 0]}),
    ]
    selfs = layers.self_times(spans)
    assert selfs[1] == 100 - (35 - 10) - (50 - 35) - (100 - 90)
    assert selfs[2] == 20
    assert selfs[3] == 0
    assert selfs[5] == 20 - 8 - 4
    assert layers.covered(0, 10, []) == 0
    assert layers.covered(0, 10, [(2, 4), (3, 6), (8, 20)]) == 6


def test_wrappers_pass_values_and_exceptions_through():
    tracer = Tracer()
    marker = object()
    traced = tracer.wrap("f", lambda x, y=1: (x, y, marker))
    assert traced(2, y=3) == (2, 3, marker)

    class Boom(Exception):
        pass

    error = Boom("x")

    def raise_it():
        raise error

    with pytest.raises(Boom) as info:
        tracer.wrap("g", raise_it)()
    assert info.value is error
    assert [s[0] for s in tracer.spans] == ["f", "g"]

    outer = tracer.wrap("outer", lambda: tracer.leaf("rule", raise_it)())
    with pytest.raises(Boom) as info:
        outer()
    assert info.value is error
    assert tracer.spans[-1][7]["rule"][0] == 1 and tracer.spans[-1][7]["rule"][2] == 1
    leaf = tracer.leaf("mark", lambda t: t)
    assert leaf(marker) is marker


@pytest.mark.parametrize("workload,trace", [("small", 0), ("ingest", 0),
                                            ("bulk", 0), ("bulk", 1)])
def test_smoke_run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    units = layers.UNITS if trace else run.E2E_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
