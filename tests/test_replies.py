"""The service answers the benchmark's request streams as it did when the
digests below were taken: the first 300 requests of every client of each
workload at seed 1 (``perfbench/workloads.py``), sent through ``Service`` in
process, one graph per workload.  The digest covers each reply's status,
content type, headers and body.  A change that alters a reply on purpose
takes the new digest and says why in CHANGES.md."""

import hashlib
import sys
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest

from umachine.codegen import build_graph, load
from umachine.server import Service

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

REQUESTS_PER_CLIENT = 300
DIGESTS = {
    "small": "33ede9664f866e861cb79ec4481dccaeaaf6e3cffff40b7965c6ac17172c6f87",
    "ingest": "8f0bc8069bfb8479ac22387cae52347dd1ab91a14c3d38384c66f1be31f77b88",
    "bulk": "ff1c5567ea0678a1c4a2a73526a576d42ae9abc65605d8fd9e04889a01a7db20",
}


def _reply_digest(workload: str) -> str:
    graph, _, _ = build_graph()
    service = Service(graph, load(graph)[0])
    streams = workloads.streams(workload, 1)
    h = hashlib.sha256()
    for i in range(REQUESTS_PER_CLIENT):
        for stream in streams:  # the clients in turn
            req = stream.get(i)
            url = urlsplit(req.path)
            if url.path == "/theories":
                r = service.ingest(req.body)
            else:
                query = parse_qs(url.query)
                r = service.simplify_request(
                    req.body, req.content_type,
                    (query.get("scope") or [None])[0],
                    (query.get("fuel") or [None])[0])
            h.update(repr((r.status, r.content_type,
                           sorted(r.headers.items()), r.body)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_the_replies_to_the_benchmark_streams_are_unchanged(workload):
    assert _reply_digest(workload) == DIGESTS[workload]
