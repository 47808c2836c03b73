"""Reproduce the two recursion limits that keep ``bulk`` small.

Usage (from the root of a checkout): ``python3 perfbench/limits.py``

1. Against a fresh ``um serve``, grow each deep input until ``POST /simplify``
   stops answering 200, and print the first size that fails and its status.
2. Against another fresh server, let two clients send XML appends of 100-400
   cells at once for up to 30 seconds, and report whether the server died.
"""

from __future__ import annotations

import http.client
import random
import threading
import time

from loadgen import TIMEOUT_S, Server
from workloads import OMXML, TEXT, to_xml


def post(port: int, path: str, body: str, ctype: str) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("POST", path, body=body.encode("utf-8"),
                     headers={"Content-Type": ctype})
        resp = conn.getresponse()
        resp.read()
        return resp.status
    finally:
        conn.close()


def xml_append(cells: int) -> tuple[str, str, str]:
    """``append`` of a ``cells``-cell list and the empty list."""
    lst = ("list", *(("int", i) for i in range(cells)))
    return "/simplify", to_xml(("append", lst, ("list",))), OMXML


def text_cons(depth: int) -> tuple[str, str, str]:
    text = "".join(f"lists?cons({i}, " for i in range(depth)) + "lists?nil" \
        + ")" * depth
    return "/simplify?scope=lists", text, TEXT


def text_nested(depth: int) -> tuple[str, str, str]:
    return "/simplify?scope=arith1", "(" * depth + "0" + "+1)" * depth, TEXT


def first_failure(port: int, make, sizes):
    for n in sizes:
        status = post(port, *make(n))
        if status != 200:
            return n, status
    return None


def crash(seconds: float = 30.0) -> None:
    server = Server()
    rng = random.Random(0)
    deadline = time.perf_counter() + seconds
    statuses: list[int] = []

    def client():
        while time.perf_counter() < deadline and server.alive():
            try:
                statuses.append(post(server.port,
                                     *xml_append(rng.randint(100, 400))))
            except OSError:
                return

    threads = [threading.Thread(target=client) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    died = not server.alive()
    code = server.stop()
    errors = sum(s != 200 for s in statuses)
    if died:
        print(f"two clients: the server died after {len(statuses)} replies "
              f"({errors} not 200), exit code {code}:")
        print("\n".join(line for line in server.stderr().splitlines()
                        if line.startswith("Fatal Python error")))
    else:
        print(f"two clients: the server survived {len(statuses)} replies "
              f"({errors} not 200) in {seconds:.0f} s")


def main() -> None:
    server = Server()
    try:
        for label, make, sizes in (
                ("XML cons list cells", xml_append, range(300, 801, 25)),
                ("text lists?cons depth", text_cons, range(50, 601, 25)),
                ("text (…+1) depth", text_nested, range(300, 1001, 25))):
            hit = first_failure(server.port, make, sizes)
            if hit is None:
                print(f"{label}: every size up to {sizes[-1]} answered 200")
            else:
                print(f"{label}: first failure at {hit[0]}, status {hit[1]}")
    finally:
        server.stop()
    crash()


if __name__ == "__main__":
    main()
