"""Server processes and the closed-loop clients that drive them.

Each client thread keeps one ``http.client.HTTPConnection`` and waits for
every reply before sending its next request.  The HTTP/1.0 server closes the
connection after each reply and the client reconnects; because the client
always tries to reuse its connection, keep-alive shows up as fewer connects.
"""

from __future__ import annotations

import http.client
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Request, xml_value

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A request that fails counts as missing every latency limit: it enters the
# latency distribution with this value, the client's reply timeout.
TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def server_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("UM_FUEL", "UM_PORT", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def host_steal() -> tuple[int, int]:
    """Clock ticks the host took from this machine's processors, and all
    ticks, so far (``/proc/stat``)."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


class Server:
    """One server process: ``um serve`` itself, or the tracing launcher."""

    def __init__(self, traced: bool = False):
        self.port = free_port()
        if traced:
            cmd = [sys.executable, str(HERE / "launcher.py")]
        else:
            cmd = [sys.executable, "-m", "umachine.cli", "serve"]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + ["--port", str(self.port)], cwd=ROOT, env=server_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        self._out: list[bytes] = []
        self._err: list[bytes] = []
        self._readers = [
            threading.Thread(target=lambda: self._out.append(self.proc.stdout.read()),
                             daemon=True),
            threading.Thread(target=lambda: self._err.append(self.proc.stderr.read()),
                             daemon=True)]
        for t in self._readers:
            t.start()
        self.setup_s = self._wait_healthy()

    def _wait_healthy(self, limit_s: float = 60.0) -> float:
        """Seconds from spawn until ``GET /health`` answers 200."""
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up:\n{self.stderr()}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/health")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() - self.started > limit_s:
                self.stop()
                raise RuntimeError("server did not become healthy")
            time.sleep(0.001)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server process has used."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.read().decode("utf-8")
        finally:
            conn.close()

    def stop(self) -> int:
        """Terminate, wait, and return the exit code."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for t in self._readers:
            t.join(timeout=30)
        return self.proc.returncode

    def stdout(self) -> str:
        return b"".join(self._out).decode("utf-8", "replace")

    def stderr(self) -> str:
        return b"".join(self._err).decode("utf-8", "replace")


class CountingConnection(http.client.HTTPConnection):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


@dataclass
class Outcome:
    """One request as the client saw it."""

    index: int
    write: bool
    latency_s: float
    ok: bool
    steps: int
    done_at: float
    error: str = ""


@dataclass
class ClientResult:
    outcomes: list = field(default_factory=list)
    connects: int = 0


def check(req: Request, status: int, body: bytes) -> str:
    """An empty string when the reply matches the oracle, else why not."""
    if status != req.status:
        return f"status {status}, expected {req.status}: {body[:200]!r}"
    if req.xml:
        got = xml_value(body)
        if got != req.expect:
            return f"wrong XML body {body[:200]!r}, expected {req.expect!r}"
    elif body.decode("utf-8", "replace") != req.expect:
        return f"wrong body {body[:200]!r}, expected {req.expect!r}"
    return ""


def run_client(server: Server, get, deadline: float, result: ClientResult,
               count: int | None = None):
    """Send requests ``get(i)``, ``get(i + 1)``, ... from ``i``, the number
    of outcomes ``result`` holds already, until ``deadline`` passes or
    ``result`` holds ``count``."""
    conn = CountingConnection("127.0.0.1", server.port, timeout=TIMEOUT_S)
    i = len(result.outcomes)
    try:
        while time.perf_counter() < deadline and (count is None or i < count):
            req = get(i)
            start = time.perf_counter()
            try:
                conn.request("POST", req.path, body=req.body,
                             headers={"Content-Type": req.content_type})
                resp = conn.getresponse()
                body = resp.read()
                end = time.perf_counter()
                error = check(req, resp.status, body)
                steps = int(resp.getheader("X-Simplify-Steps") or 0)
            except (OSError, http.client.HTTPException) as e:
                conn.close()
                end, error, steps = time.perf_counter(), f"transport: {e!r}", 0
            ok = not error
            result.outcomes.append(Outcome(
                i, req.write, end - start if ok else TIMEOUT_S, ok, steps, end,
                error))
            i += 1
            if not ok and not server.alive():
                break
    finally:
        conn.close()
        result.connects += conn.connects


def drive(server: Server, getters, seconds: float, count: int | None = None,
          results: list[ClientResult] | None = None):
    """Run one client thread per request getter until ``seconds`` pass or
    each client has ``count`` outcomes.  ``results`` from an earlier call
    continue where they stopped.  Returns the per-client results and the
    wall time from start to the last reply."""
    results = results or [ClientResult() for _ in getters]
    start = time.perf_counter()
    deadline = start + seconds
    threads = [threading.Thread(target=run_client,
                                args=(server, get, deadline, r, count))
               for get, r in zip(getters, results)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    last = max((o.done_at for r in results for o in r.outcomes), default=start)
    return results, max(last - start, 0.0)
