"""Loopback benchmark of the umachine simplification service.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload small|ingest|bulk --seed N \
        --seconds S --trace 0|1

It starts ``um serve`` (``python3 -m umachine.cli serve`` over ``src/``) as its
own process and drives it over loopback from client threads of this process,
closed loop: each client waits for every reply before it sends the next
request.  Every reply is checked against the answer ``workloads.py``
computes itself.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
requests against ``um serve`` and against ``launcher.py`` (``um serve`` with
spans around each layer), in turns, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a table of the metrics with their units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import layers
import workloads
from loadgen import (SRC, ClientResult, Server, drive, host_steal,
                     server_env)
from workloads import CLIENTS, WORKLOADS

# Start-ups per run; ``setup_s`` is their median.
SETUP_STARTS = 9
# Requests generated per client and second before the clock starts, above the
# rate any workload reaches here; the streams extend themselves beyond that.
RATE = {"small": 700, "ingest": 700, "bulk": 70}
# ``machine.steps`` sums the steps of this many first requests per client, so
# that it is the same count on every run with the same seed.
STEPS_PREFIX = {"small": 300, "ingest": 300, "bulk": 24}
# On a workload without writes of its own, two clients send this many
# ``POST /theories`` each right after every server start, so that every
# workload reports write latency, sampled at each of the start-ups.
WRITE_PROBE = 20
# Turns of the plain and the traced server in a traced run.
TRACE_ROUNDS = 3

# The end-to-end metrics of BENCHMARK.json, in the JSON result.
E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "server_cpu_ms": "ms",
             "server_rss_mb": "MiB"}
# End-to-end metrics only printed in the table.  Host CPU steal on a shared
# machine moves them between runs by more than any bound would allow.
INFO_UNITS = {"latency_p99_ms": "ms", "throughput_rps": "1/s",
              "write_latency_p50_ms": "ms"}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, -(-len(ordered) * p // 100) - 1)
    return ordered[int(k)]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start(args, traced: bool = False) -> tuple[Server, list]:
    """A fresh server, and the outcomes of its write probe if it gets one."""
    server = Server(traced)
    if args.workload == "ingest":
        return server, []
    probes = [workloads.probe_requests(args.seed, CLIENTS[args.workload] + c,
                                       WRITE_PROBE) for c in range(2)]
    results, _ = drive(server, [p.__getitem__ for p in probes], float("inf"),
                       WRITE_PROBE)
    return server, [o for r in results for o in r.outcomes]


class Phase:
    """One server process, driven in one or more timed chunks, then stopped
    by ``finish``."""

    def __init__(self, server: Server, streams, probe=()):
        self.server = server
        self.streams = streams
        self.probe = list(probe)
        self.results = [ClientResult() for _ in streams]
        self.wall_s = self.cpu_s = 0.0
        self.steal = [0, 0]

    def run(self, seconds: float) -> None:
        server = self.server
        if not server.alive():
            return
        cpu, steal = server.cpu_s(), host_steal()
        _, wall = drive(server, [s.get for s in self.streams], seconds,
                        results=self.results)
        self.wall_s += wall
        self.steal = [t + b - a for t, a, b in zip(self.steal, steal, host_steal())]
        if server.alive():
            self.cpu_s += server.cpu_s() - cpu

    def finish(self) -> "Phase":
        server = self.server
        try:
            self.alive = server.alive()
            self.rss_mb = server.peak_rss_mb() if self.alive else 0.0
            self.modules = len(server.get("/theories").splitlines()) \
                if self.alive else 0
        finally:
            self.exit_code = server.stop()
        self.outcomes = [o for r in self.results for o in r.outcomes]
        self.unsent = 0
        if not self.alive:
            sent = [len(r.outcomes) for r in self.results]
            self.unsent = sum(max(0, len(s.requests) - n)
                              for s, n in zip(self.streams, sent))
            log("!!! THE SERVER PROCESS DIED DURING THE RUN "
                f"(exit code {self.exit_code}); the {self.unsent} requests "
                "not yet sent count as failed. Its standard error:\n"
                + server.stderr())
        everything = self.outcomes + self.probe
        self.attempted = len(everything) + self.unsent
        self.failed = sum(not o.ok for o in everything) + self.unsent
        for o in [o for o in everything if not o.ok][:5]:
            log(f"failed request {o.index}: {o.error}")
        return self

    @property
    def ok_rps(self) -> float:
        return sum(o.ok for o in self.outcomes) / self.wall_s

    def steps_prefix(self, n: int) -> int:
        total = 0
        for r in self.results:
            done = [o for o in r.outcomes if o.index < n]
            if len(done) < n:
                log(f"only {len(done)} of the first {n} requests of a client "
                    "ran; machine.steps does not cover the full prefix")
            total += sum(o.steps for o in done)
        return total


def end_to_end(args, streams) -> tuple[dict, Phase]:
    setups, probes, server = [], [], None
    for k in range(SETUP_STARTS):
        if server is not None:
            server.stop()
        server, probe = start(args)
        setups.append(server.setup_s)
        probes.append(probe)
    phase = Phase(server, streams, [o for p in probes for o in p])
    phase.run(args.seconds)
    phase.finish()
    lat = [o.latency_s * 1e3 for o in phase.outcomes]
    writes = [o.latency_s * 1e3 for o in phase.outcomes if o.write]
    write_p50 = percentile(writes, 50) if writes else statistics.median(
        percentile([o.latency_s * 1e3 for o in p], 50) for p in probes)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p99_ms": percentile(lat, 99),
        "throughput_rps": phase.ok_rps,
        "server_cpu_ms": phase.cpu_s * 1e3 / max(len(phase.outcomes), 1),
        "server_rss_mb": phase.rss_mb,
        "write_latency_p50_ms": write_p50,
    }, phase


def traced(args, streams) -> tuple[dict, list[Phase]]:
    # The plain and the traced server take turns in short chunks, half the
    # time each, so that a drift of the host's speed hits both alike and a
    # traced run lasts as long as an untraced one.
    server, probe = start(args)
    plain = Phase(server, streams, probe)
    server, probe = start(args, traced=True)
    phase = Phase(server, streams, probe)
    chunk = args.seconds / (2 * TRACE_ROUNDS)
    for _ in range(TRACE_ROUNDS):
        plain.run(chunk)
        phase.run(chunk)
    plain.finish()
    phase.finish()
    # A launcher that crashed wrote no spans; the failures already make the
    # result incorrect.
    dump = {"import_ms": 0.0, "spans": []}
    if phase.alive:
        dump = json.loads(phase.server.stdout().strip().splitlines()[-1])
    metrics = layers.per_layer(dump["spans"], dump["import_ms"])
    simplify_ms = [o.latency_s * 1e3 for o in phase.outcomes if not o.write]
    metrics.update({
        "server.transport_us": percentile(simplify_ms, 50) * 1e3
        - metrics["server.request_us"],
        "server.connects_per_request": layers.ratio(
            sum(r.connects for r in phase.results), len(phase.outcomes)),
        "graph.modules": phase.modules,
        "machine.steps": phase.steps_prefix(STEPS_PREFIX[args.workload]),
        "trace.overhead_ratio": layers.ratio(plain.ok_rps, phase.ok_rps),
    })
    return {k: metrics[k] for k in layers.UNITS}, [plain, phase]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "umachine" / "cli.py").is_file():
        log(f"no umachine sources at {SRC}; run from the root of a checkout")
        return 2

    streams = workloads.streams(args.workload, args.seed)
    ahead = int(RATE[args.workload] * args.seconds)
    for s in streams:
        s.get(ahead - 1)
    digest = streams[0].digest(min(ahead, 1000))
    # Compile the package once, so no start-up pays for writing bytecode.
    subprocess.run([sys.executable, "-c", "import umachine.cli"],
                   env=server_env(), check=True)

    if args.trace:
        metrics, phases = traced(args, streams)
        units, info = layers.UNITS, {}
    else:
        metrics, phase = end_to_end(args, streams)
        phases = [phase]
        units, info = E2E_UNITS, INFO_UNITS
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    steal = sum(ph.steal[0] for ph in phases) / sum(ph.steal[1] for ph in phases)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  clients {CLIENTS[args.workload]}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}"
          f"  cpu {cpu_model()}  requests sha256 {digest[:16]}")
    print(f"attempted {attempted}  failed {failed}  failed_ratio "
          f"{failed / max(attempted, 1):.6f}  host steal {steal:.1%} of CPU "
          "time while timed")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    for name, unit in info.items():
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit}  (table only)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
