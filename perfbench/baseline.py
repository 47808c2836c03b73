"""Print every metric of every workload as one Markdown table.

Usage (from the root of a checkout):
``python3 perfbench/baseline.py [--seed N] [--seconds S]``

Runs ``run.py`` on each workload with ``--trace 0`` (end-to-end metrics) and
``--trace 1`` (per-layer metrics), one after the other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int):
    """The host line, the JSON result, and every metric of the table as
    ``name -> (value, unit)``."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    table = {}
    for line in lines:
        if line.startswith("  "):
            name, value, unit = line.split()[:3]
            table[name] = (float(value), unit)
    return lines[1], json.loads(lines[-1]), table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    rows: dict[str, tuple[str, dict]] = {}
    checks: dict[str, list[str]] = {w: [] for w in WORKLOADS}
    host = ""
    for trace in (0, 1):
        for w in WORKLOADS:
            host, result, table = run(w, args.seed, args.seconds, trace)
            checks[w].append(f"{result['failed']}/{result['attempted']}")
            for name, (value, unit) in table.items():
                rows.setdefault(name, (unit, {}))[1][w] = value
    print(f"seed {args.seed}, {args.seconds:g} s per run; {host}")
    print()
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("| --- | --- |" + " --- |" * len(WORKLOADS))
    print("| failed/attempted (untraced, traced run) | count | "
          + " | ".join(", ".join(checks[w]) for w in WORKLOADS) + " |")
    for name, (unit, values) in rows.items():
        print(f"| `{name}` | {unit} | "
              + " | ".join(f"{values[w]:.4g}" for w in WORKLOADS) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
