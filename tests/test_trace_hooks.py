"""The benchmark's tracer (``perfbench/launcher.py``) wraps entry points of
the package by name, from outside it.  Installing it here, in a fresh
interpreter, makes a change that deletes or renames a wrapped name fail on
every interpreter, not only where the traced benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Install the tracer, then simplify under one traced span: the node whose
# head rule declines is built through the wrapped ``machine.mark``.
SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import launcher
from umachine import machine, server
from umachine.terms import IntLit, Var, app

tracer = launcher.Tracer()
launcher.install(tracer)
result = server.simplify(machine.RuleBase(), app(Var("f"), IntLit(1)))
[span] = tracer.spans
assert span[0] == "simplify" and span[7]["steps"] == 0, span
assert span[7]["mark"][0] == 1, span
"""


def test_the_benchmark_tracer_installs_and_counts_marks():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
