import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from umachine.codegen import build_graph, load
from umachine.notation import ParseScope


@pytest.fixture(scope="session")
def loaded():
    """Stdlib graph + union rule base, shared read-only across tests."""
    graph, projects, bifoundation = build_graph()
    base, report = load(graph)
    return SimpleNamespace(graph=graph, base=base, report=report,
                           projects=projects, bifoundation=bifoundation)


@pytest.fixture(scope="session")
def scope_all(loaded):
    """A parse scope spanning the theories the generators draw from."""
    g = loaded.graph
    return ParseScope(*(g.scope_for(g.resolve(name)) for name in (
        "NumbersTest", "logic1", "integer1", "lists_ext", "nums1")))
