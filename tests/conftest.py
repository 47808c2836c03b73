import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from umachine.codegen import build_graph, load


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
    return g.scope_for([g.resolve("NumbersTest"), g.resolve("logic1"),
                        g.resolve("integer1"), g.resolve("lists_ext"),
                        g.resolve("nums1")])
