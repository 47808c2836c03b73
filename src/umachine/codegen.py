"""Build processes over a project: extract, integrate, load.

A project root holds ``source/`` (``.mmt`` modules and ``.omdoc`` documents)
and ``generated/`` (derived stub files, one per realization view).  Each stub
function has an editable region bounded by ``// start <View>?<constant>`` and
``// end <View>?<constant>`` marker lines whose content mirrors the view's
escaped snippet.  ``extract`` is deterministic; ``integrate`` splices region
edits back into the ``.mmt`` sources byte-exactly; ``load`` binds the
compiled-in registry, builds the union rule base, and runs the FMP tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import stdlib
from .graph import (COMPUTATION, OPENMATH, Assignment, Constant, TheoryGraph,
                    View, snippet_body)
from .machine import RuleBase, SimplifyBudget
from .notation import escape_str
from .omdoc import ingest_omdoc
from .realization import (Bifoundation, TestReport, collect_tests,
                          install_bifoundations, rules_of, run_tests)
from .sts import Binder, Fixed, Flexible, declared_arity
from .surface import parse_modules
from .terms import Bind, GlobalName, ModuleRef


class MarkerError(ValueError):
    pass


@dataclass
class Project:
    root: Path
    modules: list[ModuleRef] = field(default_factory=list)

    @property
    def generated_dir(self) -> Path:
        return self.root / "generated"


def source_files(root: Path) -> list[Path]:
    src = Path(root) / "source"
    if not src.is_dir():
        return []
    return sorted(src.glob("*.omdoc")) + sorted(src.glob("*.mmt"))


def load_sources(graph: TheoryGraph, root: Path) -> list[ModuleRef]:
    added: list[ModuleRef] = []
    for path in source_files(root):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".omdoc":
            added.extend(t.name for t in ingest_omdoc(graph, text))
        else:
            added.extend(parse_modules(graph, text, str(path)))
    return added


def build_graph(roots=(), with_stdlib: bool = True) \
        -> tuple[TheoryGraph, dict[Path, Project], Bifoundation]:
    """A fresh graph with builtins, bifoundations, stdlib, and the projects."""
    graph = TheoryGraph()
    bifoundation = install_bifoundations(graph)
    ordered: list[Path] = []
    if with_stdlib:
        ordered.append(stdlib.root())
    for r in roots:
        rr = Path(r).resolve()
        if not rr.is_dir():
            raise FileNotFoundError(f"project root {r} does not exist")
        if rr not in ordered:
            ordered.append(rr)
    projects: dict[Path, Project] = {}
    for r in ordered:
        projects[r] = Project(r, load_sources(graph, r))
    return graph, projects, bifoundation


def realization_views(graph: TheoryGraph, modules=None) -> list[View]:
    """Views into the Computation target (bifoundation embeddings excluded)."""
    out = []
    for m in graph.views():
        if modules is not None and m.name not in modules:
            continue
        if m.codomain == COMPUTATION and m.domain != OPENMATH:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# extract


def _param_list(c: Constant, assignment: Assignment) -> str | None:
    """A stub's parameters, one per argument of the constant's arity, named
    as in the snippet or by default; None for a value, of arity 0."""
    arity = declared_arity(c) or Fixed(0)
    if isinstance(arity, Binder):
        slots = [("ctx", "Context"), ("body", "Term")]
    else:
        slots = [(f"x{i + 1}", "Term") for i in range(arity.n)]
        if isinstance(arity, Flexible):
            slots.append(("rest", "List[Term]"))
    if not slots:
        return None
    names = assignment.target.context \
        if isinstance(assignment.target, Bind) else ()
    return "(" + ", ".join(f"{names[i] if i < len(names) else name}: {kind}"
                           for i, (name, kind) in enumerate(slots)) + ")"


def extract(graph: TheoryGraph, project: Project) -> list[Path]:
    """Write one stub file per realization view; deterministic output."""
    written = []
    views = realization_views(graph, set(project.modules))
    if not views:
        return written
    project.generated_dir.mkdir(parents=True, exist_ok=True)
    for view in views:
        lines = [f"realization {view.name.module} : "
                 f"{view.domain.module} -> {view.codomain.module}", ""]
        for g, c in graph.flatten(view.domain):
            a = view.assignment(c.name)  # local assignments only
            if a is None:
                continue
            f = snippet_body(a.target)
            if f is None:
                continue
            marker = f"{view.name.module}?{c.name}"
            params = _param_list(c, a)
            if params is None:
                lines.append(f"value {g.module}_{c.name}: Term")
            else:
                lines.append(f"function {g.module}_{c.name}{params}: Term")
            lines.append(f"  // start {marker}")
            lines.extend(f.content.split("\n"))
            lines.append(f"  // end {marker}")
            lines.append("")
        path = project.generated_dir / f"{view.name.module}.native"
        path.write_text("\n".join(lines), encoding="utf-8")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# integrate


def _parse_regions(text: str, path: Path) -> dict[str, str]:
    regions: dict[str, str] = {}
    current: str | None = None
    acc: list[str] = []
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped.startswith("// start "):
            if current is not None:
                raise MarkerError(f"{path}: marker {current!r} not closed "
                                  f"before the next start marker")
            current = stripped[len("// start "):].strip()
            if current in regions:
                raise MarkerError(f"{path}: duplicate marker {current!r}")
            acc = []
        elif stripped.startswith("// end "):
            name = stripped[len("// end "):].strip()
            if current is None:
                raise MarkerError(f"{path}: stray end marker {name!r}")
            if name != current:
                raise MarkerError(f"{path}: end marker {name!r} does not "
                                  f"match start marker {current!r}")
            regions[current] = "\n".join(acc)
            current = None
        elif current is not None:
            acc.append(line)
    if current is not None:
        raise MarkerError(f"{path}: marker {current!r} has no end marker")
    return regions


def integrate(graph: TheoryGraph, project: Project) -> list[Path]:
    """Splice region edits back into the view sources; returns changed files."""
    views = {v.name.module: v for v in realization_views(
        graph, set(project.modules))}
    edits: dict[str, list[tuple[int, int, str]]] = {}
    gen = project.generated_dir
    if not gen.is_dir():
        return []
    for path in sorted(gen.glob("*.native")):
        regions = _parse_regions(path.read_text(encoding="utf-8"), path)
        for marker, content in regions.items():
            if "?" not in marker:
                raise MarkerError(f"{path}: malformed marker {marker!r}")
            vname, cname = marker.split("?", 1)
            view = views.get(vname)
            a = view.assignment(cname) if view is not None else None
            if a is None:
                raise MarkerError(
                    f"{path}: region {marker!r} has no matching assignment")
            f = snippet_body(a.target)
            if f is None or a.snippet_span is None:
                raise MarkerError(
                    f"{path}: {marker!r} is not an escaped assignment")
            if content == f.content:
                continue
            src, start, end = a.snippet_span
            edits.setdefault(src, []).append((start, end, escape_str(content)))
    changed = []
    for src, spans in edits.items():
        text = Path(src).read_text(encoding="utf-8")
        for start, end, replacement in sorted(spans, reverse=True):
            text = text[:start] + replacement + text[end:]
        Path(src).write_text(text, encoding="utf-8")
        changed.append(Path(src))
    return changed


# ---------------------------------------------------------------------------
# load


@dataclass
class LoadReport:
    rule_count: int
    unimplemented: list[GlobalName]
    tests: TestReport

    def lines(self) -> list[str]:
        out = [f"rules registered: {self.rule_count}"]
        for g in self.unimplemented:
            out.append(f"unimplemented: {g.local}")
        out.extend(self.tests.lines())
        return out

    def __str__(self):
        return "\n".join(self.lines())


def load(graph: TheoryGraph,
         budget: SimplifyBudget = SimplifyBudget()) \
        -> tuple[RuleBase, LoadReport]:
    """Build the union rule base of all loaded realizations and run the tests."""
    base = RuleBase()
    unimplemented: dict[GlobalName, None] = {}  # an ordered set
    for view in realization_views(graph):
        report = rules_of(graph, view.name)
        for rule in report.base.rules():
            base.add(rule)
        unimplemented.update(dict.fromkeys(report.unimplemented))
    tests = run_tests(graph, base, collect_tests(graph), budget)
    return base, LoadReport(len(base), list(unimplemented), tests)
