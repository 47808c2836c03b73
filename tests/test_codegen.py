import shutil
from pathlib import Path

import pytest

import umachine.stdlib as stdlib
from umachine.codegen import (MarkerError, build_graph, extract, integrate,
                              load, source_files)


@pytest.fixture()
def stdlib_copy(tmp_path):
    root = tmp_path / "std"
    shutil.copytree(stdlib.root() / "source", root / "source")
    return root


def _project(root):
    graph, projects, _ = build_graph([root], with_stdlib=False)
    return graph, projects[Path(root).resolve()]


def test_extract_is_deterministic(stdlib_copy):
    graph, project = _project(stdlib_copy)
    first = {p.name: p.read_bytes() for p in extract(graph, project)}
    graph2, project2 = _project(stdlib_copy)
    second = {p.name: p.read_bytes() for p in extract(graph2, project2)}
    assert first == second and first


def test_extract_stub_regions(tmp_path):
    root = tmp_path / "na"
    (root / "source").mkdir(parents=True)
    (root / "source" / "numberarith.mmt").write_text("""\
document http://www.openmath.org/cd

view NumberArith : arith1 -> Computation
  constant plus = (args: List[Term]) "
  "
  constant minus = (a: Term, b: Term) "(OMI(x), OMI(y)) -> OMI(x - y)"
""", encoding="utf-8")
    graph, projects, _ = build_graph([root])
    written = extract(graph, projects[root.resolve()])
    assert [p.name for p in written] == ["NumberArith.native"]
    text = written[0].read_text()
    assert "function arith1_plus(args: List[Term]): Term" in text
    assert "// start NumberArith?plus" in text
    assert "// end NumberArith?plus" in text
    plus_region = text.split("// start NumberArith?plus")[1] \
                      .split("// end NumberArith?plus")[0]
    assert plus_region.strip() == ""
    minus_region = text.split("// start NumberArith?minus")[1] \
                       .split("// end NumberArith?minus")[0]
    assert "OMI(x - y)" in minus_region


def test_extract_writes_a_constant_of_arity_0_as_a_value(tmp_path):
    # An untyped constant is a value whatever its snippet's parameter list
    # (which ``um check`` refuses), and so is one of type Object.
    root = tmp_path / "t"
    (root / "source").mkdir(parents=True)
    (root / "source" / "t.mmt").write_text("""\
document um:/t
theory T : OpenMath
  constant f
  constant g : Object → Object
  constant v : Object
view V : T -> Computation
  constant f = (a: Term) "a"
  constant g = (a: Term) "a"
  constant v = "v"
""", encoding="utf-8")
    graph, project = _project(root)
    lines = extract(graph, project)[0].read_text().splitlines()
    assert [l for l in lines if l.startswith(("value", "function"))] == [
        "value T_f: Term", "function T_g(a: Term): Term", "value T_v: Term"]


def test_extract_without_views_writes_nothing(tmp_path):
    root = tmp_path / "noviews"
    (root / "source").mkdir(parents=True)
    (root / "source" / "t.mmt").write_text(
        "document um:/t\n\ntheory T : OpenMath\n  constant c : Object\n",
        encoding="utf-8")
    graph, projects, _ = build_graph([root])
    assert extract(graph, projects[root.resolve()]) == []


def test_integrate_untouched_changes_nothing(stdlib_copy):
    graph, project = _project(stdlib_copy)
    extract(graph, project)
    before = {p.name: p.read_bytes()
              for p in (stdlib_copy / "source").iterdir()}
    graph2, project2 = _project(stdlib_copy)
    assert integrate(graph2, project2) == []
    after = {p.name: p.read_bytes()
             for p in (stdlib_copy / "source").iterdir()}
    assert before == after


def test_integrate_applies_region_edit(stdlib_copy):
    graph, project = _project(stdlib_copy)
    extract(graph, project)
    stub = project.generated_dir / "IntegerArith.native"
    text = stub.read_text()
    marker = "// start IntegerArith?plus"
    end = "// end IntegerArith?plus"
    edited = "  sum the literal arguments (edited)"
    head, rest = text.split(marker)
    _, tail = rest.split(end, 1)
    stub.write_text(head + marker + "\n" + edited + "\n  " + end + tail)

    graph2, project2 = _project(stdlib_copy)
    changed = integrate(graph2, project2)
    assert [c.name for c in changed] == ["realizations.mmt"]
    source = (stdlib_copy / "source" / "realizations.mmt").read_text()
    assert "sum the literal arguments (edited)" in source

    # The edit survives a re-extract verbatim.
    graph3, project3 = _project(stdlib_copy)
    extract(graph3, project3)
    text2 = (project3.generated_dir / "IntegerArith.native").read_text()
    region = text2.split(marker)[1].split(end)[0]
    assert region == "\n" + edited + "\n  "


def test_region_edit_with_quotes_and_backslashes(stdlib_copy):
    graph, project = _project(stdlib_copy)
    extract(graph, project)
    stub = project.generated_dir / "IntegerArith.native"
    marker, end = "// start IntegerArith?plus", "// end IntegerArith?plus"
    edit = '  raise Exception("won\'t", "quoted \\"text\\"", back\\slash)'
    text = stub.read_text()
    head, rest = text.split(marker)
    _, tail = rest.split(end, 1)
    stub.write_text(head + marker + "\n" + edit + "\n  " + end + tail)

    graph2, project2 = _project(stdlib_copy)
    integrate(graph2, project2)
    graph3, project3 = _project(stdlib_copy)
    extract(graph3, project3)
    region = (project3.generated_dir / "IntegerArith.native").read_text() \
        .split(marker)[1].split(end)[0]
    assert region == "\n" + edit + "\n  "


def test_broken_marker_is_an_error(stdlib_copy):
    graph, project = _project(stdlib_copy)
    extract(graph, project)
    stub = project.generated_dir / "IntegerArith.native"
    stub.write_text(stub.read_text().replace("// end IntegerArith?plus", ""))
    graph2, project2 = _project(stdlib_copy)
    with pytest.raises(MarkerError) as e:
        integrate(graph2, project2)
    assert "IntegerArith?plus" in str(e.value)


def test_unknown_region_is_an_error(stdlib_copy):
    graph, project = _project(stdlib_copy)
    extract(graph, project)
    stub = project.generated_dir / "IntegerArith.native"
    stub.write_text(stub.read_text()
                    .replace("IntegerArith?plus", "IntegerArith?nosuch"))
    graph2, project2 = _project(stdlib_copy)
    with pytest.raises(MarkerError) as e:
        integrate(graph2, project2)
    assert "nosuch" in str(e.value)


# -- load -------------------------------------------------------------------------

def test_load_stdlib(loaded):
    report = loaded.report
    assert report.rule_count == 26
    assert report.unimplemented == []
    assert report.tests.passed == report.tests.total == 1
    assert str(report).splitlines()[-1] == "passed 1/1"


def test_load_reports_unimplemented_stub(tmp_path):
    root = tmp_path / "na"
    (root / "source").mkdir(parents=True)
    (root / "source" / "numberarith.mmt").write_text("""\
document http://www.openmath.org/cd

view NumberArithStub : arith1 -> Computation
  constant plus = (args: List[Term]) "
  "
""", encoding="utf-8")
    graph, projects, _ = build_graph([root])
    base, report = load(graph)
    assert [g.local for g in report.unimplemented] == ["arith1?plus"]
    assert report.tests.passed == report.tests.total


def test_load_empty_project(tmp_path):
    root = tmp_path / "empty"
    (root / "source").mkdir(parents=True)
    graph, projects, _ = build_graph([root], with_stdlib=False)
    base, report = load(graph)
    assert len(base) == 0
    assert report.lines()[-1] == "passed 0/0"


def test_load_is_idempotent(loaded):
    graph, _, _ = build_graph()
    base1, report1 = load(graph)
    base2, report2 = load(graph)
    assert len(base1) == len(base2)
    assert report1.lines() == report2.lines()


def test_source_files_order(stdlib_copy):
    files = [p.name for p in source_files(stdlib_copy)]
    assert files[0] == "lists.omdoc"  # documents before surface modules
    assert files[1:] == sorted(files[1:])
