"""The README's table of request budgets names the constants that set them.

The table under "Every budget on the cost of a request" must list every
``MAX_*``, ``*_SIZE`` and ``*_S`` constant in the package, each with the file
that defines it, and name nothing else, except the interpreter's own limit on
the digits of an integer.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "umachine"
HEADING = "Every budget on the cost of a request"
INTERPRETER_ROW = ("sys.get_int_max_str_digits()", "the interpreter")
BUDGET_NAME = re.compile(r"[A-Z][A-Z0-9_]*")


def _is_budget(name: str) -> bool:
    return bool(BUDGET_NAME.fullmatch(name)) and (
        name.startswith("MAX_") or name.endswith(("_SIZE", "_S")))


def _table_rows() -> set[tuple[str, str]]:
    """``(budget, defined in)`` of each row of the table, backticks
    stripped."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if HEADING in line)
    table = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            table.append(line)
        elif table:
            break
    rows = set()
    for line in table[2:]:  # past the header and the separator
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        rows.add((cells[0], cells[2]))
    return rows


def _module_constants(path: Path) -> set[str]:
    """The names a module assigns at its top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _package_files() -> dict[str, Path]:
    return {p.relative_to(PACKAGE).as_posix(): p
            for p in sorted(PACKAGE.rglob("*.py"))}


def test_every_row_names_a_constant_of_its_file():
    files = _package_files()
    rows = _table_rows()
    assert INTERPRETER_ROW in rows
    for budget, defined_in in rows - {INTERPRETER_ROW}:
        assert defined_in in files, (budget, defined_in)
        assert budget in _module_constants(files[defined_in]), (
            budget, defined_in)


def test_every_budget_constant_has_a_row():
    rows = _table_rows()
    budgets = {(name, rel) for rel, path in _package_files().items()
               for name in _module_constants(path) if _is_budget(name)}
    assert budgets
    assert budgets - rows == set()
