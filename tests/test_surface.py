"""The package ships only names that something outside their own definition
uses: every public top-level function, class and module constant of
`src/coaodv_sim`, and every public method of its top-level classes, is named
somewhere else in the package, in the benchmark (`bench/*.py`) or in the
acceptance criteria (`tests/test_acceptance.py`). Other tests do not count, so
a name that only its own tests reach is caught. The check is by whole word,
so it can only miss a dead name, never flag a used one that is spelled out."""

import ast
import re

from .conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "coaodv_sim"
READERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((REPO_ROOT / "bench").glob("*.py")),
    REPO_ROOT / "tests" / "test_acceptance.py",
]


def _public_definitions(path):
    """(name, first line, last line) of each public definition in `path`."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in (node, *members):
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                found.append((d.name, d.lineno, d.end_lineno))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            found += [(name, node.lineno, node.end_lineno) for name in names]
    return [d for d in found if not d[0].startswith("_")]


def _unused_names():
    texts = {path: path.read_text(encoding="utf-8").splitlines() for path in READERS}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(line)
                for reader, lines in texts.items()
                for number, line in enumerate(lines, 1)
                if not (reader == path and first <= number <= last)
            )
            if not used:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_definitions_are_found():
    # an empty scan would pass the check below with nothing checked
    names = {name for path in PACKAGE.glob("*.py") for name, _, _ in _public_definitions(path)}
    assert {"load_scenario", "REPORT_HEADER", "packets_sent", "ScenarioConfig"} <= names
    assert not any(name.startswith("_") for name in names)


def test_every_public_name_is_used_outside_its_definition():
    assert _unused_names() == []
