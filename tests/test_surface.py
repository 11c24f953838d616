"""The package ships only names that something outside their own definition
uses: every public top-level function, class and module constant of
`src/coaodv_sim`, and every public method of its top-level classes, is named
somewhere else in the package, in the benchmark (`bench/*.py`) or in the
acceptance criteria (`tests/test_acceptance.py`). Other tests do not count, so
a name that only its own tests reach is caught. The check is by whole word,
so it can only miss a dead name, never flag a used one that is spelled out.

Every class in `errors.py` is also raised somewhere in the package, or is a
base of one that is: an error type that nothing raises is dead too, even when
some `except` clause names it."""

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


def _error_bases():
    """Each class that `errors.py` defines, with the names of its bases."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def _raised_names():
    """The names that a `raise` statement in the package raises, called or not.
    A raised variable stands for each name assigned to it in its module, as in
    `outcome = NoRoute` ... `raise outcome(source, dest)`."""
    raised = set()
    for path in PACKAGE.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        here = set()
        for node in nodes:
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    here.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    here.add(exc.attr)
        raised |= here | {
            node.value.id
            for node in nodes
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
            and any(isinstance(t, ast.Name) and t.id in here for t in node.targets)
        }
    return raised


def test_raise_sites_are_found():
    # an empty scan would leave every error type unraised and say nothing of why
    assert {"ScenarioValidationError", "UnknownNode", "NoRoute"} <= _raised_names()
    assert _error_bases()["ScenarioValidationError"] == ["SimulatorError"]


def test_every_error_type_is_raised_or_a_base_of_one_that_is():
    bases = _error_bases()
    live = _raised_names() & bases.keys()
    pending = list(live)
    while pending:
        for base in bases[pending.pop()]:
            if base in bases and base not in live:
                live.add(base)
                pending.append(base)
    assert sorted(bases.keys() - live) == []
