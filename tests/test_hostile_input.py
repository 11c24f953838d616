"""Hostile input as a property: the bundled scenario, with one to three
schema-aware edits, goes through `validate`, `run --out` and `compare --out`.

The edits delete a key or an array element, replace a value with each JSON
type, a long one or a number at the edge of a float, add an unknown key,
repeat a key in the raw text, or nest a value deeply. Whatever they do, each
command returns 0, 1 or 2 and raises nothing. An error exit prints nothing on
stdout and one `error: ` line on stderr, of at most 200 bytes less the argv
text it quotes, and leaves the existing report's bytes as they were. An
invalid scenario (exit 2) is named by its key or its node, never by the
`malformed scenario document` fallback of `scenario_from_dict`.
"""

import copy
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from coaodv_sim.cli import REPORT_HEADER, main

from .conftest import MESSAGE_BYTES, PAPER_SCENARIO, error_line_bytes

BUNDLED = json.loads(PAPER_SCENARIO.read_text())

EXISTING_REPORT = b"an existing report\n"

# the numbers at the edges of a float, and each JSON type; numbers first, as
# they pass the parser and Hypothesis shrinks toward the first elements
VALUES = (
    -1, 0, 7, 0.5, 1e308, -1e308, 5e-324, 2**63, 10**400, -(10**400),
    None, True, False, "", "manhattan", [], [1], [1, 2], [1, 2, 3], {}, {"id": 0},
    "x" * 10_000, list(range(5_000)), {"x": "x" * 20_000},
)

# a repeated key or deep nesting fails the parse, whatever the other edits
# did; replacing a value is the edit that reaches the invariants
EDITS = ("replace", "replace", "replace", "delete", "add key", "nest", "repeat key")

# a fresh copy each time, so that no edit reaches into VALUES or ties two places together
values = st.sampled_from(VALUES).map(copy.deepcopy)

# keys that no object of the schema names
UNKNOWN_KEYS = ("unknown", "", "ID", "line\nbreak", "é", "k" * 10_000)


class _Repeated(dict):
    """An object whose first key is written twice in the raw text."""


class _Nested:
    """A value inside `depth` one-element arrays, written without recursion."""

    def __init__(self, value, depth):
        self.value, self.depth = value, depth


def _dump(value) -> str:
    if isinstance(value, _Nested):
        return "[" * value.depth + _dump(value.value) + "]" * value.depth
    if isinstance(value, dict):
        pairs = list(value.items())
        if isinstance(value, _Repeated) and pairs:
            pairs.append(pairs[0])
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return json.dumps(value)


def _paths(value, path=()):
    """The path of `value` and of every value inside it, as keys and indices."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, (*path, index))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replace(doc, path, value):
    """`doc` with the value at `path` replaced by `value`."""
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def hostile_documents(draw):
    doc = copy.deepcopy(BUNDLED)
    for _ in range(draw(st.integers(1, 3))):
        root, *inner = _paths(doc)
        # the top-level scalars first and the document itself last, as
        # Hypothesis shrinks toward the first elements
        paths = [*reversed(inner), root]
        objects = [p for p in paths if isinstance(_at(doc, p), dict)]
        edit = draw(st.sampled_from(EDITS))
        if edit == "delete" and inner:
            path = draw(st.sampled_from(inner))
            del _at(doc, path[:-1])[path[-1]]
        elif edit == "add key" and objects:
            obj = _at(doc, draw(st.sampled_from(objects)))
            obj[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(values)
        elif edit == "repeat key" and any(_at(doc, p) for p in objects):
            path = draw(st.sampled_from([p for p in objects if _at(doc, p)]))
            obj = _at(doc, path)
            first = draw(st.sampled_from(list(obj)))
            doc = _replace(doc, path, _Repeated({first: obj.pop(first), **obj}))
        elif edit == "nest":
            path = draw(st.sampled_from(paths))
            depth = draw(st.sampled_from((2, 50, 100_000)))
            doc = _replace(doc, path, _Nested(_at(doc, path), depth))
        else:
            doc = _replace(doc, draw(st.sampled_from(paths)), draw(values))
    return _dump(doc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def _commands(scenario, report):
    flows = ["--flows", "0:9:20", "4:9:20"]
    return (
        ["validate", scenario],
        ["run", scenario, "--protocol", "aodv", *flows, "--out", report],
        ["compare", scenario, *flows, "--seeds", "2", "--out", report],
    )


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(hostile_documents())
@example(_dump(BUNDLED))  # exit 0, and a report written
@example(_dump({**BUNDLED, "nodes": BUNDLED["nodes"][:9]}))  # run: exit 1 for the unknown node 9
def test_hostile_scenarios_exit_with_one_named_error(workdir, text):
    scenario, report = workdir / "scenario.json", workdir / "report.csv"
    scenario.write_text(text, encoding="utf-8")
    # quiet, as a log line at another level would be a second line on stderr
    with mock.patch.dict(os.environ, {"COAODV_SIM_LOG": "quiet"}):
        for argv in _commands(str(scenario), str(report)):
            report.write_bytes(EXISTING_REPORT)
            code, out, err = _main(argv)
            assert code in (0, 1, 2)
            if code == 0:
                if "--out" in argv:
                    assert report.read_text().startswith(",".join(REPORT_HEADER) + "\n")
                continue
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert "Exceeds the limit" not in err
            assert error_line_bytes(err[:-1], argv) <= MESSAGE_BYTES
            assert report.read_bytes() == EXISTING_REPORT
            if code == 2:
                assert "malformed scenario document" not in err


# the property says nothing if its edits never pass the parser or never reach
# the invariants: each helper's own edit must reach the stage it is meant for.
# (document, exit code, the start of stderr)
STAGES = {
    "bundled": (BUNDLED, 0, ""),
    "invariant": (
        {**BUNDLED, "seed": -1}, 2, "error: invalid scenario: seed must be >= 0, got -1\n"
    ),
    "json-type": (
        {**BUNDLED, "seed": "1"}, 2, "error: invalid scenario: seed must be an integer, got '1'\n"
    ),
    "repeated-key": (_Repeated(BUNDLED), 2, "error: invalid scenario: repeated key 'nodes'\n"),
    "nested": (
        {**BUNDLED, "area": _Nested([100, 100], 2)},
        2,
        "error: invalid scenario: area must be [width, height], got [[[100, 100]]]\n",
    ),
    "nested-deeply": (_Nested(BUNDLED, 100_000), 1, "error: not valid JSON: "),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_each_edit_reaches_its_stage(workdir, stage):
    doc, code, err = STAGES[stage]
    scenario = workdir / "fixed.json"
    scenario.write_text(_dump(doc), encoding="utf-8")
    found, _, found_err = _main(["validate", str(scenario)])
    assert found == code and found_err.startswith(err) and found_err.count("\n") == (code != 0)
