"""The CLI under `python -X dev -W error`, where a warning or a file left open fails a command
and a command that succeeds leaves stderr empty; test_cli.py's stream tests run so too."""

import hashlib
import json
from functools import reduce
from operator import getitem

import pytest

from .conftest import MESSAGE_BYTES, PAPER_SCENARIO, dev_process

SCENARIO = str(PAPER_SCENARIO)
FLOWS = ["--flows", "0:9:100", "4:9:100"]

INVALID = {  # each a document, or a list of (key, …, value) changes to the bundled scenario
    "string-energy": [("nodes", 0, "energy", "1000")],
    "huge-range": [("transmission_range", 10**400)],
    "huge-position": [("nodes", 3, "pos_t1", 1, 10**400)],
    "no-node-elapsed": {"nodes": [], "area": [1, 1], "transmission_range": 1,
                        "energy_threshold": 0, "elapsed_time": -1},
    "huge-seed": [("seed", -10**400)],
    "huge-id": [("nodes", 0, "id", -10**400)],
    "huge-threshold": [("energy_threshold", -10**300)],
    "long-area": [("area", [100] * 5000)],
    "long-metric": [("distance_metric", "x" * 20000)],
    # the longest values a message shows as written, and a coordinate outside them
    "forty-digit-position": [("nodes", 0, "id", 10**40 - 1), ("area", [10**40 - 2] * 2),
                             ("nodes", 0, "pos_t1", 1, -(10**40 - 1))],
}
# one dev-mode interpreter validates every document, each with streams of its own
_VALIDATE_EACH = """import contextlib, io, json, sys
from coaodv_sim.cli import main
def validate(path):
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        return main(["validate", path]), out.getvalue(), err.getvalue()
print(json.dumps([validate(path) for path in sys.argv[1:]]))"""


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The directory of the changed documents, and each invalid one's (code, stdout, stderr)."""
    root = tmp_path_factory.mktemp("dev-mode")
    for name, doc in {**INVALID, "zero-range": [("transmission_range", 0)]}.items():
        if isinstance(doc, list):
            changes, doc = doc, json.loads(PAPER_SCENARIO.read_text())
            for *keys, last, value in changes:
                reduce(getitem, keys, doc)[last] = value
        (root / f"{name}.json").write_text(json.dumps(doc))
    paths = [str(root / f"{name}.json") for name in INVALID]
    done = dev_process(["-c", _VALIDATE_EACH, *paths])
    assert (done.returncode, done.stderr) == (0, "")
    return root, dict(zip(INVALID, json.loads(done.stdout)))


def _ends(result, code, stdout, error):
    """(code, stdout, stderr) as pinned: stderr empty, or with `error` one short line."""
    returncode, out, err = result
    assert returncode == code and (stdout is None or out == stdout)
    if error is None:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n") and err.startswith(error), err
        assert len(err.encode()) < MESSAGE_BYTES and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(INVALID))
def test_an_invalid_document_exits_2_with_one_short_error_line(documents, name):
    _ends(documents[1][name], 2, "", "error: invalid scenario: ")


COMMANDS = {  # argv, exit code, exact stdout (None: any), stderr's one line's start (None: empty)
    "validate": (["validate", SCENARIO], 0, f"{SCENARIO}: OK\n", None),
    "run-seed-3": (["run", SCENARIO, "--protocol", "aodv", *FLOWS, "--seed", "3"], 0, None, None),
    # an override repairs the file's value before the one check
    "run-repaired-range": (["run", "{root}/zero-range.json", "--protocol", "aodv",
                            "--flows", "4:9:1", "--range", "20"], 0, None, None),
    "classify": (["classify", "--weights", "0.2,0.3,0.5"], 0, "Energy Sensitive Network "
                 "(e.g. sensor networks); dominant criterion: energy\n", None),
    # weights or a sum that the profile rejects as it is built
    "classify-sum-past-float-range": (["classify", "--weights", "1e308,1e308,0"], 1, "", "error: "),
    "classify-negative-weights": (["classify", "--weights", "1.5,-0.25,-0.25"], 1, "", "error: "),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_a_command_ends_as_pinned(documents, name):
    args, code, stdout, error = COMMANDS[name]
    done = dev_process(["-m", "coaodv_sim.cli", *(a.format(root=documents[0]) for a in args)])
    _ends((done.returncode, done.stdout, done.stderr), code, stdout, error)


def test_compare_is_byte_stable_under_any_hash_seed_and_keeps_its_digests(tmp_path):
    runs = []
    for seed in "01":
        out = tmp_path / f"{seed}.csv"
        args = ["compare", SCENARIO, *FLOWS, "--seeds", "20", "--drop-prob", "0.5", "--out", out]
        done = dev_process(["-m", "coaodv_sim.cli", *args], text=False, PYTHONHASHSEED=seed)
        assert (done.returncode, done.stderr) == (0, b"")
        runs.append((out.read_bytes(), done.stdout))
    assert runs[0] == runs[1]
    assert [hashlib.sha256(stream).hexdigest() for stream in runs[0]] == [
        "c001e5f072d7d23d8d83c31bcd455f2e1246f8d48d0738dfeff7bd4beb61cbbc",  # the report
        "39eaa49321a4f5808286df2ad1677606c309a6a8d72f6fce095811f976de073c",  # stdout
    ]
