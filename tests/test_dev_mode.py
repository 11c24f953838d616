"""The CLI under `python -X dev -W error`, where a warning or a file left open fails a command
and a command that succeeds leaves stderr empty; test_cli.py's stream tests run so too.

This file holds no table of inputs: one dev-mode interpreter runs every command line of
test_argv.py's ARGV and every rejected document of test_model.py's REJECTED_TEXTS, each
with streams of its own, and each row must end exactly as its table pins."""

import hashlib
import json

import pytest

from .conftest import PAPER_SCENARIO, REPO_ROOT, dev_process
from .test_argv import ARGV, _unwrapped
from .test_model import REJECTED_TEXTS

SCENARIO = str(PAPER_SCENARIO)
FLOWS = ["--flows", "0:9:100", "4:9:100"]
# each rejected document goes through both commands that read a scenario
DOCUMENT_COMMANDS = {"validate": [], "compare": ["--flows", "0:9:5", "4:9:5"]}

# runs `main` on each argv of the JSON list in the file it is given, and prints
# each one's [exit code, stdout, stderr] as one JSON list
_RUN_EACH = """import contextlib, io, json, sys
from coaodv_sim.cli import main
def ends(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        return main(argv), out.getvalue(), err.getvalue()
with open(sys.argv[1], encoding="utf-8") as jobs:
    argvs = json.load(jobs)
print(json.dumps([ends(argv) for argv in argvs]))"""


@pytest.fixture(scope="module")
def ends(tmp_path_factory):
    """Each row's (exit code, stdout, stderr) from one dev-mode child at the repository root,
    as `at_root` sets it up: ARGV's by ("argv", case), each rejected document's by (case,
    command)."""
    root = tmp_path_factory.mktemp("dev-mode")
    jobs = {("argv", case): row[0] for case, row in ARGV.items()}
    for case, (text, _) in REJECTED_TEXTS.items():
        path = root / f"{case}.json"
        path.write_text(text)
        for command, options in DOCUMENT_COMMANDS.items():
            jobs[case, command] = [command, str(path), *options]
    (root / "jobs.json").write_text(json.dumps(list(jobs.values())))
    done = dev_process(["-c", _RUN_EACH, str(root / "jobs.json")], cwd=REPO_ROOT,
                       COLUMNS="80", COAODV_SIM_LOG=None)
    assert (done.returncode, done.stderr) == (0, "")
    return dict(zip(jobs, map(tuple, json.loads(done.stdout))))


@pytest.mark.parametrize("case", ARGV)
def test_a_command_ends_as_pinned(ends, case):
    _, code, out, err = ARGV[case]
    got_code, got_out, got_err = ends["argv", case]
    assert (got_code, _unwrapped(got_out), got_err) == (code, _unwrapped(out), err)


@pytest.mark.parametrize("case", REJECTED_TEXTS)
def test_an_invalid_document_exits_2_with_one_short_error_line(ends, case):
    ending = (2, "", f"error: invalid scenario: {REJECTED_TEXTS[case][1]}\n")
    assert [ends[case, command] for command in DOCUMENT_COMMANDS] == [ending, ending]


def test_an_override_repairs_the_file_value_before_the_one_check(tmp_path):
    path = tmp_path / "zero-range.json"
    path.write_text(json.dumps({**json.loads(PAPER_SCENARIO.read_text()), "transmission_range": 0}))
    args = ["run", str(path), "--protocol", "aodv", "--flows", "4:9:1", "--range", "20"]
    done = dev_process(["-m", "coaodv_sim.cli", *args])
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "flow 4->9 [aodv]: hops=2 sent=1 delivered=0 pdr=0.0\n", ""
    )


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
