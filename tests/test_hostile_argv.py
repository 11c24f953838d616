"""Hostile argv as a property: `cli.main` gets command lines built from the
commands, paths, options, numbers and log levels that a user can mistype.

An argv is an optional command (each command, an unknown one or none), an
optional scenario path (the bundled scenario, a symlink to it, a missing file,
a directory, /dev/null, a name that is not UTF-8, holds a newline or is 300
characters long) and up to five options in any order: each option of every
command, with a value, without one or repeated, and `--out` to the existing
report, a directory, /dev/full, the scenario or a name the disk refuses.
`COAODV_SIM_LOG` is unset or `quiet`, `info`, `trace` or an unknown value.
Stdout works, or its `write` or `flush` raises `BrokenPipeError` (its reader
has gone) or `OSError(ENOSPC)` (its device is full). No example runs long:
`--seeds` is at most 50 and a flow's packets at most 1,000 unless the value
is invalid.

Whatever the argv, `main` returns 0, 1 or 2 and raises nothing. An error
exit prints nothing on stdout, and its stderr ends with exactly one line that
starts with `error: `, after any log lines; less the argv text it quotes, that
line is at most 200 bytes. No command changes the scenario's
bytes, and an error exit leaves the existing report's bytes as they were.
A command that writes stdout exits 1 when stdout fails: a closed pipe adds no
`error: ` line, a full device exactly one, `error: cannot write stdout: `,
and a report that the command writes is as complete as with a working stdout.
"""

import errno
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from coaodv_sim.cli import REPORT_HEADER, main

from .conftest import (
    MESSAGE_BYTES,
    PAPER_SCENARIO,
    STREAM_ERRORS,
    FailingStream,
    error_line_bytes,
)

BUNDLED = PAPER_SCENARIO.read_bytes()
EXISTING_REPORT = b"an existing report\n"

# file names in the work directory; the three scenario copies hold the bundled bytes
SCENARIO, LINK, MISSING = "scenario.json", "link.json", "missing\nfile.json"
NOT_UTF8, NEWLINE, LONG = os.fsdecode(b"s\xff.json"), "new\nline.json", "a" * 300 + ".json"
SCENARIOS = (SCENARIO, NOT_UTF8, NEWLINE)
REPORT = "report.csv"
HUGE, UNPRINTABLE = "1" + "0" * 400, "1" + "0" * 5000  # past float range; past int()'s digit limit

# Each piece of an argv as (common, hostile) choices; an example draws a
# hostile one at its own odds, so that many examples get past the parser.
COMMANDS = (("validate", "run", "compare", "classify"), ("bogus", "Compare", None))
PATHS = ((SCENARIO, LINK, NOT_UTF8, NEWLINE), (MISSING, ".", "/dev/null", LONG))
OUTS = (
    (REPORT, "out\nput.csv", os.fsdecode(b"r\xff.csv")),
    (".", "/dev/full", SCENARIO, LINK, "a" * 300 + ".csv", "no-such-dir/r.csv"),
)
NUMBERS = (
    ("0", "0.5", "1", "20"),
    ("-1", "1.5", "1e-310", "1e308", "1e309", "nan", "NaN", "inf", "-inf", "Infinity",
     HUGE, "1_000", "٣", " 1", "", "0x10", "abc"),
)
SEEDS = (("1", "2", "50"), ("0", "-1", "1.5", "x", ""))  # never above 50
SEED = (("0", "3", HUGE), ("-1", UNPRINTABLE, "1.0", "true", ""))
NODES = (("0", "4", "9"), ("10", "-1", HUGE, UNPRINTABLE, "x", ""))
PACKETS = (("1", "5", "1000"), ("0", "-1", "1.5", "9" * 30, UNPRINTABLE, ""))
PROTOCOLS = (("aodv", "coaodv"), ("dsr", ""))
DISTANCES = (("manhattan", "euclidean"), ("chebyshev", ""))
MOBILITIES = (("euclidean_rate", "manhattan_rate"), ("x", ""))
WEIGHTS = (
    ("0.2,0.3,0.5", "1,0,0"),
    ("0.5,0.5,0", "0.3,0.3,0.3", "nan,0,1", "1e308,1e308,0", "1.5,-0.25,-0.25", "a,b,c", "1,2",
     ""),
)
FLAGS = (("--strict", "--no-strict"), ("--bogus", "--", "-h", "--seed=3"))
LOG_LEVELS = ((None, "quiet", "info", "trace"), ("loud",))
STDOUTS = ((None,), tuple((call, error) for call in ("write", "flush") for error in STREAM_ERRORS))


def _hostile(draw, odds) -> bool:
    """True one time in `odds`."""
    return draw(st.sampled_from(range(odds))) == odds - 1


def _pick(draw, choices, odds):
    common, hostile = choices
    return draw(st.sampled_from(hostile if _hostile(draw, odds) else common))


def _flows(draw, odds):
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        parts = [_pick(draw, NODES, odds), _pick(draw, NODES, odds)]
        if not _hostile(draw, odds):  # a spec without a packet count is malformed
            parts.append(_pick(draw, PACKETS, odds))
        specs.append(":".join(parts))
    return ["--flows", *specs]


def _option(name, choices):
    def option(draw, odds):  # without its value, the next argument is read as one
        return [name] if _hostile(draw, odds) else [name, _pick(draw, choices, odds)]
    return option


def _flag(draw, odds):
    return [_pick(draw, FLAGS, odds)]


# each option as a function of (draw, odds) that returns the arguments it adds
PROTOCOL, WEIGHT, OUT = (
    _option("--protocol", PROTOCOLS), _option("--weights", WEIGHTS), _option("--out", OUTS)
)
OVERRIDES = (
    *(_option(name, NUMBERS) for name in ("--threshold", "--range", "--drop-prob")),
    _option("--distance-metric", DISTANCES),
    _option("--mobility-metric", MOBILITIES),
    _flag,
)
# each command's required options, then the other options it takes
REQUIRED = {"run": (PROTOCOL, _flows), "compare": (_flows,), "classify": (WEIGHT,)}
OPTIONAL = {
    "run": (_option("--seed", SEED), OUT, *OVERRIDES),
    "compare": (_option("--seeds", SEEDS), OUT, *OVERRIDES),
}
ANY_OPTION = (PROTOCOL, _flows, WEIGHT, *OPTIONAL["run"], *OPTIONAL["compare"])


@st.composite
def argvs(draw):
    # one choice in `odds` is hostile: an example is hostile here and there or throughout
    odds = draw(st.sampled_from((3, 10, 40)))
    command = _pick(draw, COMMANDS, odds)
    args = [] if command is None else [command]
    if command != "classify" and not _hostile(draw, odds):
        args.append(_pick(draw, PATHS, odds))
    chunks = [option(draw, odds) for option in REQUIRED.get(command, ())
              if not _hostile(draw, odds)]
    own = OPTIONAL.get(command, ())  # a command without options gets one only when hostile
    for _ in range(draw(st.integers(0, 2)) if own else int(_hostile(draw, odds))):
        pool = own if own and not _hostile(draw, odds) else ANY_OPTION
        chunks.append(draw(st.sampled_from(pool))(draw, odds))
    if _hostile(draw, odds):  # a path among the options
        chunks.append([_pick(draw, PATHS, odds)])
    for chunk in draw(st.permutations(chunks)):
        args += chunk
    return args, _pick(draw, LOG_LEVELS, odds), _pick(draw, STDOUTS, odds)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    for name in SCENARIOS:
        (work / name).write_bytes(BUNDLED)
    (work / LINK).symlink_to(work / SCENARIO)
    return work


def _in(work, args):
    """`args` with each work-directory name as an absolute path, so that no
    command reads or writes outside the work directory."""
    names = {*PATHS[0], *PATHS[1], *OUTS[0], *OUTS[1]} - {"/dev/null", "/dev/full"}
    return [str(work / arg) if arg in names else arg for arg in args]


def _main(argv, level, out=None):
    env = {k: v for k, v in os.environ.items() if k != "COAODV_SIM_LOG"}
    if level is not None:
        env["COAODV_SIM_LOG"] = level
    out, err = out or io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


FLOWS = ["--flows", "0:9:100", "4:9:100"]


@settings(max_examples=150, deadline=None)
@given(argvs())
@example((["run", SCENARIO, "--protocol", "aodv", *FLOWS, "--out", REPORT], "info", None))
@example((["compare", LINK, *FLOWS, "--seeds", "50", "--out", REPORT], "trace", None))
@example((["compare", SCENARIO, *FLOWS, "--out", LINK], None, None))  # the scenario, renamed
@example((["run", NEWLINE, "--protocol", "aodv", *FLOWS, "--drop-prob", "1.5"], "loud", None))
@example((["run", NEWLINE, "--protocol", "aodv", "--flows", "0:10:5", "--out", REPORT], "info", None))
@example((["compare", NOT_UTF8, *FLOWS, "--range", "nan", "--seeds", "2"], "trace", None))
@example((["validate", MISSING], "info", None))  # a newline in the quoted path
@example((["compare", SCENARIO, "--flows", "0:10:5", "--out", REPORT], None, None))  # before it
@example((["run", SCENARIO, "--protocol", "aodv", "--flows", f"{HUGE}:9:5"], None, None))  # its id
@example((["compare", SCENARIO, *FLOWS, "--out", REPORT], "info", ("write", "closed-pipe")))
@example((["run", SCENARIO, "--protocol", "aodv", *FLOWS, "--out", REPORT], None, ("flush", "full")))
@example((["classify", "--weights", "1e308,1e308,0"], None, None))  # once an OverflowError
def test_hostile_argv_exits_with_one_named_error(workdir, case):
    args, level, failing = case
    report = workdir / REPORT
    report.write_bytes(EXISTING_REPORT)
    argv = _in(workdir, args)
    code, out, err = _main(argv, level)
    assert code in (0, 1, 2)
    for name in SCENARIOS:
        assert (workdir / name).read_bytes() == BUNDLED
    if code == 0:
        if failing is not None:
            _check_failing_stdout(argv, level, failing, report)
        return
    assert out == ""
    assert err.endswith("\n")
    lines = err[:-1].split("\n")
    assert lines[-1].startswith("error: ")
    assert "Exceeds the limit" not in lines[-1]
    assert error_line_bytes(lines[-1], argv) <= MESSAGE_BYTES
    assert not any(line.startswith("error: ") for line in lines[:-1])
    assert report.read_bytes() == EXISTING_REPORT


def _check_failing_stdout(argv, level, failing, report):
    """Run `argv`, which exited 0 writing stdout, again with a stdout that
    fails as `failing` says: (the call that raises, the STREAM_ERRORS key)."""
    written = report.read_bytes()
    report.write_bytes(EXISTING_REPORT)
    call, error = failing
    code, _, err = _main(argv, level, FailingStream(call, STREAM_ERRORS[error]))
    assert code == 1
    lines = err.splitlines()
    if error == "full":
        assert lines.pop() == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}"
    # a closed pipe is told by the exit code alone: its reader has gone
    assert not any(line.startswith("error: ") for line in lines)
    assert report.read_bytes() == written


# the property says nothing if its argvs never reach a command's end: each
# stage's argv, built from the grammar's own pieces, must exit as named
STAGES = {
    "run": (["run", SCENARIO, "--protocol", "aodv", *FLOWS, "--out", REPORT], 0),
    "compare": (["compare", NOT_UTF8, *FLOWS, "--seeds", "50"], 0),
    "classify": (["classify", "--weights", "0.2,0.3,0.5"], 0),
    "usage": (["compare", SCENARIO, *FLOWS, "--seeds", "0"], 1),
    "unknown-node": (["run", SCENARIO, "--protocol", "aodv", "--flows", "0:10:5"], 1),
    "scenario-as-report": (["run", SCENARIO, "--protocol", "aodv", *FLOWS, "--out", LINK], 1),
    "full-disk": (["compare", SCENARIO, *FLOWS, "--out", "/dev/full"], 1),
    "invalid-scenario": (["run", SCENARIO, "--protocol", "aodv", *FLOWS, "--drop-prob", "2"], 2),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_each_stage_of_the_grammar_is_reached(workdir, stage):
    args, expected = STAGES[stage]
    (workdir / REPORT).write_bytes(EXISTING_REPORT)
    code, out, _ = _main(_in(workdir, args), "quiet")
    assert code == expected
    assert (out != "") == (expected == 0)
    if "--out" in args and expected == 0:
        report = (workdir / REPORT).read_text(encoding="utf-8")
        assert report.startswith(",".join(REPORT_HEADER) + "\n")
