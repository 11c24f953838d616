"""The argv surface: for each command line below, the exit code, stdout and
stderr of `cli.main`, pinned as literals, and the same through the console
script's own path, `python -m coaodv_sim.cli`, which reads `sys.argv`. A call
builds only the subparser that argv[0] names, so each command's help is also
checked against the full parser's.

Help text is rendered at 80 columns, and once at 60. argparse wraps a long usage line at
different words from one Python version to the next (3.13 keeps an option and
its metavars on one line), so the usage paragraph of a help text is compared
with its line breaks taken out; every other byte is compared as it is."""

import argparse
import shutil
import subprocess
import sys

import pytest

from coaodv_sim import cli
from coaodv_sim.cli import main

from .conftest import REPO_ROOT, package_process

SCENARIO = "scenarios/paper_table123.json"  # relative: validate prints the path as given

TOP_HELP = """\
usage: coaodv-sim [-h] {validate,run,compare,classify} ...

Command-line front end: validate scenarios, run and compare simulations,
classify network types, and emit CSV reports. Exit codes: 0 success (a missing
route is a result, not a failure), 1 usage or parse errors, 2 invalid
scenario.

positional arguments:
  {validate,run,compare,classify}
    validate            check a scenario file
    run                 run one protocol over the given flows
    compare             run both protocols over seeded repetitions
    classify            label the network type for a weight profile

options:
  -h, --help            show this help message and exit
"""

VALIDATE_HELP = """\
usage: coaodv-sim validate [-h] path

positional arguments:
  path

options:
  -h, --help  show this help message and exit
"""

OVERRIDES_HELP = """\
  --threshold THRESHOLD
                        override energy threshold
  --range RANGE         override transmission range
  --distance-metric {manhattan,euclidean}
                        override metric
  --mobility-metric {euclidean_rate,manhattan_rate}
                        override mobility mode
  --strict, --no-strict
                        energy strictly above threshold (--no-strict allows
                        equality)
  --drop-prob DROP_PROB
                        override non-cooperative drop probability
"""

RUN_HELP = """\
usage: coaodv-sim run [-h] --protocol {aodv,coaodv} --flows SRC:DST:COUNT
                      [SRC:DST:COUNT ...] [--seed SEED] [--out OUT]
                      [--threshold THRESHOLD] [--range RANGE]
                      [--distance-metric {manhattan,euclidean}]
                      [--mobility-metric {euclidean_rate,manhattan_rate}]
                      [--strict | --no-strict] [--drop-prob DROP_PROB]
                      path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --protocol {aodv,coaodv}
  --flows SRC:DST:COUNT [SRC:DST:COUNT ...]
                        one or more flows
  --seed SEED           override the scenario seed
  --out OUT             write a CSV report here
""" + OVERRIDES_HELP

COMPARE_HELP = """\
usage: coaodv-sim compare [-h] --flows SRC:DST:COUNT [SRC:DST:COUNT ...]
                          [--seeds SEEDS] [--out OUT] [--threshold THRESHOLD]
                          [--range RANGE]
                          [--distance-metric {manhattan,euclidean}]
                          [--mobility-metric {euclidean_rate,manhattan_rate}]
                          [--strict | --no-strict] [--drop-prob DROP_PROB]
                          path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --flows SRC:DST:COUNT [SRC:DST:COUNT ...]
  --seeds SEEDS         number of seeds (default 1)
  --out OUT             write a CSV report here
""" + OVERRIDES_HELP

CLASSIFY_HELP = """\
usage: coaodv-sim classify [-h] --weights W1,W2,W3

options:
  -h, --help          show this help message and exit
  --weights W1,W2,W3
"""

RUN_HELP_AT_60_COLUMNS = """\
usage: coaodv-sim run [-h] --protocol {aodv,coaodv}
                      --flows SRC:DST:COUNT
                      [SRC:DST:COUNT ...] [--seed SEED]
                      [--out OUT] [--threshold THRESHOLD]
                      [--range RANGE]
                      [--distance-metric {manhattan,euclidean}]
                      [--mobility-metric {euclidean_rate,manhattan_rate}]
                      [--strict | --no-strict]
                      [--drop-prob DROP_PROB]
                      path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --protocol {aodv,coaodv}
  --flows SRC:DST:COUNT [SRC:DST:COUNT ...]
                        one or more flows
  --seed SEED           override the scenario seed
  --out OUT             write a CSV report here
  --threshold THRESHOLD
                        override energy threshold
  --range RANGE         override transmission range
  --distance-metric {manhattan,euclidean}
                        override metric
  --mobility-metric {euclidean_rate,manhattan_rate}
                        override mobility mode
  --strict, --no-strict
                        energy strictly above threshold
                        (--no-strict allows equality)
  --drop-prob DROP_PROB
                        override non-cooperative drop
                        probability
"""

MISSING_COMMAND = "error: the following arguments are required: command\n"
RUN = ["run", SCENARIO, "--protocol", "aodv", "--flows", "4:9:1"]

# Each command line: (argv, exit code, stdout, stderr).
ARGV = {
    "help": (["--help"], 0, TOP_HELP, ""),
    "short-help": (["-h"], 0, TOP_HELP, ""),
    "validate-help": (["validate", "--help"], 0, VALIDATE_HELP, ""),
    "run-help": (["run", "--help"], 0, RUN_HELP, ""),
    "compare-help": (["compare", "--help"], 0, COMPARE_HELP, ""),
    "classify-help": (["classify", "--help"], 0, CLASSIFY_HELP, ""),
    "no-argv": ([], 1, "", MISSING_COMMAND),
    "double-dash": (["--"], 1, "", MISSING_COMMAND),
    "unknown-command": (
        ["bogus"], 1, "",
        "error: argument command: invalid choice: 'bogus' "
        "(choose from 'validate', 'run', 'compare', 'classify')\n",
    ),
    "command-in-another-case": (
        ["Compare", SCENARIO], 1, "",
        "error: argument command: invalid choice: 'Compare' "
        "(choose from 'validate', 'run', 'compare', 'classify')\n",
    ),
    "run-missing-options": (
        ["run", SCENARIO], 1, "",
        "error: the following arguments are required: --protocol, --flows\n",
    ),
    "compare-missing-flows": (
        ["compare", SCENARIO], 1, "", "error: the following arguments are required: --flows\n"
    ),
    "classify-missing-weights": (
        ["classify"], 1, "", "error: the following arguments are required: --weights\n"
    ),
    "validate-missing-path": (
        ["validate"], 1, "", "error: the following arguments are required: path\n"
    ),
    "unrecognized-option": (
        ["validate", SCENARIO, "--bogus"], 1, "", "error: unrecognized arguments: --bogus\n"
    ),
    "abbreviated-option": (
        ["compare", SCENARIO, "--flows", "4:9:1", "--seed", "7"], 1, "",
        "error: unrecognized arguments: --seed 7\n",
    ),
    "second-command": (
        ["validate", SCENARIO, "run"], 1, "", "error: unrecognized arguments: run\n"
    ),
    "bad-weights": (
        ["classify", "--weights", "0.5,0.25"], 1, "",
        "error: --weights must be three finite numbers W1,W2,W3\n",
    ),
    "invalid-protocol": (
        ["run", SCENARIO, "--protocol", "bogus", "--flows", "4:9:1"], 1, "",
        "error: argument --protocol: invalid choice: 'bogus' (choose from 'aodv', 'coaodv')\n",
    ),
    "weights-not-normalized": (
        ["classify", "--weights", "0.1,0.2,0.3"], 1, "",
        "error: weights must sum to 1 (within 1e-9), got sum 0.6\n",
    ),
    "ambiguous-profile": (
        ["classify", "--weights", "0.4,0.4,0.2"], 1, "",
        "error: no strictly dominant weight in (0.4, 0.4, 0.2); "
        "network type is undefined for ties\n",
    ),
    "unknown-node": (
        ["run", SCENARIO, "--protocol", "aodv", "--flows", "4:77:1"], 1, "",
        "error: unknown node id 77\n",
    ),
    "unknown-node-in-second-flow": (
        [*RUN, "0:77:1"], 1, "", "error: unknown node id 77\n"
    ),
    # a packet count outside [1, sys.maxsize], named with its flow
    "zero-packets": (
        ["run", SCENARIO, "--protocol", "aodv", "--flows", "0:9:0"], 1, "",
        f"error: flow '0:9:0': packets must be from 1 to {sys.maxsize}, got 0\n",
    ),
    "negative-packets": (
        ["run", SCENARIO, "--protocol", "aodv", "--flows", "0:9:-1"], 1, "",
        f"error: flow '0:9:-1': packets must be from 1 to {sys.maxsize}, got -1\n",
    ),
    "packets-past-maxsize": (
        ["run", SCENARIO, "--protocol", "aodv", "--flows", f"0:9:{sys.maxsize + 1}"], 1, "",
        f"error: flow '0:9:{sys.maxsize + 1}': packets must be from 1 to {sys.maxsize}, "
        f"got {sys.maxsize + 1}\n",
    ),
    # at the bundled drop probability, 1.0, nothing draws and every seed prints
    # delivered=0; at 0.5 seed 4 prints 18 and 59
    "run-seed-3": (
        ["run", SCENARIO, "--protocol", "aodv", "--flows", "0:9:100", "4:9:100", "--seed", "3",
         "--drop-prob", "0.5"],
        0,
        "flow 0->9 [aodv]: hops=4 sent=100 delivered=27 pdr=0.27\n"
        "flow 4->9 [aodv]: hops=2 sent=100 delivered=49 pdr=0.49\n",
        "",
    ),
    "validate-ok": (["validate", SCENARIO], 0, f"{SCENARIO}: OK\n", ""),
    "validate-absolute-path": (
        ["validate", str(REPO_ROOT / SCENARIO)], 0, f"{REPO_ROOT / SCENARIO}: OK\n", ""
    ),
    # argv text goes into the one error line with its line breaks escaped
    "validate-newline-path": (
        ["validate", "new\nline.json"], 1, "", "error: file not found: new\\nline.json\n"
    ),
    "newline-out-in-missing-directory": (
        ["compare", SCENARIO, "--flows", "4:9:1", "--out", "/nonexistent/a\nb.csv"], 1, "",
        "error: cannot write /nonexistent/a\\nb.csv: No such file or directory\n",
    ),
    # an empty --out names no file, like an empty scenario path
    "run-empty-out": (
        [*RUN, "--out", ""], 1, "", "error: cannot write : No such file or directory\n"
    ),
    "compare-empty-out": (
        ["compare", SCENARIO, "--flows", "4:9:1", "--out", ""], 1, "",
        "error: cannot write : No such file or directory\n",
    ),
    "unrecognized-newline-option": (
        ["validate", SCENARIO, "--bo\r\ngus\x1b"], 1, "",
        "error: unrecognized arguments: --bo\\r\\ngus\\x1b\n",
    ),
    "validate-missing-file": (
        ["validate", "/nonexistent/nowhere.json"], 1, "",
        "error: file not found: /nonexistent/nowhere.json\n",
    ),
    "malformed-flow": (
        ["run", SCENARIO, "--protocol", "aodv", "--flows", "0-9-100"], 1, "",
        "error: flow '0-9-100' must be SRC:DST:COUNT, three integers\n",
    ),
    "self-flow": (
        ["run", SCENARIO, "--protocol", "aodv", "--flows", "0:0:1"], 0,
        "flow 0->0 [aodv]: hops=0 sent=1 delivered=1 pdr=1.0\n", "",
    ),
    "zero-seeds": (
        ["compare", SCENARIO, "--flows", "0:9:1", "--seeds", "0"], 1, "",
        "error: --seeds must be >= 1\n",
    ),
    # an override is checked as the file's value is: exit 2, named by its field
    "negative-range-override": (
        [*RUN, "--range", "-5"], 2, "",
        "error: invalid scenario: transmission_range must be > 0, got -5.0\n",
    ),
    "infinite-range-override": (
        ["compare", SCENARIO, "--flows", "0:9:5", "--range", "inf"], 2, "",
        "error: invalid scenario: transmission_range must be finite, got inf\n",
    ),
    "unknown-distance-metric": (
        [*RUN, "--distance-metric", "chebyshev"], 1, "",
        "error: argument --distance-metric: invalid choice: 'chebyshev' "
        "(choose from 'manhattan', 'euclidean')\n",
    ),
    "unknown-mobility-metric": (
        [*RUN, "--mobility-metric", "chebyshev"], 1, "",
        "error: argument --mobility-metric: invalid choice: 'chebyshev' "
        "(choose from 'euclidean_rate', 'manhattan_rate')\n",
    ),
    "abbreviated-threshold": (
        [*RUN, "--thr", "100"], 1, "", "error: unrecognized arguments: --thr 100\n"
    ),
    "abbreviated-drop-prob": (
        [*RUN, "--drop", "0"], 1, "", "error: unrecognized arguments: --drop 0\n"
    ),
    "weights-above-one": (
        ["classify", "--weights", "0.9,0.4,0.2"], 1, "",
        "error: weights must sum to 1 (within 1e-9), got sum 1.5\n",
    ),
    # weights or a sum that the profile rejects as it is built
    "classify-sum-past-float-range": (
        ["classify", "--weights", "1e308,1e308,0"], 1, "",
        "error: weights must sum to 1 (within 1e-9), got sum inf\n",
    ),
    "classify-negative-weights": (
        ["classify", "--weights", "1.5,-0.25,-0.25"], 1, "",
        "error: w_mobility must be a finite number >= 0, got -0.25\n",
    ),
    "non-finite-weights": (
        ["classify", "--weights", "inf,-inf,1"], 1, "",
        "error: w_distance must be a finite number >= 0, got inf\n",
    ),
    "distance-sensitive": (
        ["classify", "--weights", "0.5,0.25,0.25"], 0,
        "Distance Sensitive Network (e.g. wireless networks); dominant criterion: distance\n", "",
    ),
    "mobility-sensitive": (
        ["classify", "--weights", "0.25,0.5,0.25"], 0,
        "Mobility Sensitive Network (e.g. MANETs, VANETs); dominant criterion: mobility\n", "",
    ),
    "energy-sensitive": (
        ["classify", "--weights", "0.25,0.25,0.5"], 0,
        "Energy Sensitive Network (e.g. sensor networks); dominant criterion: energy\n", "",
    ),
}


def _unwrapped(text: str) -> str:
    """`text` with the line breaks of its usage paragraph taken out."""
    if not text.startswith("usage: "):
        return text
    usage, blank, rest = text.partition("\n\n")
    return " ".join(usage.split()) + blank + rest


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("COAODV_SIM_LOG", raising=False)


@pytest.mark.parametrize("case", ARGV)
def test_argv_exit_code_stdout_and_stderr(at_root, capsys, case):
    argv, code, out, err = ARGV[case]
    assert main(list(argv)) == code
    got = capsys.readouterr()
    assert (_unwrapped(got.out), got.err) == (_unwrapped(out), err)


def test_help_wraps_at_the_terminal_width(at_root, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "60")
    assert main(["run", "--help"]) == 0
    got = capsys.readouterr()
    assert (_unwrapped(got.out), got.err) == (_unwrapped(RUN_HELP_AT_60_COLUMNS), "")


@pytest.mark.parametrize("case", ARGV)
def test_each_command_line_looks_up_the_terminal_width_once(at_root, monkeypatch, capsys, case):
    # argparse's HelpFormatter looks it up whenever it is built without a width
    calls = []
    lookup = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return lookup(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    main(list(ARGV[case][0]))
    capsys.readouterr()
    assert len(calls) == 1


def test_validate_prints_one_line_for_a_name_with_a_newline(capsys, tmp_path):
    path = tmp_path / "new\nline.json"
    path.write_bytes((REPO_ROOT / SCENARIO).read_bytes())
    assert main(["validate", str(path)]) == 0
    got = capsys.readouterr()
    assert (got.out, got.err) == (f"{tmp_path}/new\\nline.json: OK\n", "")


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter run at the repository root, with the package on its path."""
    return package_process(args, cwd=REPO_ROOT, timeout=60)


@pytest.mark.parametrize(
    "argv",
    [["compare", "--help"], ["validate", SCENARIO], ["run", SCENARIO], ["bogus"]],
    ids=["compare-help", "validate-ok", "run-missing-options", "unknown-command"],
)
def test_console_script_path_matches_main(at_root, capsys, argv):
    # `main(None)` reads sys.argv, which only a process of its own reaches
    child = _python("-m", "coaodv_sim.cli", *argv)
    code = main(list(argv))
    got = capsys.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (code, got.out, got.err)


COMMANDS = ["validate", "run", "compare", "classify"]


def _commands(parser) -> list[str]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_holds_only_the_named_command(command):
    assert _commands(cli.build_parser([command, "--help"])) == [command]


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["--help"], ["--"], ["bogus"], [""], ["Compare"], ["comp"], ["compare "],
     ["--", "compare"]],
)
def test_parser_holds_every_command_when_argv0_names_none(argv):
    assert _commands(cli.build_parser(argv)) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_is_the_same_from_the_full_parser(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    helps = []
    for built in ([command], []):
        with pytest.raises(SystemExit) as stop:
            cli.build_parser(built).parse_args([command, "--help"])
        assert stop.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith(f"usage: coaodv-sim {command} ")


def test_only_classify_imports_the_classifier(at_root):
    script = (
        "import sys\n"
        "from coaodv_sim.cli import main\n"
        f"main(['validate', {SCENARIO!r}])\n"
        "print('coaodv_sim.classifier' in sys.modules)\n"
        "main(['classify', '--weights', '0.5,0.25,0.25'])\n"
        "print('coaodv_sim.classifier' in sys.modules)\n"
    )
    child = _python("-c", script)
    assert child.stdout.splitlines()[1::2] == ["False", "True"], child.stderr


# The modules that only a simulation needs, and pathlib and typing, which no command imports.
SIMULATION_MODULES = (
    "coaodv_sim.sim", "coaodv_sim.protocol", "coaodv_sim.coopmath", "random", "pathlib", "typing",
)
SIMULATION = ["coaodv_sim.sim", "coaodv_sim.protocol", "coaodv_sim.coopmath", "random"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["validate", SCENARIO], []),
        (["classify", "--weights", "0.5,0.25,0.25"], []),
        (RUN, SIMULATION),
        (["compare", SCENARIO, "--flows", "4:9:1"], SIMULATION),
    ],
    ids=["validate", "classify", "run", "compare"],
)
def test_a_command_imports_only_what_it_runs(argv, loaded):
    # -S: no site module, so nothing but the interpreter and the command loads modules
    script = (
        "import sys\n"
        "from coaodv_sim.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print([m for m in {SIMULATION_MODULES!r} if m in sys.modules])\n"
        "sys.exit(code)\n"
    )
    child = package_process(["-S", "-c", script, *argv], cwd=REPO_ROOT, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == repr(loaded)
