"""The README's examples run as written: each `coaodv-sim` line under "CLI"
exits 0 from the repository root, and the example document under "Scenario
files" is a valid scenario."""

import json
import re
import shlex

import pytest

from coaodv_sim.cli import main
from coaodv_sim.model import scenario_from_dict, validate_scenario

from .conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    """The text under a `## heading`, up to the next heading of that level."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _first_block(text: str, lang: str = "") -> str:
    return re.search(rf"^```{lang}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL).group(1)


CLI_EXAMPLES = [
    line
    for line in _first_block(_section("CLI")).splitlines()
    if line.startswith("coaodv-sim ")
]


def test_readme_lists_an_example_per_command():
    # an empty parse would leave the parametrized test below with nothing to run
    assert {line.split()[1] for line in CLI_EXAMPLES} == {"validate", "run", "compare", "classify"}


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_runs(monkeypatch, tmp_path, capsys, line):
    argv = shlex.split(line)[1:]
    out = None
    if "--out" in argv:  # the report goes to a scratch directory, not into the checkout
        at = argv.index("--out") + 1
        out = tmp_path / argv[at]
        argv[at] = str(out)
    monkeypatch.chdir(REPO_ROOT)
    assert main(argv) == 0, capsys.readouterr().err
    if out is not None:
        assert out.read_text(encoding="utf-8").startswith("scenario,")


def test_scenario_file_example_is_valid(tmp_path):
    text = _first_block(_section("Scenario files"), "json")
    config = validate_scenario(scenario_from_dict(json.loads(text)))
    assert [n.id for n in config.nodes] == [0]
    path = tmp_path / "example.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 0


def test_readme_stays_a_manual_whose_paths_exist():
    assert README.count("\n") <= 400
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.MULTILINE | re.DOTALL)
    spans = re.findall(r"`([^`]+)`", prose)
    paths = [span.split("::")[0] for span in spans
             if re.fullmatch(r"[\w./-]+\.(py|json|md|toml|yml)(::\w+)?", span)]
    assert "tools/pairs.py" in paths  # the pattern still finds what it checks
    assert [p for p in paths if not (REPO_ROOT / p).exists()] == []
