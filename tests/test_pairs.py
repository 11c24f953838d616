"""The pure parts of tools/pairs.py: run order, tree paths, the verdict rule, how
the command line after --argv is parsed, and the command line and bytecode rule
of each mode. Its git and subprocess path runs in CI, not here."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_runs_go_in_abba_order():
    assert pairs.run_order(4, ("parent", "change")) == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
        (2, "parent"), (2, "change"), (3, "change"), (3, "parent"),
    ]
    with_aa = pairs.run_order(2, ("parent", "change", "aa"))
    assert [side for _, side in with_aa] == ["parent", "change", "aa", "aa", "change", "parent"]


@pytest.mark.parametrize("root", ["/tmp/pairs-x", "/a/much/longer/temporary/root"])
def test_trees_are_siblings_whose_paths_have_one_length(root):
    trees = pairs.tree_dirs(Path(root), ("parent", "change", "aa"))
    assert list(trees) == ["parent", "change", "aa"]
    assert {p.parent for p in trees.values()} == {Path(root)}
    assert len({len(str(p)) for p in trees.values()}) == 1
    assert len(set(trees.values())) == 3


PARENT = [2.10, 2.15, 2.12, 2.20, 2.08, 2.14, 2.16, 2.11, 2.13, 2.18]
GAIN = [v * 0.85 for v in PARENT]                # 15% lower in every pair
NOISE = [v + (0.01 if i % 2 else -0.01) for i, v in enumerate(PARENT)]
LOSS = [v * 1.15 for v in PARENT]


@pytest.mark.parametrize("change, aa, expected", [
    (GAIN, None, "gain"),
    (GAIN, PARENT, "gain"),
    (NOISE, None, "no change shown"),
    (LOSS, None, "loss"),
    # a 15% gain inside an A/A difference of 20% is not shown
    (GAIN, [v * 0.8 for v in PARENT], "no change shown"),
    # every pair won or lost, by less than the parent's IQR
    ([v - 1e-4 for v in PARENT], None, "no change shown"),
    ([v + 1e-4 for v in PARENT], None, "no change shown"),
    # 8 of 10 pairs won, by far more than the IQR: short of 9 in 10
    (GAIN[:8] + [3.0, 3.0], None, "no change shown"),
])
def test_verdict_on_synthetic_runs(change, aa, expected):
    assert pairs.verdict(PARENT, change, aa, "lower")["verdict"] == expected
    # a metric where higher is better reads the same data with every sign flipped
    flipped = [[-v for v in side] if side else side for side in (PARENT, change, aa)]
    assert pairs.verdict(*flipped, "higher")["verdict"] == expected


def test_a_gain_needs_ten_pairs_and_ties_count_for_neither():
    few = pairs.verdict(PARENT[:9], GAIN[:9], None, "lower")
    assert few["verdict"] == "no verdict" and few["change_wins"] == 9
    tied = pairs.verdict(PARENT, PARENT, PARENT, "lower")
    assert (tied["change_wins"], tied["parent_wins"], tied["verdict"]) == (0, 0, "no change shown")
    assert tied["aa_median_diff"] == 0


def test_verdict_reports_each_sides_median_and_quartiles():
    out = pairs.verdict([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0], None, "lower")
    assert out["parent"]["median"] == 2.5 and out["parent"]["q1"] <= 2.5 <= out["parent"]["q3"]
    assert out["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert (out["change_wins"], out["parent_wins"], out["pairs"]) == (3, 0, 4)
    assert out["aa"] is None and out["aa_median_diff"] is None


def test_every_token_after_argv_is_the_command_line_to_time():
    args = pairs.parse_args(["A", "B", "--pairs", "2", "--out", "x.json", "--argv", "run", "s.json",
                             "--flows", "0:9:1", "--seed", "3", "--out", "r.csv"])
    assert args.argv == ["run", "s.json", "--flows", "0:9:1", "--seed", "3", "--out", "r.csv"]
    assert (args.out, args.pairs, args.seed, args.workload) == (Path("x.json"), 2, None, None)


def test_each_mode_builds_its_command_line():
    assert pairs.bench_command("sparse-300", 7, 1.0) == [
        sys.executable, "bench/run.py", "--workload", "sparse-300", "--seed", "7",
        "--seconds", "1", "--trace", "0"]
    assert pairs.cli_command(["validate", "s.json"]) == [
        sys.executable, "-S", "-m", "coaodv_sim.cli", "validate", "s.json"]


def test_each_mode_has_its_bytecode_rule(tmp_path):
    environ = {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONUNBUFFERED": "1", "PYTHONPATH": "x",
               "HOME": "/h"}
    # a workload run caches no bytecode; an --argv run reads the tree's compiled src
    assert pairs.run_env("workload", tmp_path, environ) == environ
    assert pairs.run_env("workload", tmp_path, {}) == {"PYTHONDONTWRITEBYTECODE": "1"}
    assert pairs.run_env("argv", tmp_path, environ) == {"PYTHONPATH": str(tmp_path / "src"),
                                                        "HOME": "/h"}
    assert set(pairs.BYTECODE) == {"workload", "argv"}


def test_out_is_checked_before_the_first_run(tmp_path, capsys):
    def parsed(out):
        return pairs.parse_args(["A", "B", "--out", str(out), "--argv", "validate", "s.json"])

    for bad in (tmp_path, tmp_path / "no" / "such" / "x.json"):
        with pytest.raises(SystemExit) as exit_:
            parsed(bad)
        assert exit_.value.code == 2
        assert str(bad) in capsys.readouterr().err
    assert parsed(tmp_path / "x.json").out == tmp_path / "x.json"
