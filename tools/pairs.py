"""Alternating benchmark runs of two revisions, with a verdict per end-to-end metric.

    python3 tools/pairs.py PARENT CHANGE --workload W [--workload W2] [--seed S ...]
                           [--seconds T] [--pairs N] [--aa] --out BENCH_N.json

PARENT and CHANGE are any revisions `git archive` takes (a commit, or the tree
`git write-tree` gives for staged work). Each is extracted into one of sibling
temporary directories whose paths have equal length, since the length of the
paths on a command line alone moves `peak_mem_mb` by about 1%. Every run is a
fresh process of that tree's own `bench/run.py --workload W --seed S --seconds
T --trace 0`, with no bytecode cached on either side (PYTHONDONTWRITEBYTECODE=1
in fresh archives). Pair i runs the sides forward when i is even and reversed
when it is odd: ABBA. With --aa a second copy of PARENT runs in every pair too,
and its median's distance from PARENT's is the A/A difference: what the host's
noise alone shows.

Verdict, per end-to-end metric of each workload and seed: a "gain" when CHANGE
is better in at least 9 of 10 pairs (ties count for neither side) and its median
is better by more than both PARENT's interquartile range and the A/A difference
(0 without --aa); a "loss" by the same rule the other way; else "no change
shown". Fewer than 10 pairs give "no verdict". The tool uses the stdlib and git
only, and never writes into the checkout: only --out.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
SIDES = ("parent", "change")
AA = "aa"  # the second copy of PARENT


def run_order(pairs: int, sides: tuple[str, ...]) -> list[tuple[int, str]]:
    """Every (pair, side) run in order: forward in even pairs, reversed in odd ones."""
    return [(i, side) for i in range(pairs) for side in (sides[::-1] if i % 2 else sides)]


def tree_dirs(root: Path, sides: tuple[str, ...]) -> dict[str, Path]:
    """One sibling directory per side under `root`, their paths all of one length."""
    return {side: root / f"tree{i}" for i, side in enumerate(sides)}


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], aa: list[float] | None,
            better: str) -> dict:
    """Each side's median and quartiles, the pairs each side won, and the verdict
    on one metric; pair i is (parent[i], change[i]), `better` "lower" or "higher"."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    out = {"parent": _spread(parent), "change": _spread(change), "aa": None,
           "change_wins": wins, "parent_wins": losses, "pairs": len(parent),
           "aa_median_diff": None}
    gap = sign * (out["parent"]["median"] - out["change"]["median"])
    noise = out["parent"]["q3"] - out["parent"]["q1"]
    if aa is not None:
        out["aa"] = _spread(aa)
        out["aa_median_diff"] = abs(out["aa"]["median"] - out["parent"]["median"])
        noise = max(noise, out["aa_median_diff"])
    needed = WIN_SHARE * len(parent)
    if len(parent) < MIN_PAIRS:
        out["verdict"] = "no verdict"
    elif wins >= needed and gap > noise:
        out["verdict"] = "gain"
    elif losses >= needed and -gap > noise:
        out["verdict"] = "loss"
    else:
        out["verdict"] = "no change shown"
    return out


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def _extract(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One fresh `bench/run.py` process in `tree`: its last stdout line, parsed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=seconds + 600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv[1:])} in {tree} exited {done.returncode}: "
                 f"{done.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def measure(trees: dict[str, Path], workload: str, seed: int, seconds: float, pairs: int,
            end_to_end: list[dict]) -> dict:
    """Run one workload and seed in every tree in ABBA order; its runs and verdicts."""
    runs = []
    for pair, side in run_order(pairs, tuple(trees)):
        result = _bench(trees[side], workload, seed, seconds)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"pair": pair, "side": side, "correct": result["correct"],
                     "failed": result["failed"], "attempted": result["attempted"],
                     "metrics": values})
        shown = " ".join(f"{k}={v:.6g}" for k, v in values.items())
        print(f"{workload} seed {seed} pair {pair} {side}: {shown}", file=sys.stderr)
    metrics = {}
    for m in end_to_end:
        by_side = {s: [r["metrics"][m["name"]] for r in runs if r["side"] == s] for s in trees}
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              **verdict(by_side["parent"], by_side["change"],
                                        by_side.get(AA), m["better"])}
    return {"workload": workload, "seed": seed, "runs": runs, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--aa", action="store_true", help="also run a second copy of PARENT")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = args.seed or [1]
    revs = {side: _git("rev-parse", "--verify", rev).decode().strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = tree_dirs(Path(tmp), SIDES + ((AA,) if args.aa else ()))
        for side, tree in trees.items():
            _extract(revs["parent" if side == AA else side], tree)
        benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
        sets = [measure(trees, w, s, seconds, args.pairs, benchmark["end_to_end"])
                for w in args.workload for s in seeds]
    report = {
        "schema": "tools/pairs.py 1",
        "parent": {"rev": args.parent, "object": revs["parent"]},
        "change": {"rev": args.change, "object": revs["change"]},
        "machine": f"nproc={os.cpu_count()} platform={platform.platform()} "
                   f"python={platform.python_version()}",
        "command": " ".join(["python3", "tools/pairs.py", *(argv or sys.argv[1:])]),
        "run": f"bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
               "one fresh process per run, PYTHONDONTWRITEBYTECODE=1 in fresh archives",
        "order": "ABBA: pair i runs " + ", ".join(trees) + " when i is even, reversed when odd",
        "verdict_rule": f"gain: change better in >= {WIN_SHARE:.0%} of >= {MIN_PAIRS} pairs and "
                        "its median better by more than the parent's IQR and the A/A "
                        "median difference; loss: the same the other way",
        "sets": sets,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for s in sets:
        for name, m in s["metrics"].items():
            print(f"{s['workload']} seed {s['seed']} {name}: parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} wins {m['change_wins']}/{m['pairs']} "
                  f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
