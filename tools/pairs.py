"""Alternating benchmark runs of two revisions, with a verdict per end-to-end metric.

    python3 tools/pairs.py PARENT CHANGE --workload W [--workload W2] [--seed S ...]
                           [--seconds T] [--pairs N] [--aa] --out BENCH_N.json
    python3 tools/pairs.py PARENT CHANGE [--pairs N] [--aa] --out BENCH_N.json
                           --argv ARGS...

PARENT and CHANGE are any revisions `git archive` takes (a commit, or the tree
`git write-tree` gives for staged work). Each is extracted into one of sibling
temporary directories whose paths have equal length, since the length of the
paths on a command line alone moves `peak_mem_mb` by about 1%. Pair i runs the
sides forward when i is even and reversed when it is odd: ABBA. With --aa a
second copy of PARENT runs in every pair too, and its median's distance from
PARENT's is the A/A difference: what the host's noise alone shows.

With --workload every run is a fresh process of that tree's own `bench/run.py
--workload W --seed S --seconds T --trace 0`, with no bytecode cached on either
side (PYTHONDONTWRITEBYTECODE=1 in fresh archives).

With --argv every run times the `coaodv-sim` command line ARGS 21 times in the
tree's directory, each as a fresh `python3 -S -m coaodv_sim.cli ARGS` process,
and its `wall_s` is their median in host seconds. --argv comes last: every
token after it is ARGS, passed on unchanged. Each tree's `src` is compiled once
with compileall before the first run, and the timed processes run with
PYTHONPATH at it and with PYTHONDONTWRITEBYTECODE and PYTHONUNBUFFERED unset.
Every timing of a run must exit with one code, which the run records.

Verdict, per end-to-end metric of each workload and seed: a "gain" when CHANGE
is better in at least 9 of 10 pairs (ties count for neither side) and its median
is better by more than both PARENT's interquartile range and the A/A difference
(0 without --aa); a "loss" by the same rule the other way; else "no change
shown". Fewer than 10 pairs give "no verdict". The tool uses the stdlib and git
only, and never writes into the checkout: only --out.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
SIDES = ("parent", "change")
AA = "aa"  # the second copy of PARENT
TIMINGS = 21  # per --argv run; the run's wall_s is their median
BYTECODE = {
    "workload": "none cached: PYTHONDONTWRITEBYTECODE=1 for every run, in fresh archives",
    "argv": "each tree's src compiled once with compileall before the first run; "
            "PYTHONDONTWRITEBYTECODE and PYTHONUNBUFFERED unset for the timed processes",
}
def run_order(pairs: int, sides: tuple[str, ...]) -> list[tuple[int, str]]:
    """Every (pair, side) run in order: forward in even pairs, reversed in odd ones."""
    return [(i, side) for i in range(pairs) for side in (sides[::-1] if i % 2 else sides)]


def tree_dirs(root: Path, sides: tuple[str, ...]) -> dict[str, Path]:
    """One sibling directory per side under `root`, their paths all of one length."""
    return {side: root / f"tree{i}" for i, side in enumerate(sides)}


def bench_command(workload: str, seed: int, seconds: float) -> list[str]:
    """One --workload run: a fresh process of the tree's own benchmark driver."""
    return [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]


def cli_command(argv: list[str]) -> list[str]:
    """One timing of an --argv run: a fresh process of the tree's `coaodv-sim` ARGS."""
    return [sys.executable, "-S", "-m", "coaodv_sim.cli", *argv]


def run_env(mode: str, tree: Path, environ: dict[str, str]) -> dict[str, str]:
    """The environment of a run in `tree` under `mode`'s rule in BYTECODE."""
    env = dict(environ)
    if mode == "workload":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(tree / "src")
    return env


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
    """One fresh `bench/run.py` process in `tree`: its correctness and metrics."""
    argv = bench_command(workload, seed, seconds)
    done = subprocess.run(argv, cwd=tree, env=run_env("workload", tree, os.environ),
                          capture_output=True, text=True, timeout=seconds + 600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv[1:])} in {tree} exited {done.returncode}: "
                 f"{done.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def _time_cli(tree: Path, argv: list[str]) -> dict:
    """One --argv run in `tree`: TIMINGS timings of ARGS, their median and exit code."""
    command, env = cli_command(argv), run_env("argv", tree, os.environ)
    times, codes = [], set()
    for _ in range(TIMINGS):  # no timeout: with one, run() polls for the exit in sleeps
        start = time.perf_counter()  # of up to 50 ms, and every time lands on that grid
        codes.add(subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL).returncode)
        times.append(time.perf_counter() - start)
    if len(codes) != 1:
        sys.exit(f"error: {' '.join(argv)} in {tree} exited with each of {sorted(codes)}")
    return {"exit_code": codes.pop(), "metrics": {"wall_s": statistics.median(times)}}


def measure(trees: dict[str, Path], label: str, run_one, pairs: int,
            end_to_end: list[dict]) -> dict:
    """`run_one(tree)` in every tree in ABBA order; the runs and each metric's verdict."""
    runs = []
    for pair, side in run_order(pairs, tuple(trees)):
        runs.append({"pair": pair, "side": side, **run_one(trees[side])})
        shown = " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items())
        print(f"{label} pair {pair} {side}: {shown}", file=sys.stderr)
    metrics = {}
    for m in end_to_end:
        by_side = {s: [r["metrics"][m["name"]] for r in runs if r["side"] == s] for s in trees}
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              **verdict(by_side["parent"], by_side["change"],
                                        by_side.get(AA), m["better"])}
    return {"label": label, "runs": runs, "metrics": metrics}


def parse_args(argv: list[str]) -> argparse.Namespace:
    """This tool's options; their `argv` is None without --argv, else the command line to time."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--aa", action="store_true", help="also run a second copy of PARENT")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--argv", nargs=argparse.REMAINDER,
                        help="last: the coaodv-sim command line to time")
    args = parser.parse_args(argv)
    if (args.argv is None) == (args.workload is None):
        parser.error("give either --workload or --argv")
    if args.argv == []:
        parser.error("--argv needs a command line")
    if args.argv is not None and (args.seed or args.seconds is not None):
        parser.error("--seed and --seconds go with --workload")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # checked before the first run, so an unwritable --out loses no measurement
    if args.out.is_dir():
        parser.error(f"--out {args.out} is a directory")
    parent = args.out.parent
    if not (parent.is_dir() and os.access(parent, os.W_OK | os.X_OK)):
        parser.error(f"--out {args.out}: {parent} is not a writable directory")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    cli_argv = args.argv
    mode = "workload" if cli_argv is None else "argv"
    revs = {side: _git("rev-parse", "--verify", rev).decode().strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = tree_dirs(Path(tmp), SIDES + ((AA,) if args.aa else ()))
        for side, tree in trees.items():
            _extract(revs["parent" if side == AA else side], tree)
        if mode == "argv":
            for tree in trees.values():
                compileall.compile_dir(tree / "src", quiet=1)
            run = (f"coaodv-sim {' '.join(cli_argv)}, {TIMINGS} timings per run: "
                   "fresh `python3 -S -m coaodv_sim.cli` processes")
            sets = [{"argv": cli_argv,
                     **measure(trees, " ".join(cli_argv), lambda tree: _time_cli(tree, cli_argv),
                               args.pairs, [{"name": "wall_s", "unit": "s", "better": "lower"}])}]
        else:
            benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
            seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
            run = (f"bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                   "one fresh process per run")
            sets = [{"workload": w, "seed": s,
                     **measure(trees, f"{w} seed {s}",
                               lambda tree: _bench(tree, w, s, seconds),
                               args.pairs, benchmark["end_to_end"])}
                    for w in args.workload for s in args.seed or [1]]
    report = {
        "schema": "tools/pairs.py 2",
        "parent": {"rev": args.parent, "object": revs["parent"]},
        "change": {"rev": args.change, "object": revs["change"]},
        "machine": f"nproc={os.cpu_count()} platform={platform.platform()} "
                   f"python={platform.python_version()}",
        "command": " ".join(["python3", "tools/pairs.py", *argv]),
        "run": run,
        "bytecode": BYTECODE[mode],
        "order": "ABBA: pair i runs " + ", ".join(trees) + " when i is even, reversed when odd",
        "verdict_rule": f"gain: change better in >= {WIN_SHARE:.0%} of >= {MIN_PAIRS} pairs and "
                        "its median better by more than the parent's IQR and the A/A "
                        "median difference; loss: the same the other way",
        "sets": sets,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for s in sets:
        for name, m in s["metrics"].items():
            print(f"{s['label']} {name}: parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} wins {m['change_wins']}/{m['pairs']} "
                  f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
