"""coaodv-sim benchmark: seeded `compare` workloads, end-to-end metrics from
untraced passes and a per-layer breakdown from traced ones.

Run from the repository root:

    python3 bench/run.py --workload paper-seeds --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 10   # every metric of every workload

A pass is one `coaodv_sim.cli.main(["compare", SCENARIO, "--flows", ...,
"--out", CSV])` call in this process: a closed loop, one thread. The program
only sees the scenario file and flow list built from `--seed`. Every pass is
checked outside the timed region: the first against an independent networkx
reference, the rest for byte-identical output, and at the default seed
against the digests in digests.json. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones (traced passes alternate with
untraced ones to give the tracing overhead). Values are medians over the
run; times are host seconds scaled to a reference host speed by a
calibration loop timed before and after every pass (see hostspeed.py), and
the raw host seconds are printed beside them. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import reference
import workloads
from tracer import ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

MIN_PASSES = 3
SETUP_SAMPLE_S = 0.05
CHILD_TIMEOUT_S = 120


def _import_program():
    needed = (ROOT / "src" / "coaodv_sim" / "cli.py", ROOT / workloads.PAPER_SCENARIO)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"error: not a coaodv-sim checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    from coaodv_sim import cli, model

    return cli, model


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    """One workload's files, passes and output checks."""

    def __init__(self, w: workloads.Workload, seed: int, workdir: Path, cli):
        self.w, self.cli = w, cli
        self.scenario = workdir / f"{w.name}.json"
        self.scenario.write_text(w.scenario_text(), encoding="utf-8")
        self.out = workdir / f"{w.name}.csv"
        self.argv = w.argv(self.scenario, self.out)
        self.expect = reference.expectations(w.doc, w.flows)
        self.rows_per_pass = len(w.flows) * w.seeds * 2
        self.recorded = None
        if seed == workloads.DEFAULT_SEED and DIGESTS.is_file():
            self.recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(w.name)
        self.first = None  # (digests, failed rows) of the first pass
        self.attempted = self.failed = 0
        self.report_bytes = self.report_rows = self.setup_reps = 0
        self.problems: list[str] = []

    def run_pass(self, tracer: Tracer | None = None) -> float:
        """Run one compare pass, check it, and return its wall time."""
        self.out.unlink(missing_ok=True)
        gc.collect()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(self.argv)
                else:
                    rc = tracer.call(ROOT_SPAN, self.cli.main, self.argv)
            except Exception:  # a crash fails the pass's rows; the benchmark goes on
                rc = traceback.format_exc()
            wall = perf_counter() - start
        self._check(rc, stdout.getvalue(), stderr.getvalue(), traced=tracer is not None)
        return wall

    def _check(self, rc, stdout: str, stderr: str, traced: bool) -> None:
        rows = self.rows_per_pass
        self.attempted += rows
        if rc != 0 or not self.out.is_file():
            self._fail(rows, f"compare exited {rc!r}, no report: {stderr.strip()[-400:]}")
            return
        data = self.out.read_bytes()
        self.report_bytes, self.report_rows = len(data), data.count(b"\n") - 1
        digests = {"csv_sha256": _sha256(data), "stdout_sha256": _sha256(stdout.encode())}
        if self.first is None:
            _, failed = reference.check_report(
                data.decode("utf-8"), self.w.name, self.w.flows, self.w.seed_list(), self.expect
            )
            if failed:
                self.problems.append(f"{failed} of {rows} rows disagree with the reference")
            if self.recorded is not None and digests != self.recorded:
                self.problems.append(
                    f"output differs from the digests recorded at the default seed: {digests}"
                )
                failed = rows
            self.first = (digests, failed)
        if digests != self.first[0]:
            what = "with tracing on" if traced else "between passes"
            self._fail(rows, f"output bytes changed {what}")
        elif self.first[1]:
            self.failed += self.first[1]

    def _fail(self, rows: int, why: str) -> None:
        self.failed += rows
        self.problems.append(why)

    def setup_sample(self, model) -> float:
        """Seconds to read, parse and validate the scenario, per load, averaged
        over enough loads to fill SETUP_SAMPLE_S."""
        if not self.setup_reps:
            start = perf_counter()
            for _ in range(5):
                model.load_scenario(self.scenario)
            self.setup_reps = max(1, round(SETUP_SAMPLE_S * 5 / (perf_counter() - start)))
        start = perf_counter()
        for _ in range(self.setup_reps):
            model.load_scenario(self.scenario)
        return (perf_counter() - start) / self.setup_reps

    def peak_mem_mb(self) -> float:
        """Peak RSS of one pass run in a process of its own, so that measuring
        it slows no timed pass; 0.0 if that process failed."""
        self.out.unlink(missing_ok=True)
        try:
            child = subprocess.run(
                [sys.executable, str(HERE / "peak_rss.py"), *self.argv],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            self._check("timeout", "", f"no result after {CHILD_TIMEOUT_S} s", traced=False)
            return 0.0
        stderr, _, last = child.stderr.rstrip("\n").rpartition("\n")
        if not last.startswith("peak_rss_kb "):
            stderr, last = child.stderr, "peak_rss_kb 0"
        self._check(child.returncode, child.stdout, stderr, traced=False)
        return int(last.split()[1]) * 1024 / 1e6


def layer_metrics(t: Tracer, bench: Bench) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced pass, as {name: (value, unit)}."""
    c, s = t.counts, t.self_times()

    def ratio(a, b):
        return a / b if b else 0.0

    discovers = c["calls.aodv_discover"] + c["calls.coaodv_discover"]
    return {
        "model.load_s": (s["model"], "s"),
        "model.nodes": (c["model.nodes"], "count"),
        "protocol.adjacency_calls": (c["calls._adjacency"], "count"),
        "protocol.adjacency_s": (s["topology"], "s"),
        "protocol.edges": (c["protocol.edges"], "count"),
        "protocol.adjacency_per_discovery": (ratio(c["calls._adjacency"], discovers), "ratio"),
        "protocol.hello_calls": (c["calls.exchange_hello"], "count"),
        "protocol.hello_s": (s["hello"], "s"),
        "coopmath.coop_checks": (c["calls.is_cooperative"], "count"),
        "coopmath.coop_edge_ratio": (
            ratio(c["hello.coop_edges"], c["hello.directed_edges"]), "ratio"
        ),
        "protocol.discover_calls.aodv": (c["calls.aodv_discover"], "count"),
        "protocol.discover_calls.coaodv": (c["calls.coaodv_discover"], "count"),
        "protocol.discover_self_s": (s["discovery"], "s"),
        "protocol.bfs_visits": (c["protocol.bfs_visits"], "count"),
        "protocol.completed_request_calls": (c["calls.completed_request"], "count"),
        "protocol.route_found_ratio.coaodv": (
            ratio(c["coaodv.found"], c["calls.coaodv_discover"]), "ratio"
        ),
        "sim.run_calls": (c["calls.run"], "count"),
        "sim.data_self_s": (s["data"], "s"),
        "sim.rng_draws": (t.rng_draws, "count"),
        "sim.packets_sent": (c["sim.packets_sent"], "count"),
        "sim.draws_per_packet": (ratio(t.rng_draws, c["sim.packets_sent"]), "ratio"),
        "cli.rows": (bench.report_rows, "count"),
        "cli.report_bytes": (bench.report_bytes, "B"),
        "cli.report_s": (s["report"], "s"),
        "trace.other_s": (s["other"], "s"),
    }


def _print_metric(workload: str, name: str, unit: str, samples: list[float]) -> None:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    print(
        f"{workload:<15} {name:<34} {unit:<6} median {median:<12.6g} q1 {q1:<12.6g} "
        f"q3 {q3:<12.6g} min {min(samples):<12.6g} max {max(samples):<12.6g} n={len(samples)}"
    )


def _print_host(workload: str, what: str, samples: list[float], bursts: list[float]) -> None:
    print(f"{workload:<15} host seconds of {what}: median {statistics.median(samples):.6g} "
          f"min {min(samples):.6g}; calibration burst median {statistics.median(bursts):.6g} s "
          f"(reference {hostspeed.REF_S} s, n={len(bursts)})")


def measure_end_to_end(bench: Bench, model, seconds: float) -> dict:
    """Medians over the run, times in reference seconds (see hostspeed).

    rows_ok_frac is 1 - failed_frac, so that no metric is 0 on a correct run.
    """
    name = bench.w.name
    peak = bench.peak_mem_mb()
    host, walls, setup, bursts = [], [], [], [hostspeed.burst()]
    deadline = perf_counter() + seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        load = bench.setup_sample(model)
        host.append(bench.run_pass())
        bursts.append(hostspeed.burst())
        factor = hostspeed.factor(*bursts[-2:])
        walls.append(host[-1] * factor)
        setup.append(load * factor)
    _print_host(name, "a pass", host, bursts)
    ok = 1 - bench.failed / bench.attempted
    rows = bench.rows_per_pass
    measured = {
        "wall_s": (walls, "s"),
        "rows_per_s": ([rows / w for w in walls], "1/s"),
        "setup_s": (setup, "s"),
        "peak_mem_mb": ([peak], "MB"),
        "rows_ok_frac": ([ok], "ratio"),
    }
    print(f"{name:<15} failed_frac {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} rows)")
    out = {}
    for metric, (samples, unit) in measured.items():
        _print_metric(name, metric, unit, samples)
        out[metric] = {"value": statistics.median(samples), "unit": unit}
    return out


def measure_layers(bench: Bench, seconds: float) -> dict:
    """Medians over traced passes; times in reference seconds."""
    name = bench.w.name
    plain, traced, per_pass, bursts = [], [], [], [hostspeed.burst()]
    deadline = perf_counter() + seconds
    while min(len(plain), len(traced)) < 2 or perf_counter() < deadline:
        plain.append(bench.run_pass())
        tracer = Tracer()
        with tracer:
            traced.append(bench.run_pass(tracer))
        bursts.append(hostspeed.burst())
        factor = hostspeed.factor(*bursts[-2:])
        per_pass.append(
            {m: (v * factor if unit == "s" else v, unit)
             for m, (v, unit) in layer_metrics(tracer, bench).items()}
        )
    _print_host(name, "an untraced pass", plain, bursts)
    for what, names in (
        ("absent", tracer.absent),
        ("present but never called", tracer.uncalled()),
        ("result not understood", sorted(tracer.unobserved)),
    ):
        if names:
            print(f"{name:<15} tracer: {what}: {', '.join(names)}")
    out = {}
    for metric, (_, unit) in per_pass[0].items():
        samples = [p[metric][0] for p in per_pass]
        _print_metric(name, metric, unit, samples)
        out[metric] = {"value": statistics.median(samples), "unit": unit}
    traced_s, plain_s = statistics.median(traced), statistics.median(plain)
    overhead = traced_s / plain_s - 1
    print(f"{name:<15} tracing overhead {overhead:.4f} "
          f"(traced {traced_s:.4f} s vs untraced {plain_s:.4f} s, host seconds)")
    out["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    layers = {m: out[m]["value"] for m in out if out[m]["unit"] == "s"}
    total = sum(layers.values())
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    shares = ", ".join(f"{m} {v / total:.0%}" for m, v in ranked)
    print(f"{name:<15} self-time shares of the traced pass: {shares}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, cli, model):
    w = workloads.build(name, seed, ROOT)
    bench = Bench(w, seed, workdir, cli)
    stats = " ".join(f"{k}={v:.4g}" for k, v in w.stats.items())
    print(f"{name:<15} seed={seed} {stats} flows={len(w.flows)} seeds={w.seeds} "
          f"rows/pass={bench.rows_per_pass}")
    metrics = measure_layers(bench, seconds) if trace else measure_end_to_end(bench, model, seconds)
    for problem in dict.fromkeys(bench.problems):
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    return bench, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli, model = _import_program()
    print(f"machine: nproc={os.cpu_count()} platform={platform.platform()} "
          f"python={platform.python_version()}")
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.workload == "all":
            runs = [(n, t) for n in workloads.NAMES for t in (False, True)]
        else:
            runs = [(args.workload, bool(args.trace))]
        benches, metrics = [], {}
        for name, trace in runs:
            bench, found = run_workload(name, args.seed, args.seconds, trace, workdir, cli, model)
            benches.append(bench)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
    result = {
        "correct": not any(b.problems for b in benches),
        "attempted": sum(b.attempted for b in benches),
        "failed": sum(b.failed for b in benches),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
