"""Command-line front end: validate scenarios, run and compare simulations,
classify network types, and emit CSV reports.

Exit codes: 0 success (a missing route is a result, not a failure),
1 usage or parse errors, 2 invalid scenario.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import sim
from .classifier import classify_network
from .errors import (
    AmbiguousProfile,
    ScenarioFormatError,
    ScenarioValidationError,
    UnknownNode,
    WeightsNotNormalized,
)
from .model import (
    DistanceMetric,
    MobilityMetric,
    Protocol,
    ScenarioConfig,
    SimMetrics,
    WeightProfile,
    scenario_from_json,
    validate_scenario,
)

log = logging.getLogger("coaodv_sim.cli")

REPORT_HEADER = (
    "scenario",
    "protocol",
    "seed",
    "flow_src",
    "flow_dst",
    "hop_count",
    "packets_sent",
    "packets_delivered",
    "pdr",
    "route_discoveries",
)

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise UsageError(message)


_log_handler: logging.StreamHandler | None = None


def _configure_logging() -> None:
    global _log_handler
    mode = os.environ.get("COAODV_SIM_LOG", "quiet")
    level = _LOG_LEVELS.get(mode)
    root = logging.getLogger("coaodv_sim")
    if _log_handler is None:
        _log_handler = logging.StreamHandler(sys.stderr)
        _log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(_log_handler)
    _log_handler.stream = sys.stderr  # follow redirected stderr between invocations
    if level is None:
        root.setLevel(logging.WARNING)
        root.warning("unknown COAODV_SIM_LOG value %r, using quiet", mode)
    else:
        root.setLevel(level)


def build_parser() -> _Parser:
    parser = _Parser(prog="coaodv-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument("--threshold", type=float, help="override energy threshold")
        p.add_argument("--range", type=float, dest="range_", help="override transmission range")
        p.add_argument(
            "--distance-metric", choices=[m.value for m in DistanceMetric], help="override metric"
        )
        p.add_argument(
            "--mobility-metric",
            choices=[m.value for m in MobilityMetric],
            help="override mobility mode",
        )
        p.add_argument(
            "--strict",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="energy strictly above threshold (--no-strict allows equality)",
        )
        p.add_argument("--drop-prob", type=float, help="override non-cooperative drop probability")

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("path")

    p_run = sub.add_parser("run", help="run one protocol over the given flows")
    p_run.add_argument("path")
    p_run.add_argument("--protocol", choices=[p.value for p in Protocol], required=True)
    p_run.add_argument(
        "--flows", nargs="+", required=True, metavar="SRC:DST:COUNT", help="one or more flows"
    )
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--out", help="write a CSV report here")
    add_overrides(p_run)

    p_cmp = sub.add_parser("compare", help="run both protocols over seeded repetitions")
    p_cmp.add_argument("path")
    p_cmp.add_argument("--flows", nargs="+", required=True, metavar="SRC:DST:COUNT")
    p_cmp.add_argument("--seeds", type=int, default=1, help="number of seeds (default 1)")
    p_cmp.add_argument("--out", help="write a CSV report here")
    add_overrides(p_cmp)

    p_cls = sub.add_parser("classify", help="label the network type for a weight profile")
    p_cls.add_argument("--weights", required=True, metavar="W1,W2,W3")

    return parser


def _parse_flows(specs: list[str]) -> tuple[sim.Flow, ...]:
    flows = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"flow {spec!r} must look like SRC:DST:COUNT")
        try:
            src, dst, count = (int(p) for p in parts)
        except ValueError:
            raise UsageError(f"flow {spec!r} must contain integers") from None
        flows.append(sim.Flow(source=src, destination=dst, packets=count))
    return tuple(flows)


def _load_effective_scenario(args) -> ScenarioConfig:
    text = Path(args.path).read_text(encoding="utf-8")
    config = scenario_from_json(text)
    replacements = {}
    if getattr(args, "threshold", None) is not None:
        replacements["energy_threshold"] = args.threshold
    if getattr(args, "range_", None) is not None:
        replacements["transmission_range"] = args.range_
    if getattr(args, "distance_metric", None) is not None:
        replacements["distance_metric"] = DistanceMetric(args.distance_metric)
    if getattr(args, "mobility_metric", None) is not None:
        replacements["mobility_metric"] = MobilityMetric(args.mobility_metric)
    if getattr(args, "strict", None) is not None:
        replacements["threshold_strict"] = args.strict
    if getattr(args, "drop_prob", None) is not None:
        replacements["non_coop_drop_prob"] = args.drop_prob
    if replacements:
        config = dataclasses.replace(config, **replacements)
    return validate_scenario(config)


def _write_report(path: str, rows: list[tuple]) -> None:
    # csv.writer prints None as an empty field and a float as its repr
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(REPORT_HEADER)
            writer.writerows(rows)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _metric_rows(name: str, seed: int, metrics: SimMetrics) -> list[tuple]:
    """One report row per flow, raw values in REPORT_HEADER order."""
    return [
        (
            name,
            metrics.protocol.value,
            seed,
            f.source,
            f.destination,
            f.hop_count,
            f.packets_sent,
            f.packets_delivered,
            f.packet_delivery_ratio,
            1,
        )
        for f in metrics.per_flow
    ]


def _flow_summary(metrics: SimMetrics) -> None:
    for f in metrics.per_flow:
        tag = f"flow {f.source}->{f.destination} [{metrics.protocol.value}]"
        if f.failure == "no_route":
            print(f"{tag}: no route")
        elif f.failure == "no_cooperative_route":
            print(f"{tag}: no cooperative route")
        else:
            print(
                f"{tag}: hops={f.hop_count} sent={f.packets_sent} "
                f"delivered={f.packets_delivered} pdr={f.packet_delivery_ratio}"
            )


def cmd_validate(args) -> int:
    validate_scenario(scenario_from_json(Path(args.path).read_text(encoding="utf-8")))
    print(f"{args.path}: OK")
    return 0


def cmd_run(args) -> int:
    config = _load_effective_scenario(args)
    flows = _parse_flows(args.flows)
    seed = args.seed if args.seed is not None else config.rng_seed
    metrics = sim.run(
        sim.SimRun(scenario=config, protocol=Protocol(args.protocol), flows=flows, seed=seed)
    )
    _flow_summary(metrics)
    if args.out:
        _write_report(args.out, _metric_rows(Path(args.path).stem, seed, metrics))
        log.info("report written to %s", args.out)
    return 0


def cmd_compare(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    config = _load_effective_scenario(args)
    flows = _parse_flows(args.flows)
    seeds = [config.rng_seed + i for i in range(args.seeds)]
    results = sim.compare(config, flows, seeds)

    rows: list[tuple] = []
    name = Path(args.path).stem
    for seed, pair in zip(seeds, results):
        for metrics in pair:
            rows.extend(_metric_rows(name, seed, metrics))
    if args.out:
        _write_report(args.out, rows)
        log.info("report written to %s", args.out)

    aodv_all = [pair[0] for pair in results]
    coaodv_all = [pair[1] for pair in results]
    print(f"{'protocol':<8} {'routed_flows':>12} {'mean_hops':>10} {'mean_pdr':>9}")
    for label, group in (("aodv", aodv_all), ("coaodv", coaodv_all)):
        routed = sum(1 for m in group for f in m.per_flow if f.hop_count is not None)
        total = sum(len(m.per_flow) for m in group)
        hops = sim.mean_hops(group)
        pdr = sim.mean_pdr(group)
        print(
            f"{label:<8} {f'{routed}/{total}':>12} "
            f"{'-' if hops is None else f'{hops:.4f}':>10} "
            f"{'-' if pdr is None else f'{pdr:.4f}':>9}"
        )
    return 0


def cmd_classify(args) -> int:
    parts = args.weights.split(",")
    if len(parts) != 3:
        raise UsageError("--weights must look like W1,W2,W3")
    try:
        w1, w2, w3 = (float(p) for p in parts)
    except ValueError:
        raise UsageError("--weights must contain three numbers") from None
    result = classify_network(WeightProfile(w1, w2, w3))
    print(
        f"{result.network_type.label} (e.g. {result.network_type.example_networks}); "
        f"dominant criterion: {result.dominant_weight}"
    )
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "run": cmd_run,
    "compare": cmd_compare,
    "classify": cmd_classify,
}


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: not valid JSON: {exc}", file=sys.stderr)
        return 1
    except (ScenarioFormatError, ScenarioValidationError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 2
    except (WeightsNotNormalized, AmbiguousProfile, UnknownNode, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
