"""Command-line front end: validate scenarios, run and compare simulations,
classify network types, and emit CSV reports.

Exit codes: 0 success (a missing route is a result, not a failure),
1 usage or parse errors, 2 invalid scenario.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import math
import os
import re
import sys
from collections import deque
from collections.abc import Iterable
from itertools import chain
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
    load_scenario,
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


# Numerals as JSON writes them, in ASCII. int() and float() alone also take
# '1_000', non-ASCII digits such as '٣' and surrounding spaces. A number may
# also be non-finite, spelled as Python or JSON prints it, so that the
# scenario's own checks name it.
_DIGITS = r"-?(?:0|[1-9][0-9]*)"
_INTEGER = re.compile(_DIGITS)
_NUMBER = re.compile(rf"{_DIGITS}(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|-?inf|-?Infinity|nan|NaN")


def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _number(text: str) -> float:
    if not _NUMBER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return float(text)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no prefix matching: --seed is not --seeds
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise UsageError(message)


def _configure_logging(logger: logging.Logger) -> logging.Handler:
    """Send `logger`'s records to the current stderr at the COAODV_SIM_LOG
    level; returns the handler, for `main` to remove when it returns."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    mode = os.environ.get("COAODV_SIM_LOG", "quiet")
    level = _LOG_LEVELS.get(mode)
    if level is None:
        logger.setLevel(logging.WARNING)
        logger.warning("unknown COAODV_SIM_LOG value %r, using quiet", mode)
    else:
        logger.setLevel(level)
    return handler


def _enum_choices(enum) -> dict:
    """argparse keywords for an option naming an enum member by its value; other
    text stays text, so that the choices check reports an invalid choice."""
    members = {m.value: m for m in enum}
    return {"type": lambda text: members.get(text, text), "choices": list(members)}


def build_parser() -> _Parser:
    parser = _Parser(prog="coaodv-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):  # each dest is the ScenarioConfig field the option replaces
        p.add_argument("--threshold", type=_number, dest="energy_threshold", metavar="THRESHOLD",
                       help="override energy threshold")
        p.add_argument("--range", type=_number, dest="transmission_range", metavar="RANGE",
                       help="override transmission range")
        p.add_argument("--distance-metric", **_enum_choices(DistanceMetric), help="override metric")
        p.add_argument("--mobility-metric", **_enum_choices(MobilityMetric),
                       help="override mobility mode")
        p.add_argument("--strict", action=argparse.BooleanOptionalAction, dest="threshold_strict",
                       help="energy strictly above threshold (--no-strict allows equality)")
        p.add_argument("--drop-prob", type=_number, dest="non_coop_drop_prob", metavar="DROP_PROB",
                       help="override non-cooperative drop probability")

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("path")
    p_validate.set_defaults(handler=cmd_validate)

    p_run = sub.add_parser("run", help="run one protocol over the given flows")
    p_run.add_argument("path")
    p_run.add_argument("--protocol", choices=[p.value for p in Protocol], required=True)
    p_run.add_argument(
        "--flows", nargs="+", required=True, metavar="SRC:DST:COUNT", help="one or more flows"
    )
    p_run.add_argument("--seed", type=_integer, dest="rng_seed", metavar="SEED",
                       help="override the scenario seed")
    p_run.add_argument("--out", help="write a CSV report here")
    add_overrides(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both protocols over seeded repetitions")
    p_cmp.add_argument("path")
    p_cmp.add_argument("--flows", nargs="+", required=True, metavar="SRC:DST:COUNT")
    p_cmp.add_argument("--seeds", type=_integer, default=1, help="number of seeds (default 1)")
    p_cmp.add_argument("--out", help="write a CSV report here")
    add_overrides(p_cmp)
    p_cmp.set_defaults(handler=cmd_compare)

    p_cls = sub.add_parser("classify", help="label the network type for a weight profile")
    p_cls.add_argument("--weights", required=True, metavar="W1,W2,W3")
    p_cls.set_defaults(handler=cmd_classify)

    return parser


def _parse_flows(specs: list[str]) -> tuple[sim.Flow, ...]:
    flows = []
    for spec in specs:
        try:
            src, dst, count = map(_integer, spec.split(":"))
        except (ValueError, argparse.ArgumentTypeError):  # not three parts, or not integers
            raise UsageError(f"flow {spec!r} must be SRC:DST:COUNT, three integers") from None
        try:
            flows.append(sim.Flow(source=src, destination=dst, packets=count))
        except ValueError as exc:
            raise UsageError(f"flow {spec!r}: {exc}") from None
    return tuple(flows)


def _load_effective_scenario(args) -> ScenarioConfig:
    """The scenario at args.path with the command's overrides applied; a file
    that cannot be read or is not JSON is a usage error."""
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ScenarioConfig)
        if getattr(args, f.name, None) is not None
    }
    try:
        return load_scenario(args.path, **overrides)
    except FileNotFoundError:
        raise UsageError(f"file not found: {args.path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot read {args.path}: {reason}") from None
    except (ValueError, RecursionError) as exc:
        # json.loads: the scenario's own failures are ScenarioFormatError or
        # ScenarioValidationError, neither of which is a ValueError
        raise UsageError(f"not valid JSON: {exc}") from None


def _shown(text: str) -> str:
    """argv text as UTF-8, its bytes that are not UTF-8 escaped as \\xNN."""
    return os.fsencode(text).decode("utf-8", "backslashreplace")


def _report_name(args) -> str:
    """The report's scenario column, the file stem; a report needs it in UTF-8."""
    name = Path(args.path).stem
    if args.out and _shown(name) != name:
        raise UsageError(f"cannot write {args.out}: scenario name {_shown(name)} is not UTF-8")
    return name


def _write_report(path: str, chunks: Iterable[list[tuple]]) -> None:
    """Write the header, then each chunk of rows as it comes."""
    # csv.writer prints None as an empty field and a float as its repr
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(REPORT_HEADER)
            for rows in chunks:
                writer.writerows(rows)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _metric_rows(name: str, seed: int, metrics: SimMetrics) -> list[tuple]:
    """One report row per flow, raw values in REPORT_HEADER order."""
    protocol = metrics.protocol.value
    return [
        (
            name,
            protocol,
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
        if f.failure:
            print(f"{tag}: {f.failure.replace('_', ' ')}")
        else:
            print(
                f"{tag}: hops={f.hop_count} sent={f.packets_sent} "
                f"delivered={f.packets_delivered} pdr={f.packet_delivery_ratio}"
            )


def cmd_validate(args) -> int:
    _load_effective_scenario(args)
    print(f"{_shown(args.path)}: OK")
    return 0


def cmd_run(args) -> int:
    config = _load_effective_scenario(args)
    flows = _parse_flows(args.flows)
    name = _report_name(args)
    metrics = sim.run(config, Protocol(args.protocol), flows, config.rng_seed)
    if args.out:  # before the summary, so a report that cannot be written prints nothing
        _write_report(args.out, [_metric_rows(name, config.rng_seed, metrics)])
        log.info("report written to %s", args.out)
    _flow_summary(metrics)
    return 0


def cmd_compare(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    config = _load_effective_scenario(args)
    flows = _parse_flows(args.flows)
    name = _report_name(args)
    seeds = range(config.rng_seed, config.rng_seed + args.seeds)
    # The first seed runs before --out is opened: a run discovers every flow,
    # so an unknown node exits without creating or truncating the report.
    runs = zip(seeds, sim.pairs(config, flows, seeds))
    runs = chain([next(runs)], runs)
    summaries = (sim.Summary(), sim.Summary())

    def seed_rows():  # one list of rows per seed; nothing of a seed is kept after it
        for seed, pair in runs:
            rows = []
            for summary, metrics in zip(summaries, pair):
                summary.add(metrics)
                rows += _metric_rows(name, seed, metrics)
            yield rows

    if args.out:
        _write_report(args.out, seed_rows())
        log.info("report written to %s", args.out)
    else:
        deque(seed_rows(), maxlen=0)

    print(f"{'protocol':<8} {'routed_flows':>12} {'mean_hops':>10} {'mean_pdr':>9}")
    for label, summary in zip(("aodv", "coaodv"), summaries):
        hops, pdr = summary.mean_hops, summary.mean_pdr
        print(
            f"{label:<8} {f'{summary.routed}/{summary.flows}':>12} "
            f"{'-' if hops is None else f'{hops:.4f}':>10} "
            f"{'-' if pdr is None else f'{pdr:.4f}':>9}"
        )
    return 0


def cmd_classify(args) -> int:
    try:
        weights = [_number(p) for p in args.weights.split(",")]
    except argparse.ArgumentTypeError:
        weights = []
    if len(weights) != 3 or not all(map(math.isfinite, weights)):
        raise UsageError("--weights must be three finite numbers W1,W2,W3")
    result = classify_network(WeightProfile(*weights))
    print(
        f"{result.network_type.value} (e.g. {result.network_type.example_networks}); "
        f"dominant criterion: {result.dominant_weight}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    logger = logging.getLogger("coaodv_sim")
    found = logger.level  # COAODV_SIM_LOG and the handler hold for this invocation only
    handler = _configure_logging(logger)
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ScenarioFormatError, ScenarioValidationError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 2
    except (WeightsNotNormalized, AmbiguousProfile, UnknownNode) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(found)


if __name__ == "__main__":
    sys.exit(main())
