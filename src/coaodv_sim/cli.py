"""Command-line front end: validate scenarios, run and compare simulations,
classify network types, and emit CSV reports.

Exit codes: 0 success (a missing route is a result, not a failure),
1 usage or parse errors, 2 invalid scenario.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import logging
import math
import os
import re
import shutil
import sys
from collections.abc import Iterable
from itertools import chain
from pathlib import Path

from . import sim
from .errors import AmbiguousProfile, ScenarioValidationError, UnknownNode, WeightsNotNormalized
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

    def _print_message(self, message, file=None):  # argparse drops a failed write; main maps it
        if message:
            (file or sys.stderr).write(message)


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


_COMMANDS = ("validate", "run", "compare", "classify")


def build_parser(argv: list[str]) -> _Parser:
    """The parser for `argv`, with only the subparser that argv[0] names. When
    argv[0] names no command (an exact match, as argparse's choice check is),
    it has all four, so that help and a missing or unknown command list them.
    argparse builds a formatter per argument, and each one without a width
    looks up the terminal's; here every parser shares one lookup."""
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = _Parser(prog="coaodv-sim", description=__doc__, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=formatter)
    built = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS

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

    if "validate" in built:
        p_validate = add_parser("validate", help="check a scenario file")
        p_validate.add_argument("path")
        p_validate.set_defaults(handler=cmd_validate)

    if "run" in built:
        p_run = add_parser("run", help="run one protocol over the given flows")
        p_run.add_argument("path")
        p_run.add_argument("--protocol", **_enum_choices(Protocol), required=True)
        p_run.add_argument(
            "--flows", nargs="+", required=True, metavar="SRC:DST:COUNT", help="one or more flows"
        )
        p_run.add_argument("--seed", type=_integer, dest="rng_seed", metavar="SEED",
                           help="override the scenario seed")
        p_run.add_argument("--out", help="write a CSV report here")
        add_overrides(p_run)
        p_run.set_defaults(handler=cmd_run)

    if "compare" in built:
        p_cmp = add_parser("compare", help="run both protocols over seeded repetitions")
        p_cmp.add_argument("path")
        p_cmp.add_argument("--flows", nargs="+", required=True, metavar="SRC:DST:COUNT")
        p_cmp.add_argument("--seeds", type=_integer, default=1, help="number of seeds (default 1)")
        p_cmp.add_argument("--out", help="write a CSV report here")
        add_overrides(p_cmp)
        p_cmp.set_defaults(handler=cmd_compare)

    if "classify" in built:
        p_cls = add_parser("classify", help="label the network type for a weight profile")
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
        # json.loads: the scenario's own failures are ScenarioValidationError,
        # which is not a ValueError
        raise UsageError(f"not valid JSON: {exc}") from None


def _shown(text: str) -> str:
    """argv text as UTF-8, its bytes that are not UTF-8 escaped as \\xNN."""
    return os.fsencode(text).decode("utf-8", "backslashreplace")


def _one_line(text: str) -> str:
    """`text` with each character that str.isprintable() rejects as its repr escape."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _same_file(out: str, path: str) -> bool:
    """Whether `out` already exists as the file at `path`, under any spelling
    or link."""
    try:
        return os.path.samefile(out, path)
    except OSError:  # no file at `out` yet
        return False


def _report_name(args) -> str:
    """The report's scenario column, the file stem as the report's csv writer
    quotes it; a report needs it in UTF-8, and must not overwrite the scenario."""
    name = Path(args.path).stem
    if args.out and _same_file(args.out, args.path):
        raise UsageError(f"cannot write {args.out}: it is the scenario file")
    if args.out and _shown(name) != name:
        raise UsageError(f"cannot write {args.out}: scenario name {_shown(name)} is not UTF-8")
    # the report's own terminator: csv quotes a field for each character in it
    field = io.StringIO()
    csv.writer(field, lineterminator="\n").writerow((name,))
    return field.getvalue()[:-1]


def _write_report(path: str, chunks: Iterable[str]) -> None:
    """Write the header, then each chunk of lines as it comes."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerow(REPORT_HEADER)
            handle.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _metric_rows(name_field: str, seed: int, metrics: SimMetrics, tails: dict) -> str:
    """The run's report lines, one per flow, in REPORT_HEADER order.

    `name_field` is the scenario column from `_report_name`. `tails` maps each
    flow outcome to its text after the seed column; it is the command's own
    dict, so an outcome that recurs over seeds is rendered once per command.
    """
    # the member's value attribute: reading .value calls a Python-level descriptor
    head = f"{name_field},{metrics.protocol._value_},{seed},"
    lines = []
    for f in metrics.per_flow:
        tail = tails.get(f)
        if tail is None:  # as csv writes them: '' for None, str for an int, repr for the PDR
            hops = "" if f.hop_count is None else f.hop_count
            pdr = f.packet_delivery_ratio
            pdr = "" if pdr is None else repr(pdr)
            tail = tails[f] = (
                f"{f.source},{f.destination},{hops},"
                f"{f.packets_sent},{f.packets_delivered},{pdr},1\n"
            )
        lines.append(head + tail)
    return "".join(lines)


def _flow_summary(metrics: SimMetrics) -> None:
    for f in metrics.per_flow:
        tag = f"flow {f.source}->{f.destination} [{metrics.protocol.value}]"
        if f.failure:
            print(f"{tag}: {sim.FAILURE_TEXT[f.failure]}")
        else:
            print(
                f"{tag}: hops={f.hop_count} sent={f.packets_sent} "
                f"delivered={f.packets_delivered} pdr={f.packet_delivery_ratio}"
            )


def cmd_validate(args) -> int:
    _load_effective_scenario(args)
    print(f"{_one_line(_shown(args.path))}: OK")
    return 0


def cmd_run(args) -> int:
    config = _load_effective_scenario(args)
    flows = _parse_flows(args.flows)
    name = _report_name(args)
    metrics = sim.run(config, args.protocol, flows, config.rng_seed)
    if args.out:  # before the summary, so a report that cannot be written prints nothing
        _write_report(args.out, [_metric_rows(name, config.rng_seed, metrics, {})])
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
    summaries = aodv_summary, coaodv_summary = sim.Summary(), sim.Summary()
    tails = {}  # each flow outcome's text after the seed column, for this command

    def steps():  # one per seed: fold its two runs, then render them for a report
        for seed, (aodv, coaodv) in runs:  # no seed's runs or lines are kept
            aodv_summary.add(aodv)
            coaodv_summary.add(coaodv)
            if args.out:
                yield (_metric_rows(name, seed, aodv, tails)
                       + _metric_rows(name, seed, coaodv, tails))

    if args.out:
        _write_report(args.out, steps())
        log.info("report written to %s", args.out)
    else:
        for _ in steps():  # yields nothing: without a report no line is built
            pass

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
    from .classifier import classify_network  # no other command imports it

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


def _error(text: str) -> None:
    """Print one `error:` line; a stderr that cannot take it is settled by main."""
    try:
        print(f"error: {_one_line(text)}", file=sys.stderr)
    except OSError:
        pass


def _to_devnull(stream) -> None:
    """Point `stream`'s file descriptor at os.devnull, so that the bytes it
    still holds, flushed at interpreter exit, cannot fail a second time."""
    try:
        fd = stream.fileno()
    except (AttributeError, ValueError, OSError):  # a stream without a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    logger = logging.getLogger("coaodv_sim")
    found = logger.level  # COAODV_SIM_LOG and the handler hold for this invocation only
    handler = _configure_logging(logger)
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = build_parser(argv).parse_args(argv)
            code = args.handler(args)
        except SystemExit as exc:  # --help
            code = int(exc.code or 0)
        except (UsageError, UnknownNode, WeightsNotNormalized, AmbiguousProfile) as exc:
            _error(str(exc))
            code = 1
        except ScenarioValidationError as exc:
            _error(f"invalid scenario: {exc}")
            code = 2
        sys.stdout.flush()  # a buffered write fails here, where it is mapped, not at exit
        return code
    except BrokenPipeError:  # stdout's reader is gone: exit 1 with no error line
        _to_devnull(sys.stdout)
        return 1
    except OSError as exc:  # every file a command opens maps its own errors: this is stdout
        _to_devnull(sys.stdout)
        _error(f"cannot write stdout: {exc.strerror or exc}")
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(found)
        try:
            sys.stderr.flush()
        except OSError:  # the command keeps its own exit code, silently
            _to_devnull(sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
