"""Domain types, scenario validation, and the JSON scenario file format.

All types are immutable value objects; `validate_scenario` checks every
invariant and never normalizes silently. The scenario document is a single
JSON object, see `scenario_from_dict` for the schema.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import ScenarioValidationError, quoted


class DistanceMetric(str, Enum):
    MANHATTAN = "manhattan"
    EUCLIDEAN = "euclidean"


class MobilityMetric(str, Enum):
    EUCLIDEAN_RATE = "euclidean_rate"
    MANHATTAN_RATE = "manhattan_rate"


class Protocol(str, Enum):
    AODV = "aodv"
    COAODV = "coaodv"


class NetworkType(Enum):
    """Network class labeled by the dominant criterion weight."""

    DISTANCE_SENSITIVE = "Distance Sensitive Network"
    MOBILITY_SENSITIVE = "Mobility Sensitive Network"
    ENERGY_SENSITIVE = "Energy Sensitive Network"

    @property
    def example_networks(self) -> str:
        return _NETWORK_EXAMPLES[self]


_NETWORK_EXAMPLES = {
    NetworkType.DISTANCE_SENSITIVE: "wireless networks",
    NetworkType.MOBILITY_SENSITIVE: "MANETs, VANETs",
    NetworkType.ENERGY_SENSITIVE: "sensor networks",
}


@dataclass(frozen=True)
class Position:
    x: float
    y: float


@dataclass(frozen=True)
class MobilityRecord:
    """Two recorded positions of a node and the time elapsed between them."""

    pos_t1: Position
    pos_t2: Position
    elapsed: float = 1.0


@dataclass(frozen=True)
class NodeState:
    id: int
    mobility_record: MobilityRecord
    energy: float

    @property
    def position(self) -> Position:
        """Current position; topology distances are taken at the first epoch."""
        return self.mobility_record.pos_t1


@dataclass(frozen=True)
class ScenarioConfig:
    nodes: tuple[NodeState, ...]
    area: tuple[float, float]
    transmission_range: float
    energy_threshold: float
    distance_metric: DistanceMetric = DistanceMetric.MANHATTAN
    mobility_metric: MobilityMetric = MobilityMetric.EUCLIDEAN_RATE
    threshold_strict: bool = True
    non_coop_drop_prob: float = 1.0
    rng_seed: int = 0

    def node_map(self) -> dict[int, NodeState]:
        return {n.id: n for n in self.nodes}

    def __reduce__(self):
        # pickle and copy rebuild a config from its fields alone, never with
        # what a caller has set on the object outside them
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Route:
    """A discovered route with the cooperative flag of each intermediate."""

    path: tuple[int, ...]
    hop_count: int
    route_stability: tuple[bool, ...]

    def __post_init__(self):
        if not self.path:
            raise ValueError("route path must be nonempty")
        if len(set(self.path)) != len(self.path):
            raise ValueError("route path must not repeat nodes")
        if self.hop_count != len(self.path) - 1:
            raise ValueError("hop_count must equal len(path) - 1")
        if len(self.route_stability) != len(self.path[1:-1]):
            path = quoted(self.path)
            raise ValueError(f"route_stability needs one flag per intermediate of {path}")

    @property
    def fully_cooperative(self) -> bool:
        return all(self.route_stability)


WEIGHT_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WeightProfile:
    """Criterion weights over (distance, mobility, energy)."""

    w_distance: float
    w_mobility: float
    w_energy: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_distance, self.w_mobility, self.w_energy)

    def is_normalized(self) -> bool:
        return abs(math.fsum(self.as_tuple()) - 1.0) <= WEIGHT_SUM_TOLERANCE


class FlowMetrics(NamedTuple):
    """Outcome of one (source, destination, packet_count) flow. A NamedTuple,
    not a dataclass: a run builds one per flow, and a tuple is built faster."""

    source: int
    destination: int
    hop_count: int | None
    packets_sent: int
    packets_delivered: int
    failure: str | None = None

    @property
    def packet_delivery_ratio(self) -> float | None:
        if self.packets_sent <= 0:
            return None
        return self.packets_delivered / self.packets_sent


class SimMetrics(NamedTuple):
    """One simulation run: its protocol and the outcome of each flow. The
    run's totals are read off the flows."""

    protocol: Protocol
    per_flow: tuple[FlowMetrics, ...]

    @property
    def packets_sent(self) -> int:  # bench/tracer.py reads it off each result of sim.run
        return sum(f.packets_sent for f in self.per_flow)


# Exact types, so that a bool is never a number and nothing is coerced.
_NUMBER_TYPES = frozenset((int, float))
_FLOAT_MAX = sys.float_info.max


def _invalid(what: str, value) -> ScenarioValidationError:
    """The error `WHAT, got VALUE`, its value quoted as every message quotes one."""
    return ScenarioValidationError(f"{what}, got {quoted(value)}")


def _check_number(name: str, value) -> None:
    """Raise unless `value` is an int or float in float range, compared, never converted."""
    if type(value) not in _NUMBER_TYPES:
        raise _invalid(f"{name} must be a number", value)
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        if type(value) is int:
            raise ScenarioValidationError(f"{name} is an integer too large for a float")
        raise _invalid(f"{name} must be finite", value)


def validate_scenario(config: ScenarioConfig) -> ScenarioConfig:
    """Return `config` unchanged iff every field has its exact type and every
    invariant holds, else raise a ScenarioValidationError whose message names
    the field or the node: the one check of a scenario's values, for a file
    and a config built in Python alike. Nothing is converted.

    Types: a number is an `int` or a `float`, never a `bool`; the seed an
    `int`, `threshold_strict` a `bool`, each metric a member of its enum, the
    area a pair, the nodes a tuple. Each number but an id or the seed passes
    `_check_number` before its own bound: it is finite, and an int past float
    range is named by its key, never printed. Bounds: the area, threshold,
    energies, ids and seed nonnegative (random.Random(-s) draws the stream of
    random.Random(s)), ids unique, both position epochs inside the area, the
    range and elapsed times positive, the drop probability in [0, 1]. Each
    value a message shows goes through `errors.quoted`.
    """
    area = config.area
    if type(area) is not tuple or len(area) != 2:
        raise _invalid("area must be [width, height]", area)
    (width, height), reach, threshold = area, config.transmission_range, config.energy_threshold
    drop = config.non_coop_drop_prob
    for name, value in (("area width", width), ("area height", height),
                        ("transmission_range", reach), ("energy_threshold", threshold),
                        ("non_coop_drop_prob", drop)):
        _check_number(name, value)
    if min(area) < 0:
        raise ScenarioValidationError(
            f"area width and height must be >= 0, got {quoted(width)}x{quoted(height)}"
        )
    if reach <= 0:
        raise _invalid("transmission_range must be > 0", reach)
    if threshold < 0:
        raise _invalid("energy_threshold must be >= 0", threshold)
    if not 0.0 <= drop <= 1.0:
        raise _invalid("non_coop_drop_prob must be in [0, 1]", drop)
    seed, strict = config.rng_seed, config.threshold_strict
    if type(seed) is not int:
        raise _invalid("seed must be an integer", seed)
    if seed < 0:
        raise _invalid("seed must be >= 0", seed)
    if type(strict) is not bool:
        raise _invalid("threshold_strict must be true or false", strict)
    for key, enum in (("distance_metric", DistanceMetric), ("mobility_metric", MobilityMetric)):
        if type(value := getattr(config, key)) is not enum:
            names = ", ".join(repr(m.value) for m in enum)
            raise _invalid(f"{key} must be one of {names}", value)
    if type(config.nodes) is not tuple:
        raise _invalid("nodes must be a tuple of NodeState", config.nodes)

    seen: set[int] = set()
    for node in config.nodes:
        node_id, rec, energy = node.id, node.mobility_record, node.energy
        if type(node_id) is not int or node_id < 0:
            raise _invalid("node id must be a nonnegative integer", node_id)
        if node_id in seen:
            raise ScenarioValidationError(f"duplicate node id {quoted(node_id)}")
        seen.add(node_id)
        p1, p2, elapsed = rec.pos_t1, rec.pos_t2, rec.elapsed
        values = (p1.x, p1.y, p2.x, p2.y, energy)
        if not _NUMBER_TYPES.issuperset(map(type, values)):
            raise _invalid(f"node {quoted(node_id)}: positions and energy must be numbers", values)
        for pos in (p1, p2):
            if not (0.0 <= pos.x <= width and 0.0 <= pos.y <= height):
                where = f"node {quoted(node_id)} pos_t{1 if pos is p1 else 2}"
                for value in (pos.x, pos.y):  # named by its key if not finite
                    _check_number(where, value)
                # one coordinate and its side: three values fit one short line
                axis, value, side = (
                    ("x", pos.x, width) if not 0.0 <= pos.x <= width else ("y", pos.y, height)
                )
                raise ScenarioValidationError(
                    f"{where} {axis} {quoted(value)} outside area [0, {quoted(side)}]"
                )
        if not 0 <= energy <= _FLOAT_MAX:
            _check_number(f"node {quoted(node_id)} energy", energy)
            raise _invalid(f"node {quoted(node_id)} energy must be >= 0", energy)
        if not (type(elapsed) in _NUMBER_TYPES and 0 < elapsed <= _FLOAT_MAX):
            _check_number(f"node {quoted(node_id)} elapsed time", elapsed)
            raise ScenarioValidationError(
                f"elapsed time between position records must be > 0 (node {quoted(node_id)})"
            )
    return config


# --- JSON scenario document ---------------------------------------------

_REQUIRED_KEYS = ("nodes", "area", "transmission_range", "energy_threshold")
_KEYS = frozenset(
    (*_REQUIRED_KEYS, "distance_metric", "mobility_metric", "threshold_strict",
     "non_coop_drop_prob", "seed", "elapsed_time")
)
_NODE_KEYS = frozenset(("id", "pos_t1", "pos_t2", "energy"))


def _member(enum: type[Enum], value):
    """The member of `enum` that `value` names, else `value`, for validate_scenario to name."""
    try:
        return enum(value)
    except ValueError:
        return value


def _node_label(entry: dict, index: int) -> str:
    """A node as messages name it: by its id, or by its place if it has none."""
    return f"node {quoted(entry['id'])}" if "id" in entry else f"nodes[{index}]"


def _check_keys(obj: dict, known: frozenset, where: str) -> None:
    """Reject the keys of `obj` that the schema does not name, showing the first two."""
    if unknown := [k for k in obj if k not in known]:
        shown = ", ".join(map(quoted, unknown[:2])) + (", ..." if len(unknown) > 2 else "")
        raise ScenarioValidationError(f"{where}: unknown keys {shown}")


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed scenario document.

    Required keys: nodes (list of {id, pos_t1: [x, y], pos_t2: [x, y], energy}),
    area ([width, height]), transmission_range, energy_threshold.
    Optional keys with defaults: distance_metric ("manhattan"),
    mobility_metric ("euclidean_rate"), threshold_strict (true),
    non_coop_drop_prob (1.0), seed (0), elapsed_time (1.0, applied to every node).

    Only the document's shape is checked, and `elapsed_time`, the one value no
    field holds: a ScenarioValidationError names an object or array of the
    wrong shape, a missing, unknown or repeated key, and an `elapsed_time` that
    fails `_check_number` or is not > 0. Values are kept as written, a metric
    name as its member; validate_scenario checks them.
    """
    if not isinstance(doc, dict):
        raise ScenarioValidationError(
            f"scenario document must be an object, got {type(doc).__name__}"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ScenarioValidationError(f"missing required keys: {', '.join(missing)}")
    _check_keys(doc, _KEYS, "scenario")
    elapsed = doc.get("elapsed_time", 1.0)
    _check_number("elapsed_time", elapsed)
    if elapsed <= 0:
        raise _invalid("elapsed_time must be > 0", elapsed)
    try:
        entries = doc["nodes"]
        if type(entries) is not list:
            raise _invalid("nodes must be an array of node objects", entries)
        nodes = []
        for entry in entries:  # checked inline: a call per node slowed a 300-node parse 5%
            if type(entry) is not dict:
                raise _invalid(f"nodes[{len(nodes)}] must be an object", entry)
            # four keys that the reads below all find are exactly the schema's
            if len(entry) != 4:
                _check_keys(entry, _NODE_KEYS, _node_label(entry, len(nodes)))
            try:
                (x1, y1), (x2, y2) = entry["pos_t1"], entry["pos_t2"]
            except (TypeError, ValueError):  # not a pair: too short, too long or not iterable
                raise ScenarioValidationError(
                    f"node {quoted(entry['id'])}: pos_t1 and pos_t2 must each be [x, y], "
                    f"got {quoted(entry['pos_t1'])} and {quoted(entry['pos_t2'])}"
                ) from None
            record = MobilityRecord(Position(x1, y1), Position(x2, y2), elapsed)
            nodes.append(NodeState(entry["id"], record, entry["energy"]))
        area = doc["area"]
        try:
            width, height = area
        except (TypeError, ValueError):
            raise _invalid("area must be [width, height]", area) from None
        return ScenarioConfig(
            nodes=tuple(nodes),
            area=(width, height),
            transmission_range=doc["transmission_range"],
            energy_threshold=doc["energy_threshold"],
            distance_metric=_member(DistanceMetric, doc.get("distance_metric", "manhattan")),
            mobility_metric=_member(MobilityMetric, doc.get("mobility_metric", "euclidean_rate")),
            threshold_strict=doc.get("threshold_strict", True),
            non_coop_drop_prob=doc.get("non_coop_drop_prob", 1.0),
            rng_seed=doc.get("seed", 0),
        )
    except KeyError as exc:  # the required keys are present, so a node lacks this one
        # a four-key node that lacks a schema key holds an unknown one in its place
        where = _node_label(entry, len(nodes))
        _check_keys(entry, _NODE_KEYS, where)
        raise ScenarioValidationError(f"{where}: missing key {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is rejected, never overwritten."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ScenarioValidationError(f"repeated key {quoted(key)}")
            seen.add(key)
    return obj


def scenario_from_json(text: str) -> ScenarioConfig:
    return scenario_from_dict(json.loads(text, object_pairs_hook=_unique_keys))


def load_scenario(path: str | Path, **overrides) -> ScenarioConfig:
    """Read and parse a scenario file, replace the ScenarioConfig fields named
    in `overrides`, then validate; the one place a scenario file is read."""
    config = scenario_from_json(Path(path).read_text(encoding="utf-8"))
    return validate_scenario(replace(config, **overrides) if overrides else config)
