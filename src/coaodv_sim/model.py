"""Domain types, scenario validation, and the JSON scenario file format.

All types are immutable value objects; `validate_scenario` checks every
invariant and never normalizes silently. The scenario document is a single
JSON object, see `scenario_from_dict` for the schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .errors import (
    DuplicateNodeId,
    InvalidNodeId,
    InvalidProbability,
    NegativeArea,
    NegativeEnergy,
    NegativeSeed,
    NegativeThreshold,
    NodeOutsideArea,
    NonFiniteValue,
    NonPositiveRange,
    ScenarioFormatError,
    ZeroElapsedTime,
)


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
            raise ValueError(f"route_stability needs one flag per intermediate of {self.path}")

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


@dataclass(frozen=True)
class FlowMetrics:
    """Outcome of one (source, destination, packet_count) flow."""

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


@dataclass(frozen=True)
class SimMetrics:
    """One simulation run: its protocol and the outcome of each flow. The
    run's totals are read off the flows."""

    protocol: Protocol
    per_flow: tuple[FlowMetrics, ...]

    @property
    def packets_sent(self) -> int:  # bench/tracer.py reads it off each result of sim.run
        return sum(f.packets_sent for f in self.per_flow)


def validate_scenario(config: ScenarioConfig) -> ScenarioConfig:
    """Return `config` unchanged iff every invariant holds, else raise.

    Checks: finite area, range, threshold, energies and elapsed times;
    nonnegative area, unique nonnegative ids, both position epochs inside the
    area, nonnegative energies, positive transmission range, nonnegative
    threshold, probabilities in [0, 1], positive elapsed times, and a
    nonnegative seed (random.Random(-s) draws the stream of random.Random(s)).
    """
    for name, value in (
        ("area width", config.area[0]),
        ("area height", config.area[1]),
        ("transmission_range", config.transmission_range),
        ("energy_threshold", config.energy_threshold),
    ):
        if not math.isfinite(value):
            raise NonFiniteValue(name, value)
    if min(config.area) < 0:
        raise NegativeArea(config.area)
    if config.transmission_range <= 0:
        raise NonPositiveRange(config.transmission_range)
    if config.energy_threshold < 0:
        raise NegativeThreshold(config.energy_threshold)
    if not 0.0 <= config.non_coop_drop_prob <= 1.0:
        raise InvalidProbability("non_coop_drop_prob", config.non_coop_drop_prob)
    if config.rng_seed < 0:
        raise NegativeSeed(config.rng_seed)

    width, height = config.area
    seen: set[int] = set()
    for node in config.nodes:
        if not isinstance(node.id, int) or isinstance(node.id, bool) or node.id < 0:
            raise InvalidNodeId(node.id)
        if node.id in seen:
            raise DuplicateNodeId(node.id)
        seen.add(node.id)
        # a finite area also rejects infinite and NaN coordinates here
        for pos in (node.mobility_record.pos_t1, node.mobility_record.pos_t2):
            if not (0.0 <= pos.x <= width and 0.0 <= pos.y <= height):
                raise NodeOutsideArea(node.id, (pos.x, pos.y), config.area)
        if not math.isfinite(node.energy):
            raise NonFiniteValue(f"node {node.id} energy", node.energy)
        if node.energy < 0:
            raise NegativeEnergy(node.id, node.energy)
        if not math.isfinite(node.mobility_record.elapsed):
            raise NonFiniteValue(f"node {node.id} elapsed time", node.mobility_record.elapsed)
        if not node.mobility_record.elapsed > 0:
            raise ZeroElapsedTime(node.id)
    return config


# --- JSON scenario document ---------------------------------------------

_REQUIRED_KEYS = ("nodes", "area", "transmission_range", "energy_threshold")
_KEYS = frozenset(
    (*_REQUIRED_KEYS, "distance_metric", "mobility_metric", "threshold_strict",
     "non_coop_drop_prob", "seed", "elapsed_time")
)
_NODE_KEYS = frozenset(("id", "pos_t1", "pos_t2", "energy"))


# Exact JSON types, so that a bool is never a number and nothing is coerced.
_NUMBER_TYPES = frozenset((int, float))


def _number(value, name: str) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise ScenarioFormatError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_keys(obj: dict, known: frozenset, where: str) -> None:
    """Reject the keys of `obj` that the schema does not name."""
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown keys {', '.join(map(repr, unknown))}")


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed scenario document.

    Required keys: nodes (list of {id, pos_t1: [x, y], pos_t2: [x, y], energy}),
    area ([width, height]), transmission_range, energy_threshold.
    Optional keys with defaults: distance_metric ("manhattan"),
    mobility_metric ("euclidean_rate"), threshold_strict (true),
    non_coop_drop_prob (1.0), seed (0), elapsed_time (1.0, applied to every node).

    Raises ScenarioFormatError for structural problems, for keys the schema
    does not name and for values of the wrong JSON type; invariants are
    checked separately by validate_scenario.
    """
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"scenario document must be an object, got {type(doc).__name__}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ScenarioFormatError(f"missing required keys: {', '.join(missing)}")
    _check_keys(doc, _KEYS, "scenario")
    try:
        elapsed = _number(doc.get("elapsed_time", 1.0), "elapsed_time")
        entries = doc["nodes"]
        if type(entries) is not list:
            raise ScenarioFormatError(f"nodes must be an array of node objects, got {entries!r}")
        nodes = []
        for entry in entries:  # checked inline: a call per node slowed a 300-node parse 5%
            if type(entry) is not dict:
                raise ScenarioFormatError(f"nodes[{len(nodes)}] must be an object, got {entry!r}")
            # four keys that the reads below all find are exactly the schema's
            if len(entry) != 4:
                _check_keys(entry, _NODE_KEYS, f"node {entry.get('id')!r}")
            try:
                (x1, y1), (x2, y2) = entry["pos_t1"], entry["pos_t2"]
            except (TypeError, ValueError):  # not a pair: too short, too long or not iterable
                raise ScenarioFormatError(
                    f"node {entry['id']!r}: pos_t1 and pos_t2 must each be [x, y], "
                    f"got {entry['pos_t1']!r} and {entry['pos_t2']!r}"
                ) from None
            values = (x1, y1, x2, y2, entry["energy"])
            if not _NUMBER_TYPES.issuperset(map(type, values)):
                raise ScenarioFormatError(
                    f"node {entry['id']!r}: positions and energy must be numbers, got {values!r}"
                )
            x1, y1, x2, y2, energy = map(float, values)
            record = MobilityRecord(Position(x1, y1), Position(x2, y2), elapsed)
            nodes.append(NodeState(entry["id"], record, energy))
        area = doc["area"]
        try:
            width, height = area
        except (TypeError, ValueError):
            raise ScenarioFormatError(f"area must be [width, height], got {area!r}") from None
        seed, strict = doc.get("seed", 0), doc.get("threshold_strict", True)
        if type(seed) is not int:
            raise ScenarioFormatError(f"seed must be an integer, got {seed!r}")
        if type(strict) is not bool:
            raise ScenarioFormatError(f"threshold_strict must be true or false, got {strict!r}")
        config = ScenarioConfig(
            nodes=tuple(nodes),
            area=(_number(width, "area"), _number(height, "area")),
            transmission_range=_number(doc["transmission_range"], "transmission_range"),
            energy_threshold=_number(doc["energy_threshold"], "energy_threshold"),
            distance_metric=DistanceMetric(doc.get("distance_metric", "manhattan")),
            mobility_metric=MobilityMetric(doc.get("mobility_metric", "euclidean_rate")),
            threshold_strict=strict,
            non_coop_drop_prob=_number(doc.get("non_coop_drop_prob", 1.0), "non_coop_drop_prob"),
            rng_seed=seed,
        )
    except KeyError as exc:  # the required keys are present, so a node lacks this one
        # a four-key node that lacks a schema key holds an unknown one in its place
        _check_keys(entry, _NODE_KEYS, f"node {entry.get('id')!r}")
        where = f"node {entry['id']!r}" if "id" in entry else f"nodes[{len(nodes)}]"
        raise ScenarioFormatError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"malformed scenario document: {exc}") from exc
    return config


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is rejected, never overwritten."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ScenarioFormatError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def scenario_from_json(text: str) -> ScenarioConfig:
    return scenario_from_dict(json.loads(text, object_pairs_hook=_unique_keys))


def load_scenario(path: str | Path, **overrides) -> ScenarioConfig:
    """Read and parse a scenario file, replace the ScenarioConfig fields named
    in `overrides`, then validate; the one place a scenario file is read."""
    config = scenario_from_json(Path(path).read_text(encoding="utf-8"))
    return validate_scenario(replace(config, **overrides) if overrides else config)
