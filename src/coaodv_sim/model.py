"""Domain types, scenario validation, and the JSON scenario file format.

All types are immutable value objects; `validate_scenario` checks every
invariant and never normalizes silently. The scenario document is a single
JSON object, see `scenario_from_dict` for the schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import ScenarioValidationError


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


def validate_scenario(config: ScenarioConfig) -> ScenarioConfig:
    """Return `config` unchanged iff every invariant holds, else raise a
    ScenarioValidationError whose message names the field or the node.

    Checks: finite area, range, threshold, energies and elapsed times;
    nonnegative area, unique nonnegative ids, both position epochs inside the
    area, nonnegative energies, positive transmission range, nonnegative
    threshold, probabilities in [0, 1], positive elapsed times, and a
    nonnegative seed (random.Random(-s) draws the stream of random.Random(s)).
    A message that would quote an int past the str() digit limit is replaced
    by one that says so.
    """
    width, height = config.area
    try:
        _check_invariants(config, width, height)
    except ValueError:  # only from quoting an int past the str() digit limit in a message
        raise ScenarioValidationError("an integer has too many digits to print") from None
    return config


def _check_invariants(config: ScenarioConfig, width: float, height: float) -> None:
    for name, value in (
        ("area width", width),
        ("area height", height),
        ("transmission_range", config.transmission_range),
        ("energy_threshold", config.energy_threshold),
    ):
        if not math.isfinite(value):
            raise ScenarioValidationError(f"{name} must be finite, got {value}")
    if min(config.area) < 0:
        raise ScenarioValidationError(f"area width and height must be >= 0, got {width}x{height}")
    if config.transmission_range <= 0:
        raise ScenarioValidationError(
            f"transmission_range must be > 0, got {config.transmission_range}"
        )
    if config.energy_threshold < 0:
        raise ScenarioValidationError(
            f"energy_threshold must be >= 0, got {config.energy_threshold}"
        )
    if not 0.0 <= config.non_coop_drop_prob <= 1.0:
        raise ScenarioValidationError(
            f"non_coop_drop_prob must be in [0, 1], got {config.non_coop_drop_prob}"
        )
    if config.rng_seed < 0:
        raise ScenarioValidationError(f"seed must be >= 0, got {config.rng_seed}")

    seen: set[int] = set()
    for node in config.nodes:
        if not isinstance(node.id, int) or isinstance(node.id, bool) or node.id < 0:
            raise ScenarioValidationError(f"node id must be a nonnegative integer, got {node.id!r}")
        if node.id in seen:
            raise ScenarioValidationError(f"duplicate node id {node.id}")
        seen.add(node.id)
        # a finite area also rejects infinite and NaN coordinates here
        for pos in (node.mobility_record.pos_t1, node.mobility_record.pos_t2):
            if not (0.0 <= pos.x <= width and 0.0 <= pos.y <= height):
                raise ScenarioValidationError(
                    f"node {node.id} position {(pos.x, pos.y)} outside area {width}x{height}"
                )
        if not math.isfinite(node.energy):
            raise ScenarioValidationError(
                f"node {node.id} energy must be finite, got {node.energy}"
            )
        if node.energy < 0:
            raise ScenarioValidationError(f"node {node.id} energy must be >= 0, got {node.energy}")
        elapsed = node.mobility_record.elapsed
        if not math.isfinite(elapsed):
            raise ScenarioValidationError(
                f"node {node.id} elapsed time must be finite, got {elapsed}"
            )
        if not elapsed > 0:
            raise ScenarioValidationError(
                f"elapsed time between position records must be > 0 (node {node.id})"
            )


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
        raise ScenarioValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise ScenarioValidationError(f"{name} is an integer too large for a float") from None


def _metric(enum: type[Enum], doc: dict, key: str, default: str):
    value = doc.get(key, default)
    try:
        return enum(value)
    except ValueError:
        names = ", ".join(repr(m.value) for m in enum)
        raise ScenarioValidationError(f"{key} must be one of {names}, got {value!r}") from None


def _node_label(entry: dict, index: int) -> str:
    """A node as messages name it: by its id, or by its place if it has none."""
    return f"node {entry['id']!r}" if "id" in entry else f"nodes[{index}]"


def _check_keys(obj: dict, known: frozenset, where: str) -> None:
    """Reject the keys of `obj` that the schema does not name."""
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise ScenarioValidationError(f"{where}: unknown keys {', '.join(map(repr, unknown))}")


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed scenario document.

    Required keys: nodes (list of {id, pos_t1: [x, y], pos_t2: [x, y], energy}),
    area ([width, height]), transmission_range, energy_threshold.
    Optional keys with defaults: distance_metric ("manhattan"),
    mobility_metric ("euclidean_rate"), threshold_strict (true),
    non_coop_drop_prob (1.0), seed (0), elapsed_time (1.0, applied to every node).

    Raises ScenarioValidationError for structural problems, for keys the schema
    does not name, for values of the wrong JSON type and for ints too long to
    print; validate_scenario checks the invariants and raises the same type.
    """
    try:
        return _from_dict(doc)
    except ValueError:  # only from quoting an int past the str() digit limit in a message
        raise ScenarioValidationError("an integer has too many digits to print") from None


def _from_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ScenarioValidationError(
            f"scenario document must be an object, got {type(doc).__name__}"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ScenarioValidationError(f"missing required keys: {', '.join(missing)}")
    _check_keys(doc, _KEYS, "scenario")
    try:
        elapsed = _number(doc.get("elapsed_time", 1.0), "elapsed_time")
        entries = doc["nodes"]
        if type(entries) is not list:
            raise ScenarioValidationError(
                f"nodes must be an array of node objects, got {entries!r}"
            )
        nodes = []
        for entry in entries:  # checked inline: a call per node slowed a 300-node parse 5%
            if type(entry) is not dict:
                raise ScenarioValidationError(
                    f"nodes[{len(nodes)}] must be an object, got {entry!r}"
                )
            # four keys that the reads below all find are exactly the schema's
            if len(entry) != 4:
                _check_keys(entry, _NODE_KEYS, _node_label(entry, len(nodes)))
            try:
                (x1, y1), (x2, y2) = entry["pos_t1"], entry["pos_t2"]
            except (TypeError, ValueError):  # not a pair: too short, too long or not iterable
                raise ScenarioValidationError(
                    f"node {entry['id']!r}: pos_t1 and pos_t2 must each be [x, y], "
                    f"got {entry['pos_t1']!r} and {entry['pos_t2']!r}"
                ) from None
            values = (x1, y1, x2, y2, entry["energy"])
            if not _NUMBER_TYPES.issuperset(map(type, values)):
                raise ScenarioValidationError(
                    f"node {entry['id']!r}: positions and energy must be numbers, got {values!r}"
                )
            try:
                x1, y1, x2, y2, energy = map(float, values)
            except OverflowError:  # name the first key whose value overflows
                for key, value in zip(("pos_t1", "pos_t1", "pos_t2", "pos_t2", "energy"), values):
                    _number(value, f"{_node_label(entry, len(nodes))}: {key}")
            record = MobilityRecord(Position(x1, y1), Position(x2, y2), elapsed)
            nodes.append(NodeState(entry["id"], record, energy))
        area = doc["area"]
        try:
            width, height = area
        except (TypeError, ValueError):
            raise ScenarioValidationError(f"area must be [width, height], got {area!r}") from None
        seed, strict = doc.get("seed", 0), doc.get("threshold_strict", True)
        if type(seed) is not int:
            raise ScenarioValidationError(f"seed must be an integer, got {seed!r}")
        if type(strict) is not bool:
            raise ScenarioValidationError(f"threshold_strict must be true or false, got {strict!r}")
        config = ScenarioConfig(
            nodes=tuple(nodes),
            area=(_number(width, "area"), _number(height, "area")),
            transmission_range=_number(doc["transmission_range"], "transmission_range"),
            energy_threshold=_number(doc["energy_threshold"], "energy_threshold"),
            distance_metric=_metric(DistanceMetric, doc, "distance_metric", "manhattan"),
            mobility_metric=_metric(MobilityMetric, doc, "mobility_metric", "euclidean_rate"),
            threshold_strict=strict,
            non_coop_drop_prob=_number(doc.get("non_coop_drop_prob", 1.0), "non_coop_drop_prob"),
            rng_seed=seed,
        )
    except KeyError as exc:  # the required keys are present, so a node lacks this one
        # a four-key node that lacks a schema key holds an unknown one in its place
        where = _node_label(entry, len(nodes))
        _check_keys(entry, _NODE_KEYS, where)
        raise ScenarioValidationError(f"{where}: missing key {exc}") from None
    return config


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is rejected, never overwritten."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ScenarioValidationError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def scenario_from_json(text: str) -> ScenarioConfig:
    return scenario_from_dict(json.loads(text, object_pairs_hook=_unique_keys))


def load_scenario(path: str | Path, **overrides) -> ScenarioConfig:
    """Read and parse a scenario file, replace the ScenarioConfig fields named
    in `overrides`, then validate; the one place a scenario file is read."""
    config = scenario_from_json(Path(path).read_text(encoding="utf-8"))
    return validate_scenario(replace(config, **overrides) if overrides else config)
