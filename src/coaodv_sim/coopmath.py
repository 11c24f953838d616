"""Pure math for the cooperative-routing criteria.

Distances between node positions, the binary in-range predicate, the node
mobility rate from its two-epoch record, the three-clause cooperative
predicate, and the weighted composite score.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

from .errors import ScenarioValidationError, quoted
from .model import (
    DistanceMetric,
    MobilityMetric,
    MobilityRecord,
    NodeState,
    Position,
    ScenarioConfig,
    WeightProfile,
)


def manhattan_distance(a: Position, b: Position) -> float:
    return abs(a.x - b.x) + abs(a.y - b.y)


def euclidean_distance(a: Position, b: Position) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


# Each metric's distance function: the range graph and the range clause both read it here.
DISTANCES = {
    DistanceMetric.MANHATTAN: manhattan_distance,
    DistanceMetric.EUCLIDEAN: euclidean_distance,
}


def has_comm_capability(
    a: Position,
    b: Position,
    transmission_range: float,
    metric: DistanceMetric = DistanceMetric.MANHATTAN,
) -> int:
    """1 if the two positions are within range (boundary inclusive), else 0.
    `metric` must be exactly a DistanceMetric."""
    if type(metric) is not DistanceMetric:
        raise ValueError(f"distance metric must be a DistanceMetric, got {quoted(metric)}")
    return 1 if DISTANCES[metric](a, b) <= transmission_range else 0


def mobility(rec: MobilityRecord, metric: MobilityMetric = MobilityMetric.EUCLIDEAN_RATE) -> float:
    """Displacement rate between the two recorded positions.

    The default mode divides straight-line displacement by the elapsed time;
    manhattan_rate uses the axis-aligned displacement instead (compatibility
    mode for integer-grid movement records). `metric` must be exactly a
    MobilityMetric: "manhattan_rate" would equal its member and still be read
    as the default.
    """
    if type(metric) is not MobilityMetric:
        raise ValueError(f"mobility metric must be a MobilityMetric, got {quoted(metric)}")
    if not rec.elapsed > 0:
        raise ScenarioValidationError("elapsed time between position records must be > 0")
    a, b = rec.pos_t1, rec.pos_t2
    if metric is MobilityMetric.MANHATTAN_RATE:
        # in floats: two int legs, each in float range, may sum to an int past
        # it, which no division takes
        moved = float(abs(a.x - b.x)) + float(abs(a.y - b.y))
    else:
        moved = euclidean_distance(a, b)
    return moved / rec.elapsed


def mobility_rates(nodes: Iterable[NodeState], metric: MobilityMetric) -> dict[int, float]:
    """Each node's mobility under `metric`, by node id."""
    return {n.id: mobility(n.mobility_record, metric) for n in nodes}


def is_cooperative(
    candidate: NodeState,
    prev: NodeState,
    peers: Sequence[NodeState],
    config: ScenarioConfig,
    rates: Mapping[int, float],
) -> bool:
    """Whether `candidate` is a cooperative next hop after `prev`.

    peers are the rival next-hop candidates (the in-range neighbors of prev).
    Clauses, cheapest first: residual energy above the threshold (strictly,
    unless the scenario relaxes it), candidate's mobility minimal over the
    peers' mobilities (`rate <= peer`, so ties pass and a NaN rate on either
    side fails), and candidate in range of prev. The first
    clause that fails decides. `rates` maps node ids to their mobility under
    the scenario's metric (see `mobility_rates`) and must cover the candidate
    and every peer, so each mobility is computed once and the mobility clause
    can precede the range.
    """
    if not peers:
        raise ValueError("cooperative check requires a nonempty peer set")
    energy, threshold = candidate.energy, config.energy_threshold
    if not (energy > threshold if config.threshold_strict else energy >= threshold):
        return False
    rate = rates[candidate.id]
    for p in peers:
        if not rate <= rates[p.id]:
            return False
    reach, metric = config.transmission_range, config.distance_metric
    return has_comm_capability(prev.position, candidate.position, reach, metric) == 1


def composite_score(d_norm: float, m_norm: float, e_norm: float, w: WeightProfile) -> float:
    """Weighted sum of the three normalized criteria.

    Inputs are expected in [0, 1]. A WeightProfile's weights are >= 0 and sum
    to within 1e-9 of 1, so the result then lies in [0, 1 + 1e-9]. No clamping.
    """
    return math.fsum((d_norm * w.w_distance, m_norm * w.w_mobility, e_norm * w.w_energy))
