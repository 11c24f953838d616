"""Weighted network-type classification: the dominant criterion weight labels
the network class."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AmbiguousProfile, WeightsNotNormalized
from .model import NetworkType, WeightProfile

_TYPE_BY_CRITERION = {
    "distance": NetworkType.DISTANCE_SENSITIVE,
    "mobility": NetworkType.MOBILITY_SENSITIVE,
    "energy": NetworkType.ENERGY_SENSITIVE,
}


@dataclass(frozen=True)
class ClassificationResult:
    network_type: NetworkType
    dominant_weight: str


def classify_network(w: WeightProfile) -> ClassificationResult:
    """Label the network by the strictly largest weight; ties are an error."""
    if not w.is_normalized():
        raise WeightsNotNormalized(w.as_tuple())
    weights = dict(zip(("distance", "mobility", "energy"), w.as_tuple()))
    top = max(weights.values())
    dominant = [name for name, value in weights.items() if value == top]
    if len(dominant) != 1:
        raise AmbiguousProfile(w.as_tuple())
    return ClassificationResult(
        network_type=_TYPE_BY_CRITERION[dominant[0]],
        dominant_weight=dominant[0],
    )

