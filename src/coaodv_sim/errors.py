"""Exception hierarchy shared across the package."""

import math


class SimulatorError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioValidationError(SimulatorError):
    """A scenario violates one of its invariants; the message names the field or the node."""


class ZeroElapsedTime(ScenarioValidationError):
    def __init__(self, node_id=None):
        where = "" if node_id is None else f" (node {node_id})"
        super().__init__(f"elapsed time between position records must be > 0{where}")
        self.node_id = node_id


class ScenarioFormatError(SimulatorError):
    """A scenario document is structurally malformed (missing/ill-typed keys)."""


class UnknownNode(SimulatorError):
    def __init__(self, node_id: int):
        super().__init__(f"unknown node id {node_id}")
        self.node_id = node_id


class NoRoute(SimulatorError):
    def __init__(self, source: int, destination: int):
        super().__init__(f"no route from {source} to {destination}: graph disconnected")
        self.source = source
        self.destination = destination


class NoCooperativeRoute(SimulatorError):
    def __init__(self, source: int, destination: int):
        super().__init__(
            f"no cooperative route from {source} to {destination}: "
            "every candidate path contains a non-cooperative intermediate"
        )
        self.source = source
        self.destination = destination


class EmptyPeerSet(SimulatorError):
    def __init__(self):
        super().__init__("cooperative check requires a nonempty peer set")


class WeightsNotNormalized(SimulatorError):
    def __init__(self, weights: tuple[float, float, float]):
        # the exact sum, as WeightProfile.is_normalized tests it
        self.total = math.fsum(weights)
        super().__init__(f"weights must sum to 1 (within 1e-9), got sum {self.total}")


class AmbiguousProfile(SimulatorError):
    def __init__(self, weights):
        super().__init__(
            f"no strictly dominant weight in {weights}; network type is undefined for ties"
        )
        self.weights = weights


class InternalError(SimulatorError):
    """A self-check failed: a bug in this package, not a problem with the input."""
