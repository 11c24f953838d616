"""Exception hierarchy shared across the package."""

import math


def quoted(value) -> str:
    """`repr(value)` for a message; an int past the str() digit limit, which
    repr refuses, is described instead."""
    try:
        return repr(value)
    except ValueError:
        return "an integer with too many digits to print"


class SimulatorError(Exception):
    """The base of the error types this package defines."""


class ScenarioValidationError(SimulatorError):
    """A scenario is invalid: its document is malformed or it violates one of
    its invariants; the message names the key, the field or the node."""


class UnknownNode(SimulatorError):
    def __init__(self, node_id: int):
        super().__init__(f"unknown node id {quoted(node_id)}")
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
