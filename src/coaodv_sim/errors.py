"""Exception hierarchy shared across the package."""


class SimulatorError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioValidationError(SimulatorError):
    """A scenario violates one of its invariants."""


class DuplicateNodeId(ScenarioValidationError):
    def __init__(self, node_id: int):
        super().__init__(f"duplicate node id {node_id}")
        self.node_id = node_id


class InvalidNodeId(ScenarioValidationError):
    def __init__(self, node_id):
        super().__init__(f"node id must be a nonnegative integer, got {node_id!r}")
        self.node_id = node_id


class NodeOutsideArea(ScenarioValidationError):
    def __init__(self, node_id: int, position, area):
        super().__init__(
            f"node {node_id} position {position} outside area {area[0]}x{area[1]}"
        )
        self.node_id = node_id
        self.position = position


class NegativeArea(ScenarioValidationError):
    def __init__(self, area):
        super().__init__(f"area width and height must be >= 0, got {area[0]}x{area[1]}")
        self.area = area


class NonFiniteValue(ScenarioValidationError):
    def __init__(self, field: str, value: float):
        super().__init__(f"{field} must be finite, got {value}")
        self.field = field
        self.value = value


class NonPositiveRange(ScenarioValidationError):
    def __init__(self, value: float):
        super().__init__(f"transmission_range must be > 0, got {value}")
        self.value = value


class NegativeThreshold(ScenarioValidationError):
    def __init__(self, value: float):
        super().__init__(f"energy_threshold must be >= 0, got {value}")
        self.value = value


class NegativeEnergy(ScenarioValidationError):
    def __init__(self, node_id: int, value: float):
        super().__init__(f"node {node_id} energy must be >= 0, got {value}")
        self.node_id = node_id
        self.value = value


class InvalidProbability(ScenarioValidationError):
    def __init__(self, field: str, value: float):
        super().__init__(f"{field} must be in [0, 1], got {value}")
        self.field = field
        self.value = value


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
    def __init__(self, total: float):
        super().__init__(f"weights must sum to 1 (within 1e-9), got sum {total}")
        self.total = total


class AmbiguousProfile(SimulatorError):
    def __init__(self, weights):
        super().__init__(
            f"no strictly dominant weight in {weights}; network type is undefined for ties"
        )
        self.weights = weights


class InternalError(SimulatorError):
    """A self-check failed: a bug in this package, not a problem with the input."""
