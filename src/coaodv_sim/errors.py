"""Exception hierarchy shared across the package."""

_BOUND = 10**40  # an int this far from 0 is described, never printed


def quoted(value) -> str:
    """`value` as a message shows it, in at most 41 characters: an int of up to
    40 digits is its repr, a longer one or a container whose repr meets str()'s
    digit limit is described, and any other value is its repr cut at 36
    characters and marked with "...", so that three values fit one short line."""
    if isinstance(value, int):  # never cut: printed whole or described
        return repr(value) if -_BOUND < value < _BOUND else "an integer of more than 40 digits"
    try:
        text = repr(value)
    except ValueError:  # the digit limit, met by an int inside a container
        return f"a {type(value).__name__} holding an integer of more than 40 digits"
    return text if len(text) <= 36 else text[:33] + "..."


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
        super().__init__(
            f"no route from {quoted(source)} to {quoted(destination)}: graph disconnected"
        )
        self.source = source
        self.destination = destination


class NoCooperativeRoute(SimulatorError):
    def __init__(self, source: int, destination: int):
        super().__init__(
            f"no cooperative route from {quoted(source)} to {quoted(destination)}: "
            "every candidate path contains a non-cooperative intermediate"
        )
        self.source = source
        self.destination = destination


class WeightsNotNormalized(SimulatorError):
    """A WeightProfile is invalid as built: a weight, named, is not a finite
    number >= 0, or the weights' exact sum, given, is not within 1e-9 of 1."""


class AmbiguousProfile(SimulatorError):
    def __init__(self, weights):
        super().__init__(
            f"no strictly dominant weight in ({', '.join(map(quoted, weights))}); "
            "network type is undefined for ties"
        )
        self.weights = weights


class InternalError(SimulatorError):
    """A self-check failed: a bug in this package, not a problem with the input."""
