"""Round-based ad hoc network simulator with cooperative route discovery."""

__version__ = "0.1.0"
