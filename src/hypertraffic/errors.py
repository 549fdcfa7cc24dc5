"""Exception types raised by graph construction, generators and the engine."""


class HypertrafficError(Exception):
    """Base class for all package errors."""


class MalformedEdge(HypertrafficError):
    """Edge list contains a self-loop or an out-of-range index."""


class DisconnectedGraph(HypertrafficError):
    """Some node is unreachable from the root."""


class GraphTooLarge(HypertrafficError):
    """Graph exceeds the size cap of an exhaustive computation."""


class SizeOverflow(HypertrafficError):
    """Generator would exceed its node-count cap."""


class NotAutomorphism(HypertrafficError):
    """A graph symmetry is not a root-fixing automorphism."""


class CorruptMap(HypertrafficError):
    """A tessellation's half-edge map broke one of its structural invariants."""


class NotHyperbolic(HypertrafficError):
    """Tessellation parameters violate (p-2)(q-2) > 4."""


class EvenSide(HypertrafficError):
    """Grid side must be odd so a center vertex exists."""


class ParseError(HypertrafficError):
    """Edge-list text could not be parsed; carries a line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidRate(HypertrafficError, ValueError):
    """Rate function parameters are out of range."""


class TrafficOverflow(HypertrafficError):
    """Traffic totals, geodesic counts or node loads exceeded the float64
    range."""


class EmptyBoundary(HypertrafficError):
    """No nodes at the requested traffic depth."""


class WindowTooLarge(HypertrafficError):
    """Growth-estimation window longer than the sphere sequence allows."""


class EmptySphere(HypertrafficError):
    """Sphere sizes inside the estimation window must be positive."""


class WorkerFailed(HypertrafficError):
    """A worker process of a split census or load pass exited non-zero, was
    killed, or sent a short result."""
