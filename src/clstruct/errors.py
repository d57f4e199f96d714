"""Exception types shared across the package."""


class ClstructError(Exception):
    """Base class for all errors raised by this package."""


class Disconnected(ClstructError):
    """The input graph is not connected."""


class EndpointOutOfRange(ClstructError):
    """An edge endpoint references a vertex id outside 0..V-1."""


class TooLarge(ClstructError):
    """Instance exceeds the size cap of a brute-force operation."""


class BadRotation(ClstructError):
    """A rotation does not list each dart of its vertex exactly once;
    carries that vertex, or None when no single vertex is at fault."""

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class MissingSign(ClstructError):
    """The sign table does not assign a value to every edge."""


class NotCyclicPart(ClstructError):
    """Operation requires a graph that equals its own cyclic part."""


class BudgetExceeded(ClstructError):
    """Enumeration would exceed the configured budget."""


class LoopContraction(ClstructError):
    """Loops cannot be contracted."""


class SwitchedContraction(ClstructError):
    """A switched edge (sign 1) cannot be contracted; flip a vertex first."""


class DegreeTooSmall(ClstructError):
    """Vertex expansion requires degree at least 4."""


class NoSuchVertex(ClstructError):
    """A vertex id outside 0..V-1."""


class UnknownTreeShape(ClstructError):
    """Vertex expansion knows the tree shapes "comb" and "balanced"."""


class ParseError(ClstructError):
    """Malformed input text; carries the 1-based offending line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
