"""Exception types shared across the package, and its one integer check."""

import numpy as np


class StglError(Exception):
    """Base class for all package-specific errors."""


class ZeroOutDegree(StglError):
    """A vertex has no outgoing weight, so its transition row is undefined."""

    def __init__(self, vertex, view=None):
        self.vertex = vertex
        self.view = view
        where = f" at view {view}" if view is not None else ""
        super().__init__(f"vertex {vertex} has zero out-degree{where}; "
                         "regularize the graph (e.g. add self-loops) first")


class DensityVanished(StglError):
    """A propagated density entry fell below the configured floor."""

    def __init__(self, view, vertex, value=None):
        self.view = view
        self.vertex = vertex
        self.value = value
        super().__init__(f"density at view {view}, vertex {vertex} vanished "
                         f"(value={value!r}); the graph needs regularization")


class ConvergenceFailure(StglError):
    """The iterative eigensolver did not converge."""

    def __init__(self, message, converged=None, requested=None):
        self.converged = converged
        self.requested = requested
        super().__init__(message)


class InsufficientSpatialEigenvectors(StglError):
    """Fewer non-temporal eigenvectors are available than requested."""

    def __init__(self, available, requested):
        self.available = available
        self.requested = requested
        super().__init__(f"requested {requested} spatial/constant eigenvectors "
                         f"but only {available} are available")


class DegenerateInput(StglError):
    """An operation received input too small or trivial to be meaningful."""


class DirectedInput(StglError):
    """A directed graph was passed where an undirected one is required."""


class StepTooLarge(StglError):
    """An integrator step moved a particle further than allowed."""


class GraphFormatError(StglError):
    """A graph file does not conform to the expected format."""


def check_integer(name, value, least=None):
    """Raise ValueError, naming ``name``, unless ``value`` is an integer, and
    at least ``least`` if that is given; a bool is not an integer, and
    neither is a float such as 2.0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
