"""Exception types shared across the solver pipeline."""


class PpifeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PpifeError):
    """Invalid run configuration (bad key, malformed value, broken invariant)."""


class GeometryError(PpifeError):
    """Inconsistent interface geometry that is not a resolution problem."""


class MultipleCrossings(GeometryError):
    """The interface crosses a single edge more than once: mesh too coarse.
    `geometry.edge_crossings` gives the segment's row and sign changes."""

    def __init__(self, message, row=None, crossings=None):
        super().__init__(message)
        self.row, self.crossings = row, crossings


class SingularLocalSystem(PpifeError):
    """Local jump-condition system is numerically singular (degenerate cut)."""


class UnsupportedDegree(PpifeError):
    """Quadrature degree outside the supported range."""


class AsymmetricInput(PpifeError):
    """A symmetric solver was handed a matrix that fails the symmetry check."""


class NotConverged(PpifeError):
    """Iterative solver exhausted its budget; best iterate is attached."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
