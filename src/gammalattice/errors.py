"""Exception types shared across the package."""

class GammaLatticeError(Exception):
    """Base class for all errors raised by this package."""


class SpecMismatchError(GammaLatticeError):
    """Lattice family, shift, and index set are inconsistent."""


class MissingKappaError(SpecMismatchError):
    """A shifted argument family was built without a shift value."""


class InvalidKappaError(SpecMismatchError):
    """A shift value lies outside the open interval (0, 1), or was given to
    the plain family."""


class GuardExceededError(GammaLatticeError):
    """A computation's estimated work, or a grid's cells, are over a cap."""


class NotSquareError(GammaLatticeError):
    """A square-only operation was applied to a rectangular matrix."""


class SingularMatrixError(GammaLatticeError):
    """Inversion of a matrix whose determinant is zero."""


class NonIncreasingIndicesError(SpecMismatchError):
    """An index set is empty, not strictly increasing, or has a negative entry."""


class DimensionMismatchError(GammaLatticeError):
    """Matrix shapes are incompatible for the requested product."""


class PoleArgumentError(GammaLatticeError):
    """Gamma or polygamma requested at a non-positive integer."""
