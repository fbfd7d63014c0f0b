"""Exact coefficient systems, nonsingularity certificates, numeric
verification, and density lower bounds for Gamma-function derivatives at plain
and rationally shifted lattice points.

The exact layers load with the package.  The numeric oracle, `gammanum`, and
with it mpmath, loads on the first use of one of its names (`_NUMERIC`): a
module `__getattr__` (PEP 562) reads the name off `gammanum` at each access,
so a wrapper set there is what the package returns, and `__dir__` lists it.
"""

from .coeffs import (
    KNOWN_TRANSCENDENTAL_SHIFTS,
    CoeffSystem,
    LatticeSpec,
    build_system,
    coefficient_table,
)
from .density import BoundVariant, DensityBound, GridRow, density_grid
from .errors import (
    DimensionMismatchError,
    GammaLatticeError,
    GuardExceededError,
    InvalidKappaError,
    MissingKappaError,
    NonIncreasingIndicesError,
    NotSquareError,
    PoleArgumentError,
    SingularMatrixError,
    SpecMismatchError,
)
from .linalg import (
    CauchyBinetCertificate,
    PrefixCertificate,
    RationalMatrix,
    cauchy_binet,
    certify_prefix_matrix,
    det_exact,
    difference_factorization,
    inverse_exact,
    prefix_matrix,
)
from .sympoly import (
    ArgumentFamily,
    FamilyKind,
    PolyKind,
    PrefixTable,
    elementary_prefix,
    homogeneous_prefix,
)

__version__ = "0.1.0"

#: The exports that live in `gammanum`, the numeric oracle.
_NUMERIC = frozenset(
    {
        "PrecisionContext",
        "Residual",
        "gamma_derivatives",
        "verify_grid",
        "verify_recovery",
    }
)


def __getattr__(name: str):
    if name in _NUMERIC:
        from . import gammanum

        return getattr(gammanum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_NUMERIC})
