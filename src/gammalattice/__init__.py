"""Exact coefficient systems, nonsingularity certificates, numeric
verification, and density lower bounds for Gamma-function derivatives at plain
and rationally shifted lattice points."""

from .coeffs import (
    KNOWN_TRANSCENDENTAL_SHIFTS,
    CoeffSystem,
    LatticeSpec,
    build_system,
    coefficient_table,
)
from .density import (
    BoundVariant,
    DensityBound,
    GridRow,
    bivariate_min_sum,
    density_grid,
    prior_univariate_bound,
    window_bound,
)
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
from .gammanum import (
    PrecisionContext,
    Residual,
    gamma_derivatives,
    recover_basis,
    verify_identity,
    verify_recovery,
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
