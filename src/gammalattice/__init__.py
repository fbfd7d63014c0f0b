"""Exact coefficient systems, nonsingularity certificates, numeric
verification, and density lower bounds for Gamma-function derivatives at plain
and rationally shifted lattice points."""

from .coeffs import (
    KNOWN_TRANSCENDENTAL_SHIFTS,
    CoeffSystem,
    LatticeSpec,
    build_system,
    coeff_minus,
    coeff_plain,
    coeff_plus,
    coefficient,
    coefficient_table,
    rational_gamma_ratio,
)
from .density import (
    BoundVariant,
    DensityBound,
    GridRow,
    bivariate_bound,
    bivariate_min_sum,
    bivariate_shifted_bound,
    density_grid,
    fixed_order_bound,
    fixed_order_shifted_bound,
    prior_univariate_bound,
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
    GammaDerivatives,
    PrecisionContext,
    RecoveryReport,
    VerificationReport,
    gamma_derivatives,
    gamma_value,
    polygamma,
    recover_basis,
    verify_identity,
    verify_recovery,
)
from .linalg import (
    CauchyBinetCertificate,
    CauchyBinetTerm,
    PrefixCertificate,
    RationalMatrix,
    cauchy_binet,
    certify_prefix_matrix,
    det_exact,
    difference_factorization,
    difference_minor,
    elementary_matrix,
    homogeneous_matrix,
    inverse_exact,
    row_difference,
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
