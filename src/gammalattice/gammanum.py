"""Arbitrary-precision Gamma/polygamma evaluation, identity checks, and solves.

This module is the numeric counterpart of the exact rational coefficients: it
evaluates Gamma and its derivatives at rational points along a completely
different route, so agreement between the two is a real consistency check.

mpmath supplies Gamma and psi^(k) on the positive half line.  Negative
non-integer arguments are shifted up with exact rational recurrence steps
before mpmath is called:

    psi^(k)(q) = psi^(k)(q + J) - sum_{i<J} (-1)^k k! (q+i)^(-(k+1))
    Gamma(q)   = Gamma(q + J) / prod_{i<J} (q + i)

Derivatives of Gamma come from the complete Bell recurrence over polygamma
values, Gamma^(n)(q) = Gamma(q) * Y_n(psi(q), psi'(q), ..., psi^(n-1)(q)),
valid at every non-pole point.  In particular the values at negative points
are never produced by the rational-coefficient expansion they are used to
verify.

All computations run at decimal_digits + GUARD_DIGITS working precision.
Comparisons default to a tolerance of 10^-(decimal_digits - GUARD_DIGITS);
decimal_digits must lie in [30, MAX_DIGITS], so that default is <= 1e-10 and a
sweep's cost stays bounded; psi and Gamma caches are bounded.
`verify_identity` and `verify_recovery` take the lattice as one
`ArgumentFamily` and share one residual rule: relative, or absolute where the
reference is below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .coeffs import LatticeSpec, build_system, coefficient
from .errors import PoleArgumentError, SpecMismatchError
from .linalg import inverse_exact
from .sympoly import ArgumentFamily

#: Most decimal digits a `PrecisionContext` accepts: `verify --family plain
#: --n-max 2 --m-max 2` takes about 3 s at 1000 digits and 19 s at 2000 (2-core
#: x86-64, CPython 3.11, pure-python mpmath).
MAX_DIGITS = 1000

#: Digits carried beyond `decimal_digits`, and the digits a comparison gives
#: up to rounding by default.
GUARD_DIGITS = 20

#: Entries kept by each of the psi and Gamma caches.
_CACHE_SIZE = 4096


@dataclass(frozen=True)
class PrecisionContext:
    decimal_digits: int = 60

    def __post_init__(self):
        if self.decimal_digits < 30:
            raise ValueError("decimal_digits must be >= 30")
        if self.decimal_digits > MAX_DIGITS:
            raise ValueError(f"decimal_digits must be <= {MAX_DIGITS}")

    @property
    def working_digits(self) -> int:
        return self.decimal_digits + GUARD_DIGITS

    def default_tolerance(self):
        """10^-(decimal_digits - GUARD_DIGITS)."""
        with mp.workdps(self.working_digits):
            return mp.mpf(10) ** -(self.decimal_digits - GUARD_DIGITS)


def _as_point(q) -> Fraction:
    q = Fraction(q)
    if q.denominator == 1 and q <= 0:
        raise PoleArgumentError(f"{q} is a pole of Gamma")
    return q


def _to_mpf(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _dot(rationals, reals):
    """sum_i rationals[i] * reals[i], accumulated left to right."""
    return sum((_to_mpf(a) * b for a, b in zip(rationals, reals)), mp.mpf(0))


@lru_cache(maxsize=_CACHE_SIZE)
def _psi_cached(k: int, q: Fraction, dps: int):
    with mp.workdps(dps):
        if q > 0:
            return mp.psi(k, _to_mpf(q))
        shift = -math.floor(q)  # q + shift lands in (0, 1)
        base = mp.psi(k, _to_mpf(q + shift))
        sign = -1 if k % 2 else 1
        fact = math.factorial(k)
        correction = mp.mpf(0)
        for i in range(shift):
            correction += sign * fact / _to_mpf((q + i) ** (k + 1))
        return base - correction


@lru_cache(maxsize=_CACHE_SIZE)
def _gamma_cached(q: Fraction, dps: int):
    with mp.workdps(dps):
        if q > 0:
            return mp.gamma(_to_mpf(q))
        shift = -math.floor(q)
        divisor = Fraction(1)
        for i in range(shift):
            divisor *= q + i
        return mp.gamma(_to_mpf(q + shift)) / _to_mpf(divisor)


def gamma_derivatives(q, n: int, ctx: PrecisionContext) -> tuple:
    """The tuple Gamma^(0)(q), ..., Gamma^(n)(q), by Bell composition."""
    if n < 0:
        raise ValueError(f"derivative order {n} must be >= 0")
    point = _as_point(q)
    dps = ctx.working_digits
    g = _gamma_cached(point, dps)
    log_derivs = [_psi_cached(k, point, dps) for k in range(n)]
    with mp.workdps(dps):
        bell = [mp.mpf(1)]
        for j in range(1, n + 1):
            acc = mp.mpf(0)
            for i in range(j):
                acc += math.comb(j - 1, i) * log_derivs[i] * bell[j - 1 - i]
            bell.append(acc)
        return tuple(g * y for y in bell)


def _compare(value, reference, tolerance, ctx: PrecisionContext):
    """Absolute and relative residual of `value` against `reference`, whether
    it passes, and the threshold used, at the current precision.  It passes
    when the relative residual is below the threshold, or the absolute one
    where |reference| < 1.  The threshold is `tolerance` (finite, >= 0; 0
    fails every comparison) or else the context default."""
    if tolerance is None:
        tol = ctx.default_tolerance()
    else:
        try:
            tol = mp.mpf(tolerance)
        except (TypeError, ValueError):
            raise ValueError(f"bad tolerance {tolerance!r}; want e.g. 1e-40") from None
        if not mp.isfinite(tol) or tol < 0:
            raise ValueError(f"tolerance {tolerance!r} must be finite and >= 0")
    abs_residual = abs(reference - value)
    magnitude = abs(reference)
    rel_residual = abs_residual / magnitude if magnitude > 0 else mp.inf
    effective = abs_residual if magnitude < 1 else rel_residual
    return abs_residual, rel_residual, bool(effective < tol), tol


@dataclass(frozen=True)
class VerificationReport:
    family: ArgumentFamily
    n: int
    m: int
    lhs: object
    rhs: object
    abs_residual: object
    rel_residual: object
    passed: bool
    tolerance: object


def verify_identity(
    family: ArgumentFamily,
    n: int,
    m: int,
    ctx: PrecisionContext | None = None,
    tolerance=None,
) -> VerificationReport:
    """Compare Gamma^(n) at a lattice point against its rational expansion.

    The left side is evaluated directly at the lattice point; the right side
    sums the row coefficient(family, n, m) against Gamma^(0..n) at the basis
    point.
    The check uses the relative residual, falling back to the absolute one
    when |lhs| < 1.
    """
    ArgumentFamily.require(family)
    if ctx is None:
        ctx = PrecisionContext()
    if n < 0:
        raise ValueError(f"derivative order {n} must be >= 0")
    basis = gamma_derivatives(family.basis_point, n, ctx)
    lhs = gamma_derivatives(family.point(m), n, ctx)[n]
    terms = coefficient(family, n, m)
    with mp.workdps(ctx.working_digits):
        rhs = _dot(terms, basis)
        verdict = _compare(rhs, lhs, tolerance, ctx)
    return VerificationReport(family, n, m, lhs, rhs, *verdict)


def recover_basis(spec: LatticeSpec, n: int, ctx: PrecisionContext | None = None) -> list:
    """Solve a square lattice system for the basis derivative column.

    Evaluates Gamma^(n) at each lattice point numerically, subtracts the
    constant column (plain family), and applies the exact rational inverse of
    the coefficient matrix.  Returns approximations of Gamma^(1..n)(1) for the
    plain family or Gamma^(0..n)(kappa) for the shifted ones.
    """
    if ctx is None:
        ctx = PrecisionContext()
    system = build_system(spec, n)
    if not system.is_square:
        raise SpecMismatchError(
            f"system is {system.matrix.rows}x{system.matrix.cols}; solving needs square"
        )
    inv = inverse_exact(system.matrix)
    data = [gamma_derivatives(p, n, ctx)[n] for p in spec.points()]
    with mp.workdps(ctx.working_digits):
        if system.constant_column:
            data = [d - _to_mpf(c) for d, c in zip(data, system.constant_column)]
        return [_dot(inv.row(r), data) for r in range(inv.rows)]


@dataclass(frozen=True)
class RecoveryReport:
    """One recovered basis derivative Gamma^(ell) against its direct value."""

    spec: LatticeSpec
    ell: int
    recovered: object
    reference: object
    abs_residual: object
    rel_residual: object
    passed: bool
    tolerance: object


def verify_recovery(
    family: ArgumentFamily, n: int, ctx: PrecisionContext, tolerance
) -> list[RecoveryReport]:
    """Recover the order-n basis from the square system at the first lattice
    indices, and check each value against its direct evaluation by the
    residual rule of `verify_identity`."""
    ArgumentFamily.require(family)
    low = family.min_index
    spec = LatticeSpec(family, range(low, n + 1))
    recovered = recover_basis(spec, n, ctx)
    references = gamma_derivatives(family.basis_point, n, ctx)[low:]
    with mp.workdps(ctx.working_digits):
        return [
            RecoveryReport(spec, ell, value, ref, *_compare(value, ref, tolerance, ctx))
            for ell, (value, ref) in enumerate(zip(recovered, references), low)
        ]
