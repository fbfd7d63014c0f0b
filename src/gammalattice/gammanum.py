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

A `PrecisionContext` holds the working precision, decimal_digits in [30,
MAX_DIGITS] plus GUARD_DIGITS, and the tolerance of every comparison, by
default 10^-(decimal_digits - GUARD_DIGITS) <= 1e-10; psi and Gamma caches are
bounded.  `verify_identity` (one expansion at a point of an `ArgumentFamily`)
and `verify_recovery` (a square `LatticeSpec` solved for the basis) return
`Residual` records by one rule: relative, or absolute where the reference is
below 1.

`verify_sweep` runs the `verify` sweep off one list of cells (`_cells`): it is
charged first (`check_sweep`), then refused if its bounds leave it empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .budget import MAX_DIGITS, charge, weight
from .coeffs import LatticeSpec, build_system, coefficient
from .errors import PoleArgumentError, SpecMismatchError
from .linalg import _elimination_work, inverse_exact
from .sympoly import ArgumentFamily

#: Digits carried beyond `decimal_digits`, and the digits a comparison gives
#: up to rounding by default.
GUARD_DIGITS = 20

#: Entries kept by each of the psi and Gamma caches.
_CACHE_SIZE = 4096


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision, and the tolerance every comparison at it uses: a
    finite value >= 0 (0 fails every comparison), read once, or by default
    10^-(decimal_digits - GUARD_DIGITS)."""

    decimal_digits: int = 60
    tolerance: object = None

    def __post_init__(self):
        if self.decimal_digits < 30:
            raise ValueError("decimal_digits must be >= 30")
        if self.decimal_digits > MAX_DIGITS:
            raise ValueError(f"decimal_digits must be <= {MAX_DIGITS}")
        given = self.tolerance
        with mp.workdps(self.working_digits):
            if given is None:
                tol = mp.mpf(10) ** -(self.decimal_digits - GUARD_DIGITS)
            else:
                try:
                    tol = mp.mpf(given)
                except (TypeError, ValueError):
                    raise ValueError(f"bad tolerance {given!r}; want e.g. 1e-40") from None
                if not mp.isfinite(tol) or tol < 0:
                    raise ValueError(f"tolerance {given!r} must be finite and >= 0")
        object.__setattr__(self, "tolerance", tol)

    @property
    def working_digits(self) -> int:
        return self.decimal_digits + GUARD_DIGITS


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


@dataclass(frozen=True)
class Residual:
    """`value` checked against `reference`: both, the absolute and relative
    residual, and whether the check passed."""

    value: object
    reference: object
    abs_residual: object
    rel_residual: object
    passed: bool


def _compare(value, reference, ctx: PrecisionContext) -> Residual:
    """`value` against `reference` at the current precision.  It passes when
    the relative residual is below the context's tolerance, or the absolute
    one where |reference| < 1."""
    abs_residual = abs(reference - value)
    magnitude = abs(reference)
    rel_residual = abs_residual / magnitude if magnitude > 0 else mp.inf
    effective = abs_residual if magnitude < 1 else rel_residual
    return Residual(
        value, reference, abs_residual, rel_residual, bool(effective < ctx.tolerance)
    )


def verify_identity(
    family: ArgumentFamily, n: int, m: int, ctx: PrecisionContext | None = None
) -> Residual:
    """Compare Gamma^(n) at a lattice point against its rational expansion.

    The reference is evaluated directly at the lattice point; the value sums
    the row coefficient(family, n, m) against Gamma^(0..n) at the basis point.
    The check uses the relative residual, falling back to the absolute one
    when |reference| < 1.
    """
    ArgumentFamily.require(family)
    ctx = ctx or PrecisionContext()
    basis = gamma_derivatives(family.basis_point, n, ctx)
    lhs = gamma_derivatives(family.point(m), n, ctx)[n]
    terms = coefficient(family, n, m)
    with mp.workdps(ctx.working_digits):
        return _compare(_dot(terms, basis), lhs, ctx)


def recover_basis(spec: LatticeSpec, n: int, ctx: PrecisionContext | None = None) -> list:
    """Solve a square lattice system for the basis derivative column.

    Evaluates Gamma^(n) at each lattice point numerically, subtracts the
    constant column (plain family), and applies the exact rational inverse of
    the coefficient matrix.  Returns approximations of Gamma^(1..n)(1) for the
    plain family or Gamma^(0..n)(kappa) for the shifted ones.
    """
    ctx = ctx or PrecisionContext()
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


def verify_recovery(
    spec: LatticeSpec, n: int, ctx: PrecisionContext | None = None
) -> list[Residual]:
    """`recover_basis(spec, n, ctx)`, each value checked against the direct
    evaluation of its basis derivative, Gamma^(min_index..n), by the residual
    rule of `verify_identity`."""
    ctx = ctx or PrecisionContext()
    recovered = recover_basis(spec, n, ctx)
    family = spec.family
    references = gamma_derivatives(family.basis_point, n, ctx)[family.min_index :]
    with mp.workdps(ctx.working_digits):
        return [_compare(value, ref, ctx) for value, ref in zip(recovered, references)]


def _cells(family: ArgumentFamily, n_max: int, m_max):
    """A `verify` sweep's cells (n, m), n <= n_max and min_index <= m <= m_max,
    or with `m_max` None its recovery orders (n, (min_index, ..., n)) up to
    n_max.  No n is walked when the m range is empty."""
    low = family.min_index
    if m_max is None:
        for n in range(low + 1, n_max + 1):
            yield n, tuple(range(low, n + 1))
    elif m_max >= low:
        for n in range(n_max + 1):
            for m in range(low, m_max + 1):
                yield n, m


def _sweep_work(family: ArgumentFamily, n_max: int, m_max, ctx: PrecisionContext):
    """The estimated units of a `verify` sweep of one family.  An mpmath
    operation weighs 4 fixed units and its operands, 3.322 bits a digit.  The
    first values take 100 operations a digit (at 1000 digits, 2.5 s plain and
    5.1 s at shift 1/3).  A cell adds its table and Gamma^(0..n) at its point
    once lower orders are cached: a polygamma value (16 a digit), a Bell row
    (3 n^2) and 40 per unit the point lies below 0.  A recovery order adds the
    inverse of its k x k system, whose scaled rows measured about half of
    `entry_bits`, and k points."""
    kind, low, digits = family.poly_kind, family.min_index, ctx.working_digits
    unit = 4 + weight(digits * 3322 // 1000)

    def point(n: int, m: int) -> int:
        steps = max(0, -math.floor(family.point(m)))
        return (16 * digits + 3 * n * n + 40 * steps) * unit

    yield 100 * digits * unit
    for n, m in _cells(family, n_max, m_max):
        if m_max is None:
            k = len(m)
            bits = kind.entry_bits(family, n - low, n) // 2
            yield _elimination_work(k, bits, True) + k * point(n, n)
        else:
            yield kind.table_work(family, m - low, n) + point(n, m)


def check_sweep(families, n_max: int, m_max, ctx: PrecisionContext) -> None:
    """Charge a `verify` sweep's estimated work, over each family's `_cells`,
    before any of it runs.  The sum is charged per cell, each 4000 units or
    more: a huge sweep is refused at once."""
    total = 0
    for family in families:
        for work in _sweep_work(family, n_max, m_max, ctx):
            total += work
            charge(total, "the verify sweep")


def verify_sweep(families, n_max: int, m_max, ctx: PrecisionContext):
    """The `verify` sweep of each family: yields (family, n, m, Residual) per
    identity cell, or with `m_max` None (family, n, indices, [Residual]) per
    recovery order.  At the first item the sweep is charged (`check_sweep`),
    then refused if a bound leaves a family's sweep empty, before any check."""
    check_sweep(families, n_max, m_max, ctx)
    for family in families:
        low = family.min_index
        bounds = [("n_max", n_max, 0), ("m_max", m_max, low)]
        if m_max is None:
            bounds = [("n_max", n_max, low + 1)]
        for name, value, least in bounds:
            if value < least:
                kind = family.kind.value
                raise ValueError(f"{name} must be >= {least}; the {kind} sweep is empty")
    for family in families:
        for n, m in _cells(family, n_max, m_max):
            if m_max is None:
                yield family, n, m, verify_recovery(LatticeSpec(family, m), n, ctx)
            else:
                yield family, n, m, verify_identity(family, n, m, ctx)
