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
A `PrecisionContext` holds that precision and the tolerance of every
comparison, by default 10^-(decimal_digits - GUARD_DIGITS); decimal_digits
must lie in [30, MAX_DIGITS], so that default is <= 1e-10 and a sweep's cost
stays bounded; psi and Gamma caches are bounded.  `verify_identity` (one
expansion at a point of an `ArgumentFamily`) and `verify_recovery` (a square
`LatticeSpec` solved for the basis) return `Residual` records by one rule:
relative, or absolute where the reference is below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .coeffs import LatticeSpec, build_system, coefficient
from .errors import GuardExceededError, PoleArgumentError, SpecMismatchError
from .linalg import inverse_exact
from .sympoly import ArgumentFamily, exact_work

#: Most decimal digits a `PrecisionContext` accepts: `verify --family plain
#: --n-max 2 --m-max 2` takes about 3 s at 1000 digits and 19 s at 2000 (2-core
#: x86-64, CPython 3.11, pure-python mpmath).
MAX_DIGITS = 1000

#: Digits carried beyond `decimal_digits`, and the digits a comparison gives
#: up to rounding by default.
GUARD_DIGITS = 20

#: Entries kept by each of the psi and Gamma caches.
_CACHE_SIZE = 4096

#: Most estimated work of one `verify` sweep, in the units of
#: `sympoly.exact_work`, checked by `check_sweep` before any cell runs.  Twenty
#: identity and recovery sweeps of all three families at 30 to 1000 digits ran
#: 0.3-2.7 us per unit (2-core x86-64, CPython 3.11, pure-python mpmath), so a
#: sweep under the budget finishes in about 30 s or less; `--n-max 1 --m-max
#: 1700` (18 s, 3.9e7 units) and minus-1/3 recovery to order 30 (96 s, 4.5e7)
#: are refused.
MAX_SWEEP_WORK = 10**7


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
    if ctx is None:
        ctx = PrecisionContext()
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


def verify_recovery(
    spec: LatticeSpec, n: int, ctx: PrecisionContext | None = None
) -> list[Residual]:
    """`recover_basis(spec, n, ctx)`, each value checked against the direct
    evaluation of its basis derivative, Gamma^(min_index..n), by the residual
    rule of `verify_identity`."""
    if ctx is None:
        ctx = PrecisionContext()
    recovered = recover_basis(spec, n, ctx)
    family = spec.family
    references = gamma_derivatives(family.basis_point, n, ctx)[family.min_index :]
    with mp.workdps(ctx.working_digits):
        return [_compare(value, ref, ctx) for value, ref in zip(recovered, references)]


def _point_work(family: ArgumentFamily, n: int, m: int, ctx: PrecisionContext) -> int:
    """Estimated work, beyond the prefix table, of Gamma^(0..n) at the lattice
    point m after the orders below n are cached: a polygamma value and a Bell
    row of n^2 products, and one recurrence step per unit the point lies below 0
    (about 40 units each), all at the context's digits, weighing
    1 + (digits/150)^2 (psi took 2 ms at 30 digits and 90 ms at 1000)."""
    steps = max(0, -math.floor(family.point(m)))
    digits = ctx.decimal_digits
    return (2000 + n * n + 40 * steps) * (22500 + digits * digits) // 22500


def _sweep_cells(family: ArgumentFamily, n_max: int, m_max, ctx: PrecisionContext):
    """The estimated work of each cell of a `verify` sweep of one family."""
    kind, low = family.poly_kind, family.min_index
    if m_max is None:
        # recovery at order n: a k x k system whose inverse takes about k^3
        # operations on entries k times the table's, and k derivative vectors
        for n in range(low + 1, n_max + 1):
            k = n + 1 - low
            bits = kind.entry_bits(family, n - low, n)
            yield exact_work(k**3, k * bits) + k * _point_work(family, n, n, ctx)
    elif m_max >= low:
        for n in range(n_max + 1):
            for m in range(low, m_max + 1):
                length = m - low
                bits = kind.entry_bits(family, length, n)
                table = exact_work((length + 1) * (n + 1), bits)
                yield table + _point_work(family, n, m, ctx)


def check_sweep(families, n_max: int, m_max, ctx: PrecisionContext) -> None:
    """Refuse a `verify` sweep whose estimated work is over `MAX_SWEEP_WORK`
    before any of it runs: for each family, the identity cells n <= n_max,
    min_index <= m <= m_max, or with `m_max` None the recovery systems of
    orders min_index + 1 .. n_max.  Every cell costs at least 2000 units, and
    the sum stops at the first cell over the budget, so a huge sweep is
    refused at once."""
    total = 0
    for family in families:
        for work in _sweep_cells(family, n_max, m_max, ctx):
            total += work
            if total > MAX_SWEEP_WORK:
                raise GuardExceededError(
                    f"the verify sweep is over the work budget {MAX_SWEEP_WORK}"
                )
