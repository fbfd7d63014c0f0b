"""Arbitrary-precision Gamma/polygamma evaluation, identity checks, and solves.

This module is the numeric counterpart of the exact rational coefficients: it
evaluates Gamma and its derivatives at rational points along a completely
different route, so agreement between the two is a real consistency check.

mpmath supplies Gamma and psi^(k) on the positive half line.  Negative
non-integer arguments are shifted up with exact rational recurrence steps
from the cached value at the shifted point:

    psi^(k)(q) = psi^(k)(q + J) - sum_{i<J} (-1)^k k! (q+i)^(-(k+1))
    Gamma(q)   = Gamma(q + J) / prod_{i<J} (q + i)

Derivatives of Gamma come from the complete Bell recurrence over polygamma
values, Gamma^(n)(q) = Gamma(q) * Y_n(psi(q), psi'(q), ..., psi^(n-1)(q)),
valid at every non-pole point.  In particular the values at negative points
are never produced by the rational-coefficient expansion they are used to
verify.

A sweep over the positive lattice points above the basis point (plain and
plus) reads psi^(k)(q) = (-1)^(k+1) k! zeta(k+1, q), k >= 1, off a local ladder
(`_psi_ladder`): one fixed-point walk (`_zeta_walk`) for every order, from an
Euler-Maclaurin tail at a far point down zeta(s, q) = zeta(s, q + 1) + q^-s,
its error bounded LADDER_GUARD_BITS below the working precision.  It adds
psi^(k+1)(q) (fl(q) - q) for q rounded to fl(q), the argument mp.psi would
take, and rounds to nearest at the working precision.  psi^(0) and Gamma stay
one mpmath call per point, and the basis never reads the ladder: a check links
mpmath at the basis to the Euler-Maclaurin sum.

A `PrecisionContext` holds the working precision, decimal_digits in [30,
MAX_DIGITS] plus GUARD_DIGITS, and the tolerance of every comparison, by
default 10^-(decimal_digits - GUARD_DIGITS) <= 1e-10; psi and Gamma caches are
bounded.  Every check reads its vectors off one map, index -> Gamma^(0..n)
with the basis index included (`_lattice_derivatives`, the only builder of
lattice vectors, whose route `_reads_ladder` decides).  `verify_grid` checks
the expansion at every (n, m) of a family's grid off that map and the rows of
one guarded coefficient sweep (`coeffs._sweep_rows`); `verify_recovery` solves
a square `LatticeSpec` for the basis and checks each value it recovers.  Both
return `Residual` records by one rule: relative, or absolute where the
reference is below 1.

`verify_sweep` runs the `verify` sweep, a grid per family or its recovery
orders off one map and one coefficient sweep at n_max: it is charged first
(`check_sweep`), then refused if its bounds leave it empty.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_bernoulli, to_fixed

from .budget import MAX_DIGITS, charge, weight
from .coeffs import LatticeSpec, _sweep_rows, _system, build_system
from .errors import PoleArgumentError, SpecMismatchError
from .linalg import _elimination_work, inverse_exact
from .sympoly import ArgumentFamily

#: Digits carried beyond `decimal_digits`, and the digits a comparison gives
#: up to rounding by default.
GUARD_DIGITS = 20

#: Entries kept by each of the psi and Gamma caches.
_CACHE_SIZE = 4096

#: Bits the polygamma ladder carries beyond the working precision.
LADDER_GUARD_BITS = 64


class _Precision(NamedTuple):
    decimal_digits: int = 60
    tolerance: object = None


class PrecisionContext(_Precision):
    """Working precision, and the tolerance every comparison at it uses: a
    finite value >= 0 (0 fails every comparison), read once, or by default
    10^-(decimal_digits - GUARD_DIGITS).  Building one checks both, also
    through `_make` and `_replace`."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, decimal_digits: int = 60, tolerance: object = None):
        if operator.index(decimal_digits) < 30:
            raise ValueError("decimal_digits must be >= 30")
        if decimal_digits > MAX_DIGITS:
            raise ValueError(f"decimal_digits must be <= {MAX_DIGITS}")
        given = tolerance
        with mp.workdps(decimal_digits + GUARD_DIGITS):
            if given is None:
                tol = mp.mpf(10) ** -(decimal_digits - GUARD_DIGITS)
            else:
                try:
                    tol = mp.mpf(given)
                except (TypeError, ValueError, ZeroDivisionError):
                    raise ValueError(f"bad tolerance {given!r}; want e.g. 1e-40") from None
                if not mp.isfinite(tol) or tol < 0:
                    raise ValueError(f"tolerance {given!r} must be finite and >= 0")
        return super().__new__(cls, decimal_digits, tol)

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
        base = _psi_cached(k, q + shift, dps)
        sign = -1 if k % 2 else 1
        fact = math.factorial(k)
        correction = mp.mpf(0)
        for i in range(shift):
            correction += sign * fact / _to_mpf((q + i) ** (k + 1))
        return base - correction


#: The last point a/b below 0 whose divisor product `_shift_product` built, as
#: (a, b) -> product: one entry, all a sweep down a lattice reads.
_last_product: dict = {}


def _shift_product(a: int, b: int, shift: int) -> int:
    """prod_{i<shift} (a + i b) for the point a/b below 0, shift = -floor(a/b).
    At the next point down a sweep it is a times the last product built, the
    point a step above's; any other point takes one product of `shift`
    factors, so a cold deep point never recurses."""
    above = _last_product.get((a + b, b))
    if above is None:
        product = math.prod(a + i * b for i in range(shift))
    else:
        product = a * above
    _last_product.clear()
    _last_product[a, b] = product
    return product


@lru_cache(maxsize=_CACHE_SIZE)
def _gamma_cached(q: Fraction, dps: int):
    with mp.workdps(dps):
        if q > 0:
            return mp.gamma(_to_mpf(q))
        shift = -math.floor(q)
        # prod_{i<shift} (q + i) = prod (a + i b) / b^shift, in lowest terms
        # already, as a Fraction would hold it: each factor a + i b is prime to b
        a, b = q.numerator, q.denominator
        divisor = mp.mpf(_shift_product(a, b, shift)) / mp.mpf(b**shift)
        return _gamma_cached(q + shift, dps) / divisor


def gamma_derivatives(q, n: int, ctx: PrecisionContext) -> tuple:
    """The tuple Gamma^(0)(q), ..., Gamma^(n)(q), by Bell composition."""
    if operator.index(n) < 0:
        raise ValueError(f"derivative order {n} must be >= 0")
    point = _as_point(q)
    dps = ctx.working_digits
    return _bell(point, [_psi_cached(k, point, dps) for k in range(n)], dps)


def _bell(point: Fraction, log_derivs: list, dps: int) -> tuple:
    """Gamma^(0..n)(point) from psi^(0..n-1)(point): Gamma times the complete
    Bell values, Y_j = sum_{i<j} C(j-1, i) psi^(i) Y_{j-1-i}."""
    g = _gamma_cached(point, dps)
    with mp.workdps(dps):
        bell = [mp.mpf(1)]
        for j in range(1, len(log_derivs) + 1):
            acc = mp.mpf(0)
            for i in range(j):
                acc += math.comb(j - 1, i) * log_derivs[i] * bell[j - 1 - i]
            bell.append(acc)
        return tuple(g * y for y in bell)


def _zeta_walk(family: ArgumentFamily, indices, orders: int, far: int, scale: int) -> dict:
    """m -> [2^scale zeta(k+1, point(m)) for k = 1..orders] at each index m of
    `indices`, each within (far + 17)(orders + 2) units, from T far steps above
    the lowest point, which is above 1.  One list of c_j = B_2j/(2j)! serves
    every order's Euler-Maclaurin tail at T, zeta(s, T) = T^(1-s)/(s-1) +
    T^-s/2 + sum_j c_j (s)_(2j-1) T^(1-s-2j), whose remainder is below its first
    omitted term: summed by Horner's rule, it stops at a term below a unit and
    raises if a term ratio (s+2j-1)(s+2j)/T^2 passes 1/2 first.  Each point p/b
    below T adds (b/p)^(k+1) to order k, the last power times b // p, at most
    orders + 1 units short."""
    low, indices = min(indices), set(indices)
    b, a = family.point(low).denominator, family.point(low).numerator
    whole = a + far * b  # T = whole / b
    coefficients, sums = [], []
    for s in range(2, orders + 2):
        first = term = (s * b ** (s + 1) << scale) // whole ** (s + 1)  # s T^-(s+1)
        ratios = []
        while True:
            j = len(ratios)
            if j == len(coefficients):
                bernoulli = to_fixed(mpf_bernoulli(2 * j + 2, scale), scale)
                coefficients.append(bernoulli // math.factorial(2 * j + 2))
            if coefficients[j].bit_length() + term.bit_length() <= scale:
                break
            ratios.append((s + 2 * j + 1) * (s + 2 * j + 2) * b * b)
            if 2 * ratios[-1] > whole * whole:
                raise ArithmeticError(f"far point {Fraction(whole, b)} too close")
            term = term * ratios[-1] // (whole * whole)
        tail = 0
        for c, ratio in zip(reversed(coefficients[: len(ratios)]), reversed(ratios)):
            tail = c + tail * ratio // (whole * whole)
        head = (b ** (s - 1) << scale) // ((s - 1) * whole ** (s - 1))
        sums.append(head + (b**s << scale) // (2 * whole**s) + (first * tail >> scale))
    rows = {}
    for i in range(far - 1, -1, -1):
        power = (b << scale) // (a + i * b)
        for k in range(orders):
            power = power * b // (a + i * b)
            sums[k] += power
        if low + i in indices:
            rows[low + i] = sums[:]
    return rows


def _walk_bounds(prec: int, orders: int, family: ArgumentFamily, indices) -> tuple:
    """(far, scale) of a `_zeta_walk` over `indices`: at that scale zeta(orders
    + 1, q) >= q^-orders / orders at the top point q is 2^(prec +
    LADDER_GUARD_BITS) times the walk's error bound, and T lies half as many
    steps above q as the scale has bits before that bound."""
    top = math.ceil(family.point(max(indices)))
    bits = prec + LADDER_GUARD_BITS + orders * (top.bit_length() + 1)
    far = max(indices) - min(indices) + bits // 2
    return far, bits + ((far + 17) * (orders + 2)).bit_length()


def _psi_ladder(family: ArgumentFamily, indices, orders: int, dps: int) -> dict:
    """psi^(1..orders) at each lattice index of `indices`, all above the
    family's basis index on a lattice that runs up: m -> [psi^(1), ...,
    psi^(orders)] at point(m), each (-1)^(k+1) k! zeta(k+1, q) off one
    `_zeta_walk`, taken at fl(q), the argument mp.psi gets at `dps` digits, and
    rounded to nearest there from about 62 bits beyond."""
    prec = dps_to_prec(dps)
    with mp.workdps(dps):
        args = {m: _to_mpf(family.point(m)) for m in indices}
    with mp.workprec(prec + LADDER_GUARD_BITS):
        offsets = {m: args[m] - _to_mpf(family.point(m)) for m in indices}
        anchored = orders + 1 if any(offsets.values()) else orders
        far, scale = _walk_bounds(prec, anchored, family, indices)
        walk = _zeta_walk(family, indices, anchored, far, scale)
        steps = [(-1) ** (k + 1) * math.factorial(k) for k in range(1, anchored + 1)]
        ladder = {}
        for m in indices:
            psi = [mp.make_mpf(from_man_exp(c * z, -scale)) for c, z in zip(steps, walk[m])]
            if offsets[m]:
                # psi^(k)(fl(q)) = psi^(k)(q) + psi^(k+1)(q) (fl(q) - q)
                psi = [psi[k - 1] + psi[k] * offsets[m] for k in range(1, orders + 1)]
            ladder[m] = psi[:orders]
    with mp.workprec(prec):
        return {m: [mp.mpf(value) for value in values] for m, values in ladder.items()}


def _reads_ladder(family: ArgumentFamily, m: int, n: int) -> bool:
    """Whether Gamma^(0..n) at point(m) reads psi^(1..n-1) off the ladder:
    m lies above the basis index of a lattice that runs up, and n > 1."""
    return family.sign > 0 and m > family.min_index and n > 1


def _lattice_derivatives(family: ArgumentFamily, indices, n: int, ctx: PrecisionContext):
    """m -> Gamma^(0..n) at point(m) for the basis index and each m of
    `indices`, each the vector `gamma_derivatives` gives.  The points that
    `_reads_ladder` admits share one ladder; the others take
    `gamma_derivatives` itself."""
    dps = ctx.working_digits
    indices = dict.fromkeys((family.min_index, *indices))
    rungs = [m for m in indices if _reads_ladder(family, m, n)]
    ladder = _psi_ladder(family, rungs, n - 1, dps) if rungs else {}
    vectors = {}
    for m in indices:
        point = family.point(m)
        if m in ladder:
            vectors[m] = _bell(point, [_psi_cached(0, point, dps), *ladder[m]], dps)
        else:
            vectors[m] = gamma_derivatives(point, n, ctx)
    return vectors


class Residual(NamedTuple):
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


def verify_grid(family: ArgumentFamily, n_max: int, ms, ctx: PrecisionContext):
    """Yield (n, m, Residual) for 0 <= n <= n_max and each index m of `ms`,
    n-major: Gamma^(n) at the lattice point against its rational expansion
    over Gamma^(0..n) at the basis point.

    One vector Gamma^(0..n_max) per point and one coefficient sweep of order
    n_max (`coeffs._sweep_rows`, refused as `coefficient_table` refuses it,
    before any vector) serve every cell: a Bell value of order j does not
    depend on the top order, nor a row of order n on the table's degree, so
    each cell is the one-index grid's.  The check uses the relative residual,
    or the absolute one when |reference| < 1.
    """
    ms, rows = _sweep_rows(family, n_max, ms)
    vectors = _lattice_derivatives(family, ms, n_max, ctx)
    basis = vectors[family.min_index]
    points = [(m, vectors[m]) for m in ms]
    for n in range(n_max + 1):
        for (m, values), row in zip(points, rows(n)):
            with mp.workdps(ctx.working_digits):
                residual = _compare(_dot(row, basis), values[n], ctx)
            # the caller's loop body runs at its own precision
            yield n, m, residual


def verify_recovery(
    spec: LatticeSpec, n: int, ctx: PrecisionContext | None = None
) -> list[Residual]:
    """Solve a square lattice system for the basis derivative column: Gamma^(n)
    at each lattice point, less the constant column (plain family), times the
    exact rational inverse of the coefficient matrix.  Each recovered value,
    of Gamma^(1..n)(1) (plain) or Gamma^(0..n)(kappa) (shifted), is the
    `value` of a `Residual` against the direct evaluation of its basis
    derivative, by the residual rule of `verify_grid`."""
    ctx = ctx or PrecisionContext()
    system = build_system(spec, n)
    if not system.is_square:
        raise SpecMismatchError(
            f"system is {system.matrix.rows}x{system.matrix.cols}; solving needs square"
        )
    vectors = _lattice_derivatives(spec.family, spec.indices, n, ctx)
    return _check_recovery(system, n, ctx, vectors)


def _check_recovery(system, n: int, ctx: PrecisionContext, vectors) -> list[Residual]:
    """`verify_recovery` of a square `system` of order n, with Gamma^(0..N) at
    index m, N >= n, read as vectors[m].  A Bell value of order j does not
    depend on the top order, so any N gives the same residuals."""
    inv = inverse_exact(system.matrix)
    family = system.spec.family
    data = [vectors[m][n] for m in system.spec.indices]
    references = vectors[family.min_index][family.min_index : n + 1]
    with mp.workdps(ctx.working_digits):
        if system.constant_column:
            data = [d - _to_mpf(c) for d, c in zip(data, system.constant_column)]
        recovered = [_dot(inv.row(r), data) for r in range(inv.rows)]
        return [_compare(value, ref, ctx) for value, ref in zip(recovered, references)]


def _point_psi(family: ArgumentFamily, m: int, n: int, digits: int) -> int:
    """The mpmath operations of psi^(0..n-1) at point(m): a polygamma value (16
    operations a digit) per order at the basis point; above it, for n > 1,
    psi^(0) and a rounded ladder value (4 operations) per order; or 8
    operations per order for each unit the point lies below 0."""
    steps = max(0, -math.floor(family.point(m)))
    if steps:
        return 8 * steps * n
    if _reads_ladder(family, m, n):
        return 16 * digits + 4 * n
    return 16 * digits * n


def _sweep_work(family: ArgumentFamily, n_max: int, m_max, ctx: PrecisionContext):
    """The estimated units of a `verify` sweep of one family.  An mpmath
    operation weighs 4 fixed units and its operands, 3.322 bits a digit.  The
    first values take 100 operations a digit (at 1000 digits, 2.5 s plain and
    5.1 s at shift 1/3).

    Either sweep builds one vector Gamma^(0..n_max) per point up to its top
    index, the basis point once: a Bell row (3 n_max^2 operations) and its
    polygamma values (`_point_psi`).  The points that read the ladder share
    one walk: its short quotients, one per order at each point it passes and
    two per tail term (under a fifth as many).

    An identity sweep adds one prefix table and one dot product per cell.  A
    point of prefix length j adds j products of half the bits of a row entry.
    Below 0 that prices the integer product of j factors that divides its
    Gamma value, which `_point_psi` leaves unpriced at n_max = 0; everywhere
    it overstates the point's share of the one running Gamma ratio product
    (`coeffs._ratios`).  A cell's row is n + 1 pairs of exact products of
    `entry_bits` bits, at 40 fixed units each, and its dot product 3
    operations a term.

    A recovery order adds the inverse of its k x k system, whose scaled rows
    measured about half of `entry_bits`, and its k dot products of k terms."""
    kind, low, digits = family.poly_kind, family.min_index, ctx.working_digits
    unit = 4 + weight(digits * 3322 // 1000)
    bell = 3 * n_max * n_max
    top = n_max if m_max is None else m_max

    yield 100 * digits * unit
    if m_max is not None:
        if n_max < 0 or m_max < low:
            return
        yield kind.table_work(family, m_max - low, n_max)
    if _reads_ladder(family, top, n_max):
        far, _ = _walk_bounds(dps_to_prec(digits), n_max, family, (low + 1, top))
        yield (far + far // 2) * n_max * unit
    for m in range(low, top + 1):
        work = (_point_psi(family, m, n_max, digits) + bell) * unit
        if m_max is not None:
            j = m - low
            work += j * (40 + weight(kind.entry_bits(family, j, n_max) // 2)) + sum(
                (n + 1) * (80 + 2 * weight(kind.entry_bits(family, j, n)) + 3 * unit)
                for n in range(n_max + 1)
            )
        yield work
    if m_max is None:
        for n in range(low + 1, n_max + 1):
            k = n - low + 1
            bits = kind.entry_bits(family, n - low, n) // 2
            yield _elimination_work(k, bits, True) + 3 * k * k * unit


def check_sweep(families, n_max: int, m_max, ctx: PrecisionContext) -> None:
    """Charge a `verify` sweep's estimated work before any of it runs.  The
    sum is charged at each step of `_sweep_work`: a family's table and basis
    vector come first and each point grows with its prefix, so a huge sweep
    is refused at once."""
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
        low = family.min_index
        if m_max is None:
            # one coefficient sweep and one vector per point at n_max serve every order
            ms, rows = _sweep_rows(family, n_max, range(low, n_max + 1))
            vectors = _lattice_derivatives(family, ms, n_max, ctx)
            for n in range(low + 1, n_max + 1):
                spec = LatticeSpec(family, ms[: n - low + 1])
                system = _system(spec, n, [row for _, row in zip(spec.indices, rows(n))])
                yield family, n, spec.indices, _check_recovery(system, n, ctx, vectors)
        else:
            for n, m, residual in verify_grid(family, n_max, range(low, m_max + 1), ctx):
                yield family, n, m, residual
