"""Independent oracles used only by the tests.

Coefficients are re-derived here without symmetric polynomials: multiply out
the linear factors as an exact polynomial in the series variable (constant
term first), invert the polynomial as a truncated power series where needed,
and read the coefficient off directly.  Symmetric polynomials are summed by
brute-force enumeration, pi by Machin's formula, and Cauchy-Binet expansions
over every column subset with Fraction Gaussian elimination, on the banded
factor written out densely (`dense`).  The certificate chain's first steps
(row differencing, then dropping the first row and column) and the matrix
product run on plain lists of rows.  Density bounds sum the abstract's caps
one order at a time.  The CLI envelope is rendered by the standard library's
own JSON and CSV writers.  Nothing below touches the package's prefix-table,
Bareiss, polygamma, density or output code paths.
"""

import csv
import io
import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod
from typing import Sequence

from mpmath import mp

from gammalattice import BoundVariant, GuardExceededError, PrecisionContext


def poly_mul(a, b, truncate=None):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    if truncate is not None:
        out = out[: truncate + 1]
    return out


def linear_product(offsets, truncate=None):
    """prod (offset + t) over the offsets, expanded in t."""
    out = [Fraction(1)]
    for offset in offsets:
        out = poly_mul(out, [Fraction(offset), Fraction(1)], truncate)
    return out


def gamma_ratio_oracle(basis, point):
    """Gamma(point) / Gamma(basis) for an integer point - basis, by
    Gamma(z + 1) = z Gamma(z): the product of the linear factors z between
    them, as the constant term of `linear_product`, inverted below the basis."""
    basis, point = Fraction(basis), Fraction(point)
    steps = point - basis
    if steps.denominator != 1:
        raise ValueError(f"{point} is not an integer step from {basis}")
    if steps >= 0:
        return linear_product([basis + u for u in range(int(steps))], truncate=0)[0]
    return 1 / linear_product([point + u for u in range(int(-steps))], truncate=0)[0]


def series_inverse(p, order):
    """1/p(t) as a power series through degree `order`; requires p[0] != 0."""
    inv = [1 / p[0]]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(p) - 1) + 1):
            acc += p[j] * inv[k - j]
        inv.append(-acc / p[0])
    return inv


def _series_coefficient(series, degree):
    return series[degree] if degree < len(series) else Fraction(0)


def plain_coefficient_oracle(n, ell, m):
    series = linear_product(range(1, m), truncate=n)
    return Fraction(factorial(n), factorial(ell)) * _series_coefficient(series, n - ell)


def plus_coefficient_oracle(n, ell, m, kappa):
    series = linear_product([u + kappa for u in range(m)], truncate=n)
    return Fraction(factorial(n), factorial(ell)) * _series_coefficient(series, n - ell)


def minus_coefficient_oracle(n, ell, m, kappa):
    denominator = linear_product([kappa - u for u in range(1, m + 1)])
    series = series_inverse(denominator, n)
    return Fraction(factorial(n), factorial(ell)) * _series_coefficient(series, n - ell)


# Symmetric polynomials by direct enumeration, checked against the prefix
# tables.  Subset enumeration is exponential in the list length; multiset
# enumeration is capped by the number of monomials instead.
SUBSET_GUARD_LEN = 20
MONOMIAL_GUARD = 10**6


def elementary_bruteforce(xs: Sequence[Fraction], v: int) -> Fraction:
    """e_v by enumerating all size-v subsets of `xs`.  Exponential; guarded."""
    if v < 0:
        raise ValueError(f"degree {v} must be >= 0")
    if len(xs) > SUBSET_GUARD_LEN:
        raise GuardExceededError(
            f"subset enumeration over {len(xs)} > {SUBSET_GUARD_LEN} variables"
        )
    if v == 0:
        return Fraction(1)
    if v > len(xs):
        return Fraction(0)
    return sum((prod(c) for c in combinations(xs, v)), start=Fraction(0))


def homogeneous_bruteforce(xs: Sequence[Fraction], v: int) -> Fraction:
    """h_v by enumerating all degree-v monomials with repetition.  Guarded."""
    if v < 0:
        raise ValueError(f"degree {v} must be >= 0")
    if v == 0:
        return Fraction(1)
    if not xs:
        return Fraction(0)
    if comb(len(xs) + v - 1, v) > MONOMIAL_GUARD:
        raise GuardExceededError(
            f"monomial enumeration needs {comb(len(xs) + v - 1, v)} > {MONOMIAL_GUARD} terms"
        )
    return sum(
        (prod(c) for c in combinations_with_replacement(xs, v)), start=Fraction(0)
    )


def machin_pi(ctx: PrecisionContext):
    """pi from Machin's arctangent formula; independent of the polygamma path.

    Used as a cross-method anchor when checking values like psi'(1) = pi^2/6.
    """
    with mp.workdps(ctx.working_digits):
        return 16 * _atan_unit_fraction(5) - 4 * _atan_unit_fraction(239)


def _atan_unit_fraction(n: int):
    # atan(1/n) = sum_j (-1)^j / ((2j+1) n^(2j+1)); runs at the caller's dps.
    threshold = mp.mpf(10) ** -(mp.dps + 5)
    acc = mp.mpf(0)
    j = 0
    while True:
        term = mp.mpf(1) / ((2 * j + 1) * n ** (2 * j + 1))
        if term < threshold:
            return acc
        acc += term if j % 2 == 0 else -term
        j += 1


# The Cauchy-Binet expansion over every column subset, with determinants by
# Gaussian elimination over Fractions: no band structure and no Bareiss step.
CAUCHY_BINET_GUARD = 10**5


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination with row swaps, in Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            factor = a[r][k] / a[k][k]
            a[r] = [x - factor * y for x, y in zip(a[r], a[k])]
    return det


def generic_cauchy_binet(left, right):
    """(total, terms, pruned) for det(left @ right), with `left` p x q and
    `right` q x p as lists of rows.  Every size-p subset S of the q shared
    indices is visited in lexicographic order: those whose left columns leave
    some row all zero are pruned, the rest contribute det(left[:, S]) *
    det(right[S, :]), and the terms with a nonzero product are listed as
    (1-based subset, det_left, det_right)."""
    p, q = len(left), len(right)
    if comb(q, p) > CAUCHY_BINET_GUARD:
        raise GuardExceededError(f"{comb(q, p)} subsets > {CAUCHY_BINET_GUARD}")
    total, terms, pruned = Fraction(0), [], 0
    for subset in combinations(range(q), p):
        if any(all(row[j] == 0 for j in subset) for row in left):
            pruned += 1
            continue
        det_left = fraction_det([[row[j] for j in subset] for row in left])
        det_right = fraction_det([right[j] for j in subset])
        if det_left * det_right != 0:
            terms.append((tuple(j + 1 for j in subset), det_left, det_right))
            total += det_left * det_right
    return total, terms, pruned


# The row-difference steps of the certificate chain and the matrix product,
# on lists of rows: no elimination, only entrywise Fraction arithmetic.


def dense(banded):
    """A banded factor's rows, zero off its bands."""
    rows = [[Fraction(0)] * banded.cols for _ in banded.bands]
    for row, band in zip(rows, banded.bands):
        for j, x in band:
            row[j] = x
    return rows


def matmul(a, b):
    """The product of two matrices given as lists of rows."""
    if len(a[0]) != len(b):
        raise ValueError(f"{len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    cols = list(zip(*b))
    return [
        [sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
        for row in a
    ]


def row_difference(rows):
    """Keep row 0; replace row r >= 1 by (row r) - (row r-1) of the input.

    Each replaced row is a difference of *input* rows, so the whole map is
    unit lower triangular and the determinant is unchanged.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    return rows[:1] + [[a - b for a, b in zip(r, s)] for s, r in zip(rows, rows[1:])]


def difference_minor(rows):
    """Row-difference the matrix, then drop the first row and column.

    Valid as a determinant-preserving step only when the first column is
    constant 1: the differenced first column is then (1, 0, ..., 0) and
    expansion along it leaves exactly this minor.
    """
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ValueError("need at least a 2x2 matrix")
    diff = row_difference(rows)
    if [row[0] for row in diff] != [1] + [0] * (len(diff) - 1):
        raise ValueError("first column is not constant 1; minor would change det")
    return [row[1:] for row in diff[1:]]


def density_oracle(variant, first, M) -> Fraction:
    """A windowed density bound from the abstract's caps, one order at a time:
    at most min(n-1, M) algebraic values at plain order n >= 2 over the M
    points 1..M, at most min(n, M+1) at shifted order n >= 1 over the M+1
    points 0..M.  A fixed-order bound counts the order `first` alone, a
    bivariate one every order up to N = `first`."""
    shifted = variant in (BoundVariant.FIXED_N_SHIFTED, BoundVariant.BIVARIATE_SHIFTED)
    bivariate = variant in (BoundVariant.BIVARIATE, BoundVariant.BIVARIATE_SHIFTED)
    lowest, points = (1, M + 1) if shifted else (2, M)
    orders = range(lowest, first + 1) if bivariate else [first]
    algebraic = 0
    for n in orders:
        algebraic += min(n if shifted else n - 1, points)
    return 1 - Fraction(algebraic, len(orders) * points)


# The CLI envelope as the standard library writes it: the whole payload through
# the JSON encoder at indent 2, and the rows through `csv.DictWriter`.


def reference_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def reference_csv(rows: list) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
