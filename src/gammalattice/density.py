"""Lower bounds for densities of transcendental Gamma derivatives.

Each bound is the complement of an averaged cap on how many derivative values
in a finite window can be algebraic: at most n-1 plain lattice points per
order n >= 2, at most n shifted points per order n >= 1 on each one-sided
lattice.  A plain window is the shifted window one step in, so one rule
computes the fixed-order and bivariate bounds of both lattices.  The bivariate
closed forms have an independent brute-force counterpart (`bivariate_min_sum`)
that performs the min-sum directly, with no case split; the two must agree
exactly on every cell.  The oracle takes a whole column of N values at one M
and sums the caps once, as a running sum over the orders, so a grid costs one
pass per M rather than one per cell.

True densities of transcendental values are not computable (they hinge on open
transcendence questions); only these lower-bound functions are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, count, islice
from math import isqrt
from typing import Iterable, Sequence

from mpmath import mp

from .budget import MAX_DIGITS
from .errors import GuardExceededError

# Cells in one grid, a memory cap: at the cap a bivariate grid with the oracle
# in JSON peaks at 135 MB (1.2 s), and the prior bound at 50 digits at 145 MB
# (3.6 s; 2-core x86-64, CPython 3.11).  A prior cell weighs 1 + digits //
# PRIOR_DIGITS_PER_CELL: at 1000 digits its row took five times the time and
# memory of one at 50.  The oracle counts every order up to the largest N at
# each M.
MAX_GRID_CELLS = 100_000
PRIOR_DIGITS_PER_CELL = 250


class BoundVariant(Enum):
    """A bound, with the integer ranges it sweeps (first, then M if any),
    whether its lattice window is the shifted one, whether the min-sum oracle
    applies (to the bivariate bounds, over N x M), and the branch labels of a
    windowed bound (the window within the order cap, then beyond it)."""

    PRIOR = ("prior", ("N",), False)
    FIXED_N = ("fixed-n", ("n", "M"), False)
    FIXED_N_SHIFTED = ("fixed-n-shifted", ("n", "M"), True)
    BIVARIATE = ("bivariate", ("N", "M"), False)
    BIVARIATE_SHIFTED = ("bivariate-shifted", ("N", "M"), True)

    def __new__(cls, value: str, ranges: tuple[str, ...], shifted: bool):
        member = object.__new__(cls)
        member._value_ = value
        member.ranges = ranges
        member.shifted = shifted
        member.has_oracle = ranges == ("N", "M")
        # the labels of a window within the order cap and of one beyond it,
        # built once, so that a grid shares two label objects
        window, cap = ("M+1", ranges[0]) if shifted else ("M", f"{ranges[0]}-1")
        member.branches = (
            (f"{window}<={cap}", f"{window}>{cap}") if len(ranges) == 2 else ()
        )
        return member


@dataclass(frozen=True, slots=True)
class DensityBound:
    """A computed lower bound: value in [0, 1] plus the branch that produced it.

    `value` is an exact Fraction except for the prior bound at non-square N,
    where the square root forces a high-precision real; `exact` makes the
    difference explicit.
    """

    variant: BoundVariant
    params: dict
    value: object
    branch: str
    exact: bool = True


def _check_digits(digits: int) -> None:
    if digits < 1:
        raise ValueError(f"digits={digits} must be >= 1")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits={digits} must be <= {MAX_DIGITS}")


def prior_univariate_bound(N: int, digits: int = 50) -> DensityBound:
    """max{0, sqrt(N) - 5/2} / N over derivative orders 1..N at one point.

    Exact when the bound clamps to zero (N <= 6) or N is a perfect square;
    otherwise a high-precision real computed at `digits` (>= 1) digits.
    """
    if N < 1:
        raise ValueError(f"N={N} must be >= 1")
    _check_digits(digits)
    params = {"N": N}
    if N <= 6:
        return DensityBound(BoundVariant.PRIOR, params, Fraction(0), "clamped-zero")
    root = isqrt(N)
    if root * root == N:
        value = (Fraction(root) - Fraction(5, 2)) / N
        return DensityBound(BoundVariant.PRIOR, params, value, "square-root-exact")
    with mp.workdps(digits):
        value = (mp.sqrt(N) - mp.mpf(5) / 2) / N
    return DensityBound(
        BoundVariant.PRIOR, params, value, "square-root-inexact", exact=False
    )


def window_bound(variant: BoundVariant, first: int, M: int) -> DensityBound:
    """The fixed-order or bivariate bound, computed in shifted coordinates.

    Gamma(1) = 1 is known, so a plain window is the shifted one a step in:
    order n (orders 2..N) over points 1..M is order n-1 (orders 1..N-1) over
    shifted points 0..M-1.  With offset 1 (plain) or 0 (shifted), the window
    has m = M + 1 - offset points, n = first - offset, and shifted order k has
    at most k algebraic values in it.  So the bound is 1 - min{n, m}/m at fixed
    order, and over orders 1..n it averages to (m-1)/(2n) if m <= n, else
    1 - (n+1)/(2m).  `first` is n for the fixed-order variants, N for the
    bivariate ones; the prior variant has no window.
    """
    if variant is BoundVariant.PRIOR:
        raise ValueError("the prior bound has no lattice window")
    name = variant.ranges[0]
    offset = 0 if variant.shifted else 1
    if first < 1 + offset:
        raise ValueError(f"{name}={first} must be >= {1 + offset}")
    if M < offset:
        raise ValueError(f"M={M} must be >= {offset}")
    n, m = first - offset, M + 1 - offset
    if not variant.has_oracle:  # fixed order
        value = Fraction(m - min(n, m), m)
    elif m <= n:
        value = Fraction(m - 1, 2 * n)
    else:
        value = Fraction(2 * m - n - 1, 2 * m)
    branch = variant.branches[m > n]
    return DensityBound(variant, {name: first, "M": M}, value, branch)


def bivariate_min_sum(
    variant: BoundVariant, Ns: Iterable[int], M: int
) -> list[Fraction]:
    """The bivariate bound at each N of the strictly ascending `Ns`, one M.

    A direct min-summation with no branch arithmetic: the algebraic caps
    min(n-1, M) (plain, orders n >= 2) or min(n, M+1) (shifted, n >= 1) are
    summed once, as one running sum over n up to the largest N, and the
    column reads its cells off that sum.
    """
    if not isinstance(variant, BoundVariant) or not variant.has_oracle:
        raise ValueError(f"no min-sum oracle for variant {variant!r}")
    if variant.shifted:
        first, low_M, points = 1, 0, M + 1
        caps = (min(n, M + 1) for n in count(first))
    else:
        first, low_M, points = 2, 1, M
        caps = (min(n - 1, M) for n in count(first))
    Ns = list(Ns)
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N values must be strictly increasing")
    if Ns and Ns[0] < first:
        raise ValueError(f"N={Ns[0]} must be >= {first}")
    if M < low_M:
        raise ValueError(f"M={M} must be >= {low_M}")
    running = list(accumulate(islice(caps, Ns[-1] - first + 1))) if Ns else []
    column = []
    for N in Ns:
        size = (N - first + 1) * points  # orders in the window times its points
        column.append(Fraction(size - running[N - first], size))
    return column


def _ascending(values: Iterable[int]) -> Sequence[int]:
    """The distinct values in ascending order.  A range with a positive step
    already is that, and is kept, so sizing a huge one allocates nothing."""
    if isinstance(values, range) and values.step > 0:
        return values
    return sorted(set(values))


def _count(values: Sequence[int]) -> int:
    """len(values), also for a range too long for len()."""
    if isinstance(values, range) and values:
        return (values[-1] - values[0]) // values.step + 1
    return len(values)


def _check_cells(cells: int, weight: int = 1) -> None:
    if cells * weight > MAX_GRID_CELLS:
        each = f" of weight {weight}" if weight > 1 else ""
        raise GuardExceededError(
            f"{cells} grid cells{each} are over the budget {MAX_GRID_CELLS}"
        )


@dataclass(frozen=True, slots=True)
class GridRow:
    bound: DensityBound
    oracle: Fraction | None = None


def density_grid(
    variant: BoundVariant,
    first_range,
    second_range=None,
    include_oracle: bool = True,
    digits: int = 50,
) -> list[GridRow]:
    """Cartesian sweep of a bound over integer ranges, sorted by coordinates.

    The ranges are the variant's: N for the prior and bivariate variants and n
    for the fixed-order ones, then M (ignored by the prior variant, required
    by the others, and nonempty unless the first range is empty).
    Bivariate rows carry the min-sum oracle value unless `include_oracle` is
    switched off; the oracle runs once per M, over every N at once.
    `digits` (>= 1) is the precision of inexact values.  A grid of more than
    `MAX_GRID_CELLS` cells is refused before any cell is computed; a prior
    cell weighs more at more digits, and the oracle counts every order up to
    the largest N at each M.
    """
    _check_digits(digits)
    firsts = _ascending(first_range)
    if variant is BoundVariant.PRIOR:
        _check_cells(_count(firsts), 1 + digits // PRIOR_DIGITS_PER_CELL)
        return [GridRow(prior_univariate_bound(N, digits=digits)) for N in firsts]
    seconds = _ascending(second_range or ())
    if not seconds and (firsts or second_range is None):
        # no M values would silently drop every first value
        raise ValueError(f"variant {variant.value} needs a nonempty M range")
    span = _count(firsts)
    if include_oracle and variant.has_oracle and firsts:
        # the oracle sums the orders 1..N (shifted) or 2..N (plain) at each M
        span = firsts[-1] - (0 if variant.shifted else 1)
    _check_cells(span * _count(seconds))
    bounds = [window_bound(variant, a, b) for a in firsts for b in seconds]
    if not (bounds and include_oracle and variant.has_oracle):
        return [GridRow(bound) for bound in bounds]
    columns = [bivariate_min_sum(variant, firsts, b) for b in seconds]
    # the columns run down N at fixed M; the rows run along M at fixed N
    oracles = (value for row in zip(*columns) for value in row)
    return [GridRow(bound, value) for bound, value in zip(bounds, oracles)]
