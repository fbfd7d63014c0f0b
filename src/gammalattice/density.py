"""Lower bounds for densities of transcendental Gamma derivatives.

Each bound is the complement of an averaged cap on how many derivative values
in a finite window can be algebraic: at most n-1 plain lattice points per
order n >= 2, at most n shifted points per order n >= 1 on each one-sided
lattice.  A plain window is the shifted window one step in
(`BoundVariant.offset`), so one rule, `_window`, computes the fixed-order and
bivariate bounds of both lattices.  The bivariate closed forms have a
brute-force counterpart, `_min_sum_pairs`, that performs the min-sum directly,
with no case split; the two must agree exactly on every cell.  The oracle
walks the orders once for a whole grid, with one running sum of the caps per
M, and yields its pairs in the order the grid prints them.

`density_grid` is the one entry point.  Every windowed bound is a ratio of
small integers, so a grid keeps each cell as its unreduced pair (num, den),
and the oracle's as its own pair, in one light `GridRow`: no `Fraction` per
cell.  A prior row is a `DensityBound`: a `Fraction` or the digits it prints.

True densities of transcendental values are not computable (they hinge on open
transcendence questions); only these lower-bound functions are provided.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from itertools import repeat
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .budget import MAX_DIGITS, hold


class BoundVariant(Enum):
    """A bound, with the integer ranges it sweeps (first, then M if any),
    whether its lattice window is the shifted one, the offset of its window
    from the shifted one (0 shifted, 1 plain: a plain window is the shifted
    one a step in), whether the min-sum oracle applies (to the bivariate
    bounds, over N x M), and the branch labels of a windowed bound (the window
    within the order cap, then beyond it)."""

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
        member.offset = 0 if shifted else 1
        member.has_oracle = ranges == ("N", "M")
        # the labels of a window within the order cap and of one beyond it,
        # built once, so that a grid shares two label objects
        window, cap = ("M+1", ranges[0]) if shifted else ("M", f"{ranges[0]}-1")
        member.branches = (
            (f"{window}<={cap}", f"{window}>{cap}") if len(ranges) == 2 else ()
        )
        return member


class DensityBound(NamedTuple):
    """One row of a prior grid: N, the bound in [0, 1] and its branch.  `value`
    is an exact Fraction, or at a non-square N the text of the real's digits;
    `exact` tells the two apart."""

    N: int
    value: Fraction | str
    branch: str

    @property
    def exact(self) -> bool:
        return isinstance(self.value, Fraction)


def _prior_bound(N: int, digits: int) -> DensityBound:
    """max{0, sqrt(N) - 5/2} / N over derivative orders 1..N at one point
    N >= 1: exact when the bound clamps to zero (N <= 6) or N is a perfect
    square, otherwise a real computed and printed at `digits` digits."""
    if N <= 6:
        return DensityBound(N, Fraction(0), "clamped-zero")
    root = isqrt(N)
    if root * root == N:
        return DensityBound(N, (Fraction(root) - Fraction(5, 2)) / N, "square-root-exact")
    from mpmath import mp  # the one inexact branch; exact bounds never load it

    with mp.workdps(digits):
        value = mp.nstr((mp.sqrt(N) - mp.mpf(5) / 2) / N, digits)
    return DensityBound(N, value, "square-root-inexact")


def _check_window(variant: BoundVariant, first: int, M: int) -> None:
    """Refuse a window below the variant's first order or point."""
    offset = variant.offset
    if first < 1 + offset:
        raise ValueError(f"{variant.ranges[0]}={first} must be >= {1 + offset}")
    if M < offset:
        raise ValueError(f"M={M} must be >= {offset}")


def _window(variant: BoundVariant, first: int, M: int) -> tuple[int, int, str]:
    """The fixed-order or bivariate bound of a checked window as an unreduced
    pair (num, den), and its branch label, computed in shifted coordinates.

    Gamma(1) = 1 is known, so a plain window is the shifted one a step in:
    order n (orders 2..N) over points 1..M is order n-1 (orders 1..N-1) over
    shifted points 0..M-1.  With offset 1 (plain) or 0 (shifted), the window
    has m = M + 1 - offset points, n = first - offset, and shifted order k has
    at most k algebraic values in it.  So the bound is 1 - min{n, m}/m at fixed
    order, and over orders 1..n it averages to (m-1)/(2n) if m <= n, else
    1 - (n+1)/(2m).  `first` is n for the fixed-order variants, N for the
    bivariate ones.
    """
    n, m = first - variant.offset, M + 1 - variant.offset
    if not variant.has_oracle:  # fixed order
        return m - min(n, m), m, variant.branches[m > n]
    if m <= n:
        return m - 1, 2 * n, variant.branches[0]
    return 2 * m - n - 1, 2 * m, variant.branches[1]


def _min_sum_pairs(
    variant: BoundVariant, Ns: Iterable[int], Ms: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """The bivariate bound at each cell of the checked, nonempty, strictly
    ascending `Ns` and `Ms`, N-major, as unreduced pairs (size - caps, size).

    A direct min-summation with no branch arithmetic: the orders are walked
    once, up to the largest N, and each order's algebraic cap, min(n-1, M)
    (plain, orders n >= 2) or min(n, M+1) (shifted, n >= 1), is added to one
    running sum per M; each N reads its row of cells off the sums.
    """
    # the cap min(k, p), k = n - lift and p = M + 1 - lift the window's points,
    # is min(n-1, M) or min(n, M+1); written out, as a call of min costs more
    first, lift = (1, 0) if variant.shifted else (2, 1)
    points = [M + 1 - lift for M in Ms]
    sums, top = [0] * len(points), first - 1  # top: the last order summed
    for N in Ns:
        for k in range(top + 1 - lift, N + 1 - lift):
            sums = [s + (k if k < p else p) for s, p in zip(sums, points)]
        top, orders = N, N - first + 1
        for running, window in zip(sums, points):
            size = orders * window  # orders in the window times its points
            yield size - running, size


def _ascending(values: Iterable[int]) -> Sequence[int]:
    """The distinct values in ascending order, each read by `operator.index`
    (a float or a `Fraction` is refused).  A range with a positive step is
    kept, so sizing a huge one allocates nothing."""
    if isinstance(values, range) and values.step > 0:
        return values
    return sorted(set(map(operator.index, values)))


def _count(values: Sequence[int]) -> int:
    """len(values), also for a range too long for len()."""
    if isinstance(values, range) and values:
        return (values[-1] - values[0]) // values.step + 1
    return len(values)


class GridRow(NamedTuple):
    """One cell of a windowed grid: its coordinates (n or N, then M), its
    bound as the unreduced pair num/den, its branch label and, with the
    oracle, the oracle's own unreduced pair, checked by `oracle_match`."""

    first: int
    M: int
    num: int
    den: int
    branch: str
    oracle_num: int | None = None
    oracle_den: int | None = None

    @property
    def oracle_match(self) -> bool | None:
        """Whether the oracle's pair is the bound (None without the oracle);
        both denominators are positive, so cross products compare exactly."""
        if self.oracle_den is None:
            return None
        return self.num * self.oracle_den == self.oracle_num * self.den


def density_grid(
    variant: BoundVariant,
    first_range,
    second_range=None,
    include_oracle: bool = True,
    digits: int = 50,
) -> list[GridRow] | list[DensityBound]:
    """Cartesian sweep of a bound over integer ranges, sorted by coordinates.

    The ranges are the variant's: N for the prior and bivariate variants and n
    for the fixed-order ones, then M (ignored by the prior variant, required
    by the others, and nonempty unless the first range is empty); they and
    `digits` are read by `operator.index`.  A prior grid is a list of
    `DensityBound`s; `digits` (>= 1) are the digits of their inexact values.
    A windowed grid is a list of `GridRow`s, each bound an exact pair of
    integers; bivariate rows carry the min-sum oracle's pair unless
    `include_oracle` is switched off, and the oracle walks the orders once per
    grid, in the rows' order.  A grid of more than `budget.MAX_CELLS` cells is
    refused before any cell is computed; a prior cell weighs more at more
    digits, and the oracle counts every order up to the largest N at each M.
    """
    digits = operator.index(digits)
    if digits < 1:
        raise ValueError(f"digits={digits} must be >= 1")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits={digits} must be <= {MAX_DIGITS}")
    firsts = _ascending(first_range)
    if variant is BoundVariant.PRIOR:
        hold(_count(firsts), digits, "grid cells")
        # the least N checks the whole grid
        if firsts and firsts[0] < 1:
            raise ValueError(f"N={firsts[0]} must be >= 1")
        return [_prior_bound(N, digits) for N in firsts]
    seconds = _ascending(second_range or ())
    if not seconds and (firsts or second_range is None):
        # no M values would silently drop every first value
        raise ValueError(f"variant {variant.value} needs a nonempty M range")
    oracle = include_oracle and variant.has_oracle
    span = _count(firsts)
    if oracle and firsts:
        # the oracle sums the orders 1..N (shifted) or 2..N (plain) at each M
        span = firsts[-1] - variant.offset
    hold(span * _count(seconds), 0, "grid cells")
    if not firsts:
        return []
    # the least cell has the least coordinates, so it checks the whole grid
    _check_window(variant, firsts[0], seconds[0])
    pairs = _min_sum_pairs(variant, firsts, seconds) if oracle else repeat(())
    return [GridRow(a, b, *_window(variant, a, b), *next(pairs)) for a in firsts
            for b in seconds]
