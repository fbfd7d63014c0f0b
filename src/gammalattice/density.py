"""Lower bounds for densities of transcendental Gamma derivatives.

Each bound is the complement of an averaged cap on how many derivative values
in a finite window can be algebraic: at most n-1 plain lattice points per
order n >= 2, at most n shifted points per order n >= 1 on each one-sided
lattice.  A plain window is the shifted window one step in, so one rule
computes the fixed-order and bivariate bounds of both lattices.  The bivariate
closed forms have an independent brute-force counterpart (`bivariate_min_sum`)
that performs the min-sum directly, with no case split; the two must agree
exactly on every cell.

True densities of transcendental values are not computable (they hinge on open
transcendence questions); only these lower-bound functions are provided.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt

from mpmath import mp


class BoundVariant(Enum):
    """A bound, with the integer ranges it sweeps (first, then M if any),
    whether its lattice window is the shifted one, and whether the min-sum
    oracle applies (to the bivariate bounds, over N x M)."""

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
        return member


@dataclass(frozen=True)
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


def _window_bound(variant: BoundVariant, first: int, M: int) -> DensityBound:
    """The fixed-order or bivariate bound, computed in shifted coordinates.

    Gamma(1) = 1 is known, so a plain window is the shifted one a step in:
    order n (orders 2..N) over points 1..M is order n-1 (orders 1..N-1) over
    shifted points 0..M-1.  With offset 1 (plain) or 0 (shifted), the window
    has m = M + 1 - offset points, n = first - offset, and shifted order k has
    at most k algebraic values in it.  So the bound is 1 - min{n, m}/m at fixed
    order, and over orders 1..n it averages to (m-1)/(2n) if m <= n, else
    1 - (n+1)/(2m).
    """
    name = variant.ranges[0]
    offset = 0 if variant.shifted else 1
    if first < 1 + offset:
        raise ValueError(f"{name}={first} must be >= {1 + offset}")
    if M < offset:
        raise ValueError(f"M={M} must be >= {offset}")
    n, m = first - offset, M + 1 - offset
    if not variant.has_oracle:  # fixed order
        value = 1 - Fraction(min(n, m), m)
    elif m <= n:
        value = Fraction(m - 1, 2 * n)
    else:
        value = 1 - Fraction(n + 1, 2 * m)
    window, cap = ("M+1", name) if variant.shifted else ("M", f"{name}-1")
    # interned: a grid shares one label object per branch, not one per cell
    branch = sys.intern(f"{window}<={cap}" if m <= n else f"{window}>{cap}")
    return DensityBound(variant, {name: first, "M": M}, value, branch)


def fixed_order_bound(n: int, M: int) -> DensityBound:
    """1 - min{n-1, M}/M over plain lattice points 1..M at fixed order n >= 2."""
    return _window_bound(BoundVariant.FIXED_N, n, M)


def fixed_order_shifted_bound(n: int, M: int) -> DensityBound:
    """1 - min{n, M+1}/(M+1) over one-sided shifted points 0..M at order n >= 1."""
    return _window_bound(BoundVariant.FIXED_N_SHIFTED, n, M)


def bivariate_bound(N: int, M: int) -> DensityBound:
    """Closed form over orders 2..N and plain points 1..M."""
    return _window_bound(BoundVariant.BIVARIATE, N, M)


def bivariate_shifted_bound(N: int, M: int) -> DensityBound:
    """Closed form over orders 1..N and one-sided shifted points 0..M."""
    return _window_bound(BoundVariant.BIVARIATE_SHIFTED, N, M)


def bivariate_min_sum(variant: str, N: int, M: int) -> Fraction:
    """The bivariate bound by direct min-summation; no branch arithmetic."""
    if variant == "plain":
        if N < 2:
            raise ValueError(f"N={N} must be >= 2")
        if M < 1:
            raise ValueError(f"M={M} must be >= 1")
        algebraic_cap = sum(min(n - 1, M) for n in range(2, N + 1))
        return 1 - Fraction(algebraic_cap, (N - 1) * M)
    if variant == "shifted":
        if N < 1:
            raise ValueError(f"N={N} must be >= 1")
        if M < 0:
            raise ValueError(f"M={M} must be >= 0")
        algebraic_cap = sum(min(n, M + 1) for n in range(1, N + 1))
        return 1 - Fraction(algebraic_cap, N * (M + 1))
    raise ValueError(f"unknown variant {variant!r} (want 'plain' or 'shifted')")


@dataclass(frozen=True)
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
    for the fixed-order ones, then M (ignored by the prior variant).
    Bivariate rows carry the min-sum oracle value unless `include_oracle` is
    switched off.  `digits` (>= 1) is the precision of inexact values.
    """
    _check_digits(digits)
    firsts = sorted(set(first_range))
    if variant is BoundVariant.PRIOR:
        return [GridRow(prior_univariate_bound(N, digits=digits)) for N in firsts]
    seconds = sorted(set(second_range or ()))
    oracle = include_oracle and variant.has_oracle
    window = "shifted" if variant.shifted else "plain"
    return [
        GridRow(
            _window_bound(variant, a, b),
            bivariate_min_sum(window, a, b) if oracle else None,
        )
        for a in firsts
        for b in seconds
    ]
