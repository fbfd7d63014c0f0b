"""Lower bounds for densities of transcendental Gamma derivatives.

Each bound is the complement of an averaged cap on how many derivative values
in a finite window can be algebraic: at most n-1 plain lattice points per
order n >= 2, at most n shifted points per order n >= 1 on each one-sided
lattice.  The bivariate closed forms have an independent brute-force
counterpart (`bivariate_min_sum`) that performs the min-sum directly, with no
case split; the two must agree exactly on every cell.

True densities of transcendental values are not computable (they hinge on open
transcendence questions); only these lower-bound functions are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt

from mpmath import mp


class BoundVariant(Enum):
    PRIOR = "prior"
    FIXED_N = "fixed-n"
    FIXED_N_SHIFTED = "fixed-n-shifted"
    BIVARIATE = "bivariate"
    BIVARIATE_SHIFTED = "bivariate-shifted"


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


def fixed_order_bound(n: int, M: int) -> DensityBound:
    """1 - min{n-1, M}/M over plain lattice points 1..M at fixed order n >= 2."""
    if n < 2:
        raise ValueError(f"n={n} must be >= 2")
    if M < 1:
        raise ValueError(f"M={M} must be >= 1")
    branch = "M<=n-1" if M <= n - 1 else "M>n-1"
    value = 1 - Fraction(min(n - 1, M), M)
    return DensityBound(BoundVariant.FIXED_N, {"n": n, "M": M}, value, branch)


def fixed_order_shifted_bound(n: int, M: int) -> DensityBound:
    """1 - min{n, M+1}/(M+1) over one-sided shifted points 0..M at order n >= 1."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if M < 0:
        raise ValueError(f"M={M} must be >= 0")
    branch = "M+1<=n" if M + 1 <= n else "M+1>n"
    value = 1 - Fraction(min(n, M + 1), M + 1)
    return DensityBound(BoundVariant.FIXED_N_SHIFTED, {"n": n, "M": M}, value, branch)


def bivariate_bound(N: int, M: int) -> DensityBound:
    """Closed form over orders 2..N and plain points 1..M."""
    if N < 2:
        raise ValueError(f"N={N} must be >= 2 (order window 2..N would be empty)")
    if M < 1:
        raise ValueError(f"M={M} must be >= 1")
    if M <= N - 1:
        value = Fraction(M - 1, 2 * (N - 1))
        branch = "M<=N-1"
    else:
        value = 1 - Fraction(N, 2 * M)
        branch = "M>N-1"
    return DensityBound(BoundVariant.BIVARIATE, {"N": N, "M": M}, value, branch)


def bivariate_shifted_bound(N: int, M: int) -> DensityBound:
    """Closed form over orders 1..N and one-sided shifted points 0..M."""
    if N < 1:
        raise ValueError(f"N={N} must be >= 1")
    if M < 0:
        raise ValueError(f"M={M} must be >= 0")
    if M + 1 <= N:
        value = Fraction(M, 2 * N)
        branch = "M+1<=N"
    else:
        value = 1 - Fraction(N + 1, 2 * (M + 1))
        branch = "M+1>N"
    return DensityBound(
        BoundVariant.BIVARIATE_SHIFTED, {"N": N, "M": M}, value, branch
    )


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

    The first range is N for the prior and bivariate variants and n for the
    fixed-order ones; the second range is M (ignored by the prior variant).
    Bivariate rows carry the min-sum oracle value unless `include_oracle` is
    switched off.  `digits` (>= 1) is the precision of inexact values.
    """
    _check_digits(digits)
    firsts = sorted(set(first_range))
    seconds = sorted(set(second_range)) if second_range is not None else []
    rows: list[GridRow] = []
    if variant is BoundVariant.PRIOR:
        for N in firsts:
            rows.append(GridRow(prior_univariate_bound(N, digits=digits)))
        return rows
    for a in firsts:
        for b in seconds:
            if variant is BoundVariant.FIXED_N:
                rows.append(GridRow(fixed_order_bound(a, b)))
            elif variant is BoundVariant.FIXED_N_SHIFTED:
                rows.append(GridRow(fixed_order_shifted_bound(a, b)))
            elif variant is BoundVariant.BIVARIATE:
                oracle = bivariate_min_sum("plain", a, b) if include_oracle else None
                rows.append(GridRow(bivariate_bound(a, b), oracle))
            elif variant is BoundVariant.BIVARIATE_SHIFTED:
                oracle = bivariate_min_sum("shifted", a, b) if include_oracle else None
                rows.append(GridRow(bivariate_shifted_bound(a, b), oracle))
            else:
                raise ValueError(f"unknown variant {variant}")
    return rows
