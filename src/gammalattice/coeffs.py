"""Rational coefficients linking Gamma derivatives at lattice points to a basis.

The n-th derivative at lattice index m expands over the derivatives at the
family's basis point; the coefficient of the ell-th one is

    [Gamma(point)/Gamma(basis)] * (n!/ell!) * E_{n-ell}(x_1, ..., x_j),

for j the prefix length of m, the ratio (m-1)! on the plain lattice, and
E = e (plain, plus) or h (minus).  The per-family facts live on
`sympoly.ArgumentFamily`, the family argument of every entry point here, and
`_ratios` builds the Gamma ratios from them; this module never asks which
family it has.
One prefix table over the longest prefix holds every coefficient of a sweep,
and `_row` reads one index's row off it by the rule above: `coefficient_table`
reads a sweep, `build_system` stacks its rows into linear systems, and
`gammanum.verify_grid` reads every order of a `verify` grid off one table.
Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lgamma, log, log2
from typing import Iterable

from .budget import charge, hold
from .errors import SpecMismatchError
from .linalg import RationalMatrix, increasing_indices
from .sympoly import ArgumentFamily, PrefixTable

#: Shift values whose Gamma value is known to be transcendental.
KNOWN_TRANSCENDENTAL_SHIFTS = frozenset(
    Fraction(p, q)
    for p, q in ((1, 6), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (5, 6))
)


@dataclass(frozen=True)
class LatticeSpec:
    """A lattice family plus a strictly increasing set of its indices.

    Plain indices are the points themselves (m >= 1); shifted indices m >= 0
    select the points m + kappa or -m + kappa.
    """

    family: ArgumentFamily
    indices: tuple[int, ...]

    def __post_init__(self):
        ArgumentFamily.require(self.family)
        object.__setattr__(self, "indices", increasing_indices(self.indices))
        low = self.family.min_index
        if self.indices[0] < low:
            raise SpecMismatchError(
                f"{self.family.kind.value} lattice indices must be >= {low}"
            )

    def points(self) -> tuple[Fraction, ...]:
        """The actual lattice points: m, m + kappa, or -m + kappa."""
        return tuple(self.family.point(m) for m in self.indices)


def _row(table: PrefixTable, n: int, length: int, ratio: Fraction) -> tuple[Fraction, ...]:
    """The coefficients of Gamma^(0..n) at the basis point in the expansion of
    Gamma^(n) at the index with prefix length `length` and Gamma ratio
    `ratio`: the ratio times n!/ell! times the entry of degree n - ell over
    that prefix, read off `table`, which may be longer and of higher degree."""
    top = factorial(n)
    return tuple(
        ratio * (top // factorial(ell)) * table.value(length, n - ell)
        for ell in range(n + 1)
    )


def _ratios(family: ArgumentFamily, ms: Iterable[int]) -> dict[int, Fraction]:
    """index -> Gamma(point) / Gamma(basis point), exactly, for each index of
    `ms`, by Gamma(z + 1) = z Gamma(z): prod_{u<j} (b + u) going up and
    1 / prod_{u=1}^{j} (b - u) going down, for the prefix length j and basis
    point b = p/q.  One running product over the ascending distinct indices
    serves them all; (m-1)! on the plain lattice, sign (-1)^m below kappa."""
    p, q = family.basis_point.numerator, family.basis_point.denominator
    up = family.sign > 0
    ratios = {}
    j, product, power = 0, 1, 1
    for m in sorted(set(ms)):
        length = family.prefix_length(m)
        for u in range(j, length):
            product *= u * q + p if up else p - (u + 1) * q
            power *= q
        j = length
        ratios[m] = Fraction(product, power) if up else Fraction(power, product)
    return ratios


def _ratio_work(family: ArgumentFamily, m: int) -> int:
    """Estimated units of `_ratios` up to index m: a step per prefix variable,
    each a long integer times a short one, linear in the long one's bits, at
    a unit per 8,192 bits.  Those average under half the top's: the bits of
    Gamma(point)/Gamma(basis), from `math.lgamma`, and of q^j twice, for the
    basis denominator q and prefix length j.  A unit took 0.30-0.42 us (plain
    up to index 100,000, plus-5/7 and minus-1/3 at 50,000)."""
    j, q = family.prefix_length(m), family.basis_point.denominator
    bits = abs(lgamma(family.point(m)) - lgamma(family.basis_point)) / log(2)
    return j * (1 + int(bits + 2 * j * log2(q)) // 16384)


def coefficient_table(
    family: ArgumentFamily, n: int, ms: Iterable[int]
) -> tuple[tuple[Fraction, ...], ...]:
    """Every coefficient of a sweep over the indices `ms`.

    Row i holds the coefficients of ell = 0..n at index ms[i] (`_row`): the
    Gamma ratio at that index (`_ratios`), (m-1)! on the plain lattice, times
    n!/ell! times the table entry of degree n - ell over its prefix.  One
    prefix table of degree n over the longest prefix serves every row, and
    the rows, weighed by the digits of the longest, are held to the cell cap
    (`budget.hold`) before any but the top one, or its ratio, is built; that
    ratio's running product is charged first (`_ratio_work`).
    """
    ArgumentFamily.require(family)
    if n < 0:
        raise ValueError(f"derivative order {n} must be >= 0")
    if not isinstance(ms, range):
        ms = tuple(ms)
    if not ms:
        raise ValueError("no lattice indices")
    # a range's least and largest indices are at its ends, so a huge range is
    # sized, not listed: an index below the lattice, or the table's budget,
    # refuses it before any row is computed (and before len() could overflow);
    # the top index's row is the longest, and its digits weigh every row
    low, top = sorted((ms[0], ms[-1])) if isinstance(ms, range) else (min(ms), max(ms))
    family.prefix_length(low)
    table = family.poly_kind.table(family, family.prefix_length(top), n)
    # the top index's ratio is walked twice: for the top row, then the rows
    charge(2 * _ratio_work(family, top), f"the Gamma ratio at index {top}")
    last = _row(table, n, family.prefix_length(top), _ratios(family, (top,))[top])
    bits = max(x.numerator.bit_length() + x.denominator.bit_length() for x in last)
    hold(len(ms) * (n + 1), bits * 3 // 10, "coefficients")
    ratios = _ratios(family, ms)
    return tuple(_row(table, n, family.prefix_length(m), ratios[m]) for m in ms)


@dataclass(frozen=True)
class CoeffSystem:
    """The assembled linear system for one lattice spec and derivative order.

    Plain: matrix is k x n over unknowns Gamma^(1..n)(1), with the ell = 0
    terms split off into `constant_column`.  Shifted: matrix is k x (n+1) over
    unknowns Gamma^(0..n)(kappa) and the constant column is empty.  Square
    means k = n (plain) or k = n + 1 (shifted); rectangular systems are legal
    for inspection but cannot be solved.
    """

    spec: LatticeSpec
    matrix: RationalMatrix
    constant_column: tuple[Fraction, ...]
    unknowns_label: tuple[str, ...]

    @property
    def is_square(self) -> bool:
        return self.matrix.rows == self.matrix.cols


def build_system(spec: LatticeSpec, n: int) -> CoeffSystem:
    """Assemble the coefficient matrix (and constant column) for `spec`."""
    if n < 0:
        raise ValueError(f"derivative order {n} must be >= 0")
    family = spec.family
    first = family.min_index
    if n < first:
        raise SpecMismatchError(
            f"{family.kind.value} system needs n >= {first} (no unknown columns)"
        )
    rows = coefficient_table(family, n, spec.indices)
    # Known basis orders move to the constant column: Gamma(1) = 1 makes the
    # plain ell = 0 terms constants.
    consts = tuple(row[0] for row in rows) if first else ()
    matrix = RationalMatrix.from_rows(row[first:] for row in rows)
    labels = tuple(
        f"Gamma^({ell})({family.basis_point})" for ell in range(first, n + 1)
    )
    return CoeffSystem(spec, matrix, consts, labels)
