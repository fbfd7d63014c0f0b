"""Rational coefficients linking Gamma derivatives at lattice points to a basis.

The n-th derivative at lattice index m expands over the derivatives at the
family's basis point; the coefficient of the ell-th one is

    scale(m) * (n!/ell!) * E_{n-ell}(x_1, ..., x_j),    j = prefix length of m,

with scale (m-1)! on the plain lattice and Gamma(point)/Gamma(kappa) on the
shifted ones, and E = e (plain, plus) or h (minus).  These per-family facts
live on `sympoly.ArgumentFamily`; this module never asks which family it has.
One prefix table over the longest prefix holds every coefficient of a sweep;
`coefficient_table` reads a sweep off it, and `build_system` stacks its rows
into linear systems.  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterable

from .errors import InvalidKappaError, SpecMismatchError
from .linalg import RationalMatrix
from .sympoly import (
    ArgumentFamily,
    FamilyKind,
    PolyKind,
    PrefixTable,
    elementary_prefix,
    homogeneous_prefix,
)

#: Shift values whose Gamma value is known to be transcendental.
KNOWN_TRANSCENDENTAL_SHIFTS = frozenset(
    Fraction(p, q)
    for p, q in ((1, 6), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (5, 6))
)


@dataclass(frozen=True)
class Kappa:
    """A rational shift in (0, 1), flagged if it is on the known whitelist."""

    value: Fraction
    known_transcendental: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if not 0 < self.value < 1:
            raise InvalidKappaError(f"shift {self.value} outside (0, 1)")
        object.__setattr__(
            self, "known_transcendental", self.value in KNOWN_TRANSCENDENTAL_SHIFTS
        )


def family_of(kind: FamilyKind, kappa: Kappa | None) -> ArgumentFamily:
    """The argument family of `kind` at the shift `kappa` (None for plain)."""
    return ArgumentFamily(kind, None if kappa is None else kappa.value)


@dataclass(frozen=True)
class LatticeSpec:
    """A family selector plus a strictly increasing set of lattice indices.

    Plain indices are the points themselves (m >= 1); shifted indices m >= 0
    select the points m + kappa or -m + kappa.
    """

    family: FamilyKind
    indices: tuple[int, ...]
    kappa: Kappa | None = None
    argument_family: ArgumentFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(v) for v in self.indices))
        family = family_of(self.family, self.kappa)
        object.__setattr__(self, "argument_family", family)
        if not self.indices:
            raise SpecMismatchError("empty index set")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise SpecMismatchError(
                f"indices {self.indices} are not strictly increasing"
            )
        if self.indices[0] < family.min_index:
            raise SpecMismatchError(
                f"{self.family.value} lattice indices must be >= {family.min_index}"
            )

    def points(self) -> tuple[Fraction, ...]:
        """The actual lattice points: m, m + kappa, or -m + kappa."""
        return tuple(self.argument_family.point(m) for m in self.indices)


def rational_gamma_ratio(kappa: Kappa, m: int, family: FamilyKind) -> Fraction:
    """Gamma(m+kappa)/Gamma(kappa) or Gamma(-m+kappa)/Gamma(kappa), exactly.

    The scale of a shifted family at index m; the plain family takes no shift
    and is rejected.
    """
    return family_of(family, kappa).scale(m)


def _order_factor(n: int, ell: int) -> int:
    if n < 0 or not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got n={n}, ell={ell}")
    return factorial(n) // factorial(ell)


def _prefix_table(family: ArgumentFamily, m: int, degree: int) -> PrefixTable:
    """The family's table, e or h, over the prefixes of every index up to m."""
    build = (
        elementary_prefix
        if family.poly_kind is PolyKind.ELEMENTARY
        else homogeneous_prefix
    )
    return build(family, family.prefix_length(m), degree)


def _expansion(
    family: ArgumentFamily, table: PrefixTable, n: int, m: int, ells: Iterable[int]
) -> tuple[Fraction, ...]:
    """Coefficients of the given basis orders in the expansion at index m.

    Each is the family's scale at m, (m-1)! or the exact gamma ratio, times
    n!/ell! times the table entry of degree n - ell over the prefix of m.
    """
    length = family.prefix_length(m)
    scale = family.scale(m)
    return tuple(
        scale * _order_factor(n, ell) * table.value(length, n - ell) for ell in ells
    )


def coeff_plain(n: int, ell: int, m: int) -> Fraction:
    """Coefficient of the ell-th basis derivative in the expansion at m >= 1."""
    return coefficient(FamilyKind.PLAIN, n, ell, m)


def coeff_plus(n: int, ell: int, m: int, kappa: Kappa) -> Fraction:
    """Coefficient of the ell-th derivative at kappa in the expansion at m + kappa."""
    return coefficient(FamilyKind.PLUS_SHIFT, n, ell, m, kappa)


def coeff_minus(n: int, ell: int, m: int, kappa: Kappa) -> Fraction:
    """Coefficient of the ell-th derivative at kappa in the expansion at -m + kappa."""
    return coefficient(FamilyKind.MINUS_SHIFT, n, ell, m, kappa)


def coefficient(
    family: FamilyKind, n: int, ell: int, m: int, kappa: Kappa | None = None
) -> Fraction:
    """The family's coefficient of the ell-th basis derivative at index m,
    read off a table just large enough for it."""
    variables = family_of(family, kappa)
    _order_factor(n, ell)
    table = _prefix_table(variables, m, n - ell)
    return _expansion(variables, table, n, m, (ell,))[0]


def coefficient_table(
    family: FamilyKind, n: int, ms: Iterable[int], kappa: Kappa | None = None
) -> tuple[tuple[Fraction, ...], ...]:
    """Every coefficient of a sweep over the indices `ms`.

    Row i holds coefficient(family, n, ell, ms[i], kappa) for ell = 0..n.  One
    prefix table of degree n over the longest prefix serves every row, so a
    sweep builds a single table instead of one per coefficient.
    """
    variables = family_of(family, kappa)
    if n < 0:
        raise ValueError(f"derivative order {n} must be >= 0")
    ms = tuple(ms)
    if not ms:
        raise ValueError("no lattice indices")
    table = _prefix_table(variables, max(ms), n)
    return tuple(_expansion(variables, table, n, m, range(n + 1)) for m in ms)


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
    order: int
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
    family = spec.argument_family
    first = family.first_order
    if n < first:
        raise SpecMismatchError(
            f"{spec.family.value} system needs n >= {first} (no unknown columns)"
        )
    rows = coefficient_table(spec.family, n, spec.indices, spec.kappa)
    # Known basis orders move to the constant column: Gamma(1) = 1 makes the
    # plain ell = 0 terms constants.
    consts = tuple(row[0] for row in rows) if first else ()
    matrix = RationalMatrix.from_rows(row[first:] for row in rows)
    labels = tuple(
        f"Gamma^({ell})({family.basis_point})" for ell in range(first, n + 1)
    )
    return CoeffSystem(spec, n, matrix, consts, labels)
