"""Rational coefficients linking Gamma derivatives at lattice points to a basis.

For the plain lattice m = 1, 2, ... the n-th derivative at m expands over the
derivatives at 1:

    coeff_plain(n, ell, m) = (m-1)! * (n!/ell!) * e_{n-ell}(1, 1/2, ..., 1/(m-1))

For shifted lattice points m + kappa (resp. -m + kappa) the basis point is
kappa, the factorial is replaced by the exact rational ratio
Gamma(m+kappa)/Gamma(kappa) (resp. Gamma(-m+kappa)/Gamma(kappa)), and the
symmetric polynomials run over the plus-shift (resp. minus-shift) variable
family, elementary for the plus side and complete homogeneous for the minus
side.  One prefix table over the longest prefix holds every coefficient of a
sweep over indices; `coefficient_table` reads a sweep off such a table, and
stacking its rows yields the linear systems assembled by `build_system`.

Everything here is exact rational arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from typing import Iterable

from .errors import InvalidKappaError, SpecMismatchError
from .linalg import RationalMatrix
from .sympoly import (
    ArgumentFamily,
    FamilyKind,
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


@dataclass(frozen=True)
class LatticeSpec:
    """A family selector plus a strictly increasing set of lattice indices.

    Plain indices are the points themselves (m >= 1); shifted indices m >= 0
    select the points m + kappa or -m + kappa.
    """

    family: FamilyKind
    indices: tuple[int, ...]
    kappa: Kappa | None = None

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(v) for v in self.indices))
        if not self.indices:
            raise SpecMismatchError("empty index set")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise SpecMismatchError(
                f"indices {self.indices} are not strictly increasing"
            )
        if self.family is FamilyKind.PLAIN:
            if self.indices[0] < 1:
                raise SpecMismatchError("plain lattice indices must be >= 1")
            if self.kappa is not None:
                raise SpecMismatchError("plain lattice takes no shift")
        else:
            if self.indices[0] < 0:
                raise SpecMismatchError("shifted lattice indices must be >= 0")
            if self.kappa is None:
                raise SpecMismatchError(
                    f"{self.family.value}-shift lattice requires a shift"
                )

    def argument_family(self) -> ArgumentFamily:
        if self.family is FamilyKind.PLAIN:
            return ArgumentFamily(FamilyKind.PLAIN)
        return ArgumentFamily(self.family, self.kappa.value)

    def points(self) -> tuple[Fraction, ...]:
        """The actual lattice points: m, m + kappa, or -m + kappa."""
        if self.family is FamilyKind.PLAIN:
            return tuple(Fraction(m) for m in self.indices)
        if self.family is FamilyKind.PLUS_SHIFT:
            return tuple(m + self.kappa.value for m in self.indices)
        return tuple(-m + self.kappa.value for m in self.indices)


def rational_gamma_ratio(kappa: Kappa, m: int, family: FamilyKind) -> Fraction:
    """Gamma(m+kappa)/Gamma(kappa) or Gamma(-m+kappa)/Gamma(kappa), exactly.

    Both follow from Gamma(z+1) = z Gamma(z): the plus side is the rising
    product prod_{u=0}^{m-1} (u + kappa), the minus side the reciprocal of the
    signed product prod_{u=1}^{m} (-u + kappa).  Empty products are 1.  The
    sign of the minus side, (-1)^m, comes out of the literal product.
    """
    if m < 0:
        raise ValueError(f"lattice index {m} must be >= 0")
    k = kappa.value
    if family is FamilyKind.PLUS_SHIFT:
        return prod((u + k for u in range(m)), start=Fraction(1))
    if family is FamilyKind.MINUS_SHIFT:
        return 1 / prod((k - u for u in range(1, m + 1)), start=Fraction(1))
    raise SpecMismatchError("gamma ratio is defined for shifted families only")


def _order_factor(n: int, ell: int) -> int:
    if n < 0 or not 0 <= ell <= n:
        raise ValueError(f"need 0 <= ell <= n, got n={n}, ell={ell}")
    return factorial(n) // factorial(ell)


def _check_family(family: FamilyKind, kappa: Kappa | None) -> None:
    if family is FamilyKind.PLAIN:
        if kappa is not None:
            raise SpecMismatchError("plain family takes no shift")
    elif kappa is None:
        raise SpecMismatchError(f"{family.value}-shift family requires a shift")


def _check_index(family: FamilyKind, m: int) -> None:
    low = 1 if family is FamilyKind.PLAIN else 0
    if m < low:
        raise ValueError(f"{family.value} lattice index {m} must be >= {low}")


def _prefix_length(family: FamilyKind, m: int) -> int:
    """Number of variables behind the expansion at index m."""
    return m - 1 if family is FamilyKind.PLAIN else m


def _prefix_table(
    family: FamilyKind, kappa: Kappa | None, m: int, degree: int
) -> PrefixTable:
    """The family's table over the prefixes of every index up to m: e over 1/s
    for the plain lattice, e (plus) or h (minus) over the shifted variables."""
    length = _prefix_length(family, m)
    if family is FamilyKind.PLAIN:
        return elementary_prefix(ArgumentFamily(FamilyKind.PLAIN), length, degree)
    variables = ArgumentFamily(family, kappa.value)
    if family is FamilyKind.PLUS_SHIFT:
        return elementary_prefix(variables, length, degree)
    return homogeneous_prefix(variables, length, degree)


def _expansion(
    family: FamilyKind,
    kappa: Kappa | None,
    table: PrefixTable,
    n: int,
    m: int,
    ells: Iterable[int],
) -> tuple[Fraction, ...]:
    """Coefficients of the given basis orders in the expansion at index m.

    Each is the scale at m, (m-1)! or the exact gamma ratio, times n!/ell!
    times the table entry of degree n - ell over the prefix of m.
    """
    length = _prefix_length(family, m)
    if family is FamilyKind.PLAIN:
        scale = factorial(m - 1)
    else:
        scale = rational_gamma_ratio(kappa, m, family)
    return tuple(
        scale * _order_factor(n, ell) * table.value(length, n - ell) for ell in ells
    )


def _cell(
    family: FamilyKind, n: int, ell: int, m: int, kappa: Kappa | None
) -> Fraction:
    """One coefficient from a table just large enough for it."""
    _order_factor(n, ell)
    _check_index(family, m)
    table = _prefix_table(family, kappa, m, n - ell)
    return _expansion(family, kappa, table, n, m, (ell,))[0]


def coeff_plain(n: int, ell: int, m: int) -> Fraction:
    """Coefficient of the ell-th basis derivative in the expansion at m >= 1."""
    return _cell(FamilyKind.PLAIN, n, ell, m, None)


def coeff_plus(n: int, ell: int, m: int, kappa: Kappa) -> Fraction:
    """Coefficient of the ell-th derivative at kappa in the expansion at m + kappa."""
    return _cell(FamilyKind.PLUS_SHIFT, n, ell, m, kappa)


def coeff_minus(n: int, ell: int, m: int, kappa: Kappa) -> Fraction:
    """Coefficient of the ell-th derivative at kappa in the expansion at -m + kappa."""
    return _cell(FamilyKind.MINUS_SHIFT, n, ell, m, kappa)


def coefficient(
    family: FamilyKind, n: int, ell: int, m: int, kappa: Kappa | None = None
) -> Fraction:
    """The family's coefficient of the ell-th basis derivative at index m."""
    _check_family(family, kappa)
    return _cell(family, n, ell, m, kappa)


def coefficient_table(
    family: FamilyKind, n: int, ms: Iterable[int], kappa: Kappa | None = None
) -> tuple[tuple[Fraction, ...], ...]:
    """Every coefficient of a sweep over the indices `ms`.

    Row i holds coefficient(family, n, ell, ms[i], kappa) for ell = 0..n.  One
    prefix table of degree n over the longest prefix serves every row, so a
    sweep builds a single table instead of one per coefficient.
    """
    _check_family(family, kappa)
    if n < 0:
        raise ValueError(f"derivative order {n} must be >= 0")
    ms = tuple(ms)
    if not ms:
        raise ValueError("no lattice indices")
    for m in ms:
        _check_index(family, m)
    table = _prefix_table(family, kappa, max(ms), n)
    return tuple(_expansion(family, kappa, table, n, m, range(n + 1)) for m in ms)


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
    if spec.family is FamilyKind.PLAIN and n < 1:
        raise SpecMismatchError("plain system needs n >= 1 (no unknown columns)")
    rows = coefficient_table(spec.family, n, spec.indices, spec.kappa)
    if spec.family is FamilyKind.PLAIN:
        # Gamma(1) = 1, so the ell = 0 terms are known constants.
        first, basis, consts = 1, 1, tuple(row[0] for row in rows)
    else:
        first, basis, consts = 0, spec.kappa.value, ()
    matrix = RationalMatrix.from_rows(row[first:] for row in rows)
    labels = tuple(f"Gamma^({ell})({basis})" for ell in range(first, n + 1))
    return CoeffSystem(spec, n, matrix, consts, labels)
