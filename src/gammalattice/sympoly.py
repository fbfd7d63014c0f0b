"""Argument families, and prefix tables of elementary and complete homogeneous
symmetric polynomials over their variables.

Three lattices of Gamma arguments appear throughout the package:

    plain        points m,          m >= 1, basis 1,      x_s = 1/s
    plus shift   points m + kappa,  m >= 0, basis kappa,  x_s = 1/(s - 1 + kappa)
    minus shift  points -m + kappa, m >= 0, basis kappa,  x_s = 1/(s - kappa)

for s = 1, 2, ... and a rational shift kappa in (0, 1).  The plain lattice is
the plus-shift lattice at kappa = 1 counted from m = 1, so `ArgumentFamily`
derives every per-family fact from the basis point, the direction and the
first index.

A prefix table holds e_v (or h_v) of the first j variables for every
0 <= j <= max_len and 0 <= v <= max_deg, filled one variable at a time by

    e_v(x_1..x_j) = e_v(x_1..x_{j-1}) + x_j * e_{v-1}(x_1..x_{j-1})
    h_v(x_1..x_j) = h_v(x_1..x_{j-1}) + x_j * h_{v-1}(x_1..x_j)

seeded with the empty-prefix conventions e_0 = h_0 = 1 and e_v = h_v = 0 for
v > 0.  Note the second term of the h recurrence reads from the *current*
prefix, so each row is filled degree by degree.

All arithmetic is exact `fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import log2, prod

from .budget import charge, weight
from .errors import InvalidKappaError, MissingKappaError, SpecMismatchError


class FamilyKind(Enum):
    PLAIN = "plain"
    PLUS_SHIFT = "plus"
    MINUS_SHIFT = "minus"

    @property
    def shifted(self) -> bool:
        return self is not FamilyKind.PLAIN


class PolyKind(Enum):
    ELEMENTARY = "elementary"
    HOMOGENEOUS = "homogeneous"

    def table(self, family: ArgumentFamily, max_len: int, max_deg: int) -> PrefixTable:
        """This kind's prefix table.  The builder is looked up by its module
        name at call time, so a wrapper on that name sees every table."""
        build = elementary_prefix if self is PolyKind.ELEMENTARY else homogeneous_prefix
        return build(family, max_len, max_deg)

    def entry_bits(self, family: ArgumentFamily, max_len: int, max_deg: int) -> int:
        """A bound on the bits of an entry of this kind's table (max_len >= 1)
        times the family scale, as a coefficient reads it: an entry's
        denominator takes each variable's, of at most bitlen(max_len * q) bits
        for the basis denominator q, once (e) or max_deg times (h), and the
        scale once more."""
        per_variable = (max_len * family.basis_point.denominator).bit_length()
        repeats = max_deg if self is PolyKind.HOMOGENEOUS else 1
        return (repeats + 1) * max_len * per_variable

    def table_work(self, family: ArgumentFamily, max_len: int, max_deg: int) -> int:
        """Estimated units of filling this kind's table: a cell is two
        `Fraction` operations, 40 units of fixed cost, on entries of about half
        the last row's b bits.  The first L denominators average log2(L q) -
        1.44 bits, for the basis denominator q, and their lcm grows about
        log2(q) + 1.6 bits a variable.  An e_v entry's denominator divides
        their product and the lcm's v-th power, an h_v one's either's v-th."""
        q = family.basis_point.denominator
        lcm_bits = log2(q) + 1.6
        mean_bits = max(log2(max_len * q) - 1.44, 1) if max_len else 0
        if self is PolyKind.ELEMENTARY:
            bits = min(max_deg * lcm_bits, mean_bits) * max_len
        else:
            bits = max_deg * max_len * min(lcm_bits, mean_bits)
        return (max_len + 1) * (max_deg + 1) * (40 + weight(int(bits) // 2))


@dataclass(frozen=True)
class ArgumentFamily:
    """One of the three lattice families, with its shift when applicable.

    The one place that knows how the families differ, and the one value every
    entry point of the package takes to name a lattice.  Building one checks
    the shift: the plain family takes none, the shifted ones need a `Fraction`
    in (0, 1).
    """

    kind: FamilyKind
    kappa: Fraction | None = None

    def __post_init__(self):
        if self.kind.shifted:
            if self.kappa is None:
                raise MissingKappaError(
                    f"{self.kind.value}-shift family requires a shift value"
                )
            if not isinstance(self.kappa, Fraction):
                raise InvalidKappaError(f"shift {self.kappa!r} is not a Fraction")
            if not 0 < self.kappa < 1:
                raise InvalidKappaError(f"shift {self.kappa} outside (0, 1)")
        elif self.kappa is not None:
            raise InvalidKappaError("plain family takes no shift value")

    @staticmethod
    def require(family: object) -> None:
        """The check an entry point makes on its family argument: a bare
        FamilyKind, or any other value, is a SpecMismatchError."""
        if not isinstance(family, ArgumentFamily):
            raise SpecMismatchError(f"family must be an ArgumentFamily, got {family!r}")

    @property
    def basis_point(self) -> Fraction:
        """The point whose derivatives every other point expands over."""
        return self.kappa if self.kind.shifted else Fraction(1)

    @property
    def sign(self) -> int:
        """+1 when the points run up from the basis point, -1 when down."""
        return -1 if self.kind is FamilyKind.MINUS_SHIFT else 1

    @property
    def min_index(self) -> int:
        """The first lattice index, and the lowest unknown basis order: the
        plain lattice starts at 1, and Gamma(1) = 1 is known."""
        return 0 if self.kind.shifted else 1

    @property
    def poly_kind(self) -> PolyKind:
        """e for points above the basis point, h for points below it."""
        return PolyKind.ELEMENTARY if self.sign > 0 else PolyKind.HOMOGENEOUS

    def x(self, s: int) -> Fraction:
        """The s-th variable of the family, s >= 1.  Always positive."""
        if s < 1:
            raise ValueError(f"variable index {s} must be >= 1")
        p, q = self.basis_point.numerator, self.basis_point.denominator
        if self.sign > 0:
            return Fraction(q, (s - 1) * q + p)
        return Fraction(q, s * q - p)

    def prefix_length(self, m: int) -> int:
        """Number of variables behind the expansion at lattice index m."""
        if m < self.min_index:
            raise ValueError(
                f"{self.kind.value} lattice index {m} must be >= {self.min_index}"
            )
        return m - self.min_index

    def point(self, m: int) -> Fraction:
        """The lattice point of index m: m, m + kappa or -m + kappa."""
        return self.basis_point + self.sign * self.prefix_length(m)

    def scale(self, m: int) -> Fraction:
        """Gamma(point(m)) / Gamma(basis_point), exactly, by Gamma(z+1) = z Gamma(z):
        prod_{u<j} (u + b) going up, 1 / prod_{u=1}^{j} (b - u) going down, for
        the prefix length j.  (m-1)! on the plain lattice; sign (-1)^m below."""
        j = self.prefix_length(m)
        p, q = self.basis_point.numerator, self.basis_point.denominator
        if self.sign > 0:
            return Fraction(prod(u * q + p for u in range(j)), q**j)
        return Fraction(q**j, prod(p - u * q for u in range(1, j + 1)))


@dataclass(frozen=True)
class PrefixTable:
    """Dense table of symmetric polynomial values indexed (prefix length, degree).

    Row 0 is the empty prefix, materialized explicitly: value(0, 0) = 1 and
    value(0, v) = 0 for v > 0.
    """

    max_len: int
    max_deg: int
    values: tuple[tuple[Fraction, ...], ...]

    def value(self, length: int, degree: int) -> Fraction:
        if not 0 <= length <= self.max_len:
            raise IndexError(f"prefix length {length} outside [0, {self.max_len}]")
        if not 0 <= degree <= self.max_deg:
            raise IndexError(f"degree {degree} outside [0, {self.max_deg}]")
        return self.values[length][degree]


def _fill(
    family: ArgumentFamily, max_len: int, max_deg: int, kind: PolyKind
) -> PrefixTable:
    if max_len < 0:
        raise ValueError(f"max_len {max_len} must be >= 0")
    if max_deg < 0:
        raise ValueError(f"max_deg {max_deg} must be >= 0")
    charge(
        kind.table_work(family, max_len, max_deg),
        f"the {kind.value} table of length {max_len} and degree {max_deg}",
    )
    homogeneous = kind is PolyKind.HOMOGENEOUS
    rows = [(Fraction(1),) + (Fraction(0),) * max_deg]
    for j in range(1, max_len + 1):
        xj = family.x(j)
        prev = rows[j - 1]
        row = [Fraction(1)]
        # e_{v-1} comes from the previous prefix, h_{v-1} from the entry of
        # the length-j prefix just appended.
        source = row if homogeneous else prev
        for v in range(1, max_deg + 1):
            row.append(prev[v] + xj * source[v - 1])
        rows.append(tuple(row))
    return PrefixTable(max_len, max_deg, tuple(rows))


def elementary_prefix(family: ArgumentFamily, max_len: int, max_deg: int) -> PrefixTable:
    """Table of elementary symmetric polynomials e_v over family prefixes."""
    return _fill(family, max_len, max_deg, PolyKind.ELEMENTARY)


def homogeneous_prefix(family: ArgumentFamily, max_len: int, max_deg: int) -> PrefixTable:
    """Table of complete homogeneous symmetric polynomials h_v over prefixes."""
    return _fill(family, max_len, max_deg, PolyKind.HOMOGENEOUS)
