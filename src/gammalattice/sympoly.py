"""Prefix tables of elementary and complete homogeneous symmetric polynomials.

Three families of positive rational variables appear throughout the package:

    plain        x_s = 1/s
    plus shift   x_s = 1/(s - 1 + kappa)
    minus shift  x_s = 1/(s - kappa)

for s = 1, 2, ... and a rational shift kappa in (0, 1).  A prefix table holds
e_v (or h_v) of the first j variables for every 0 <= j <= max_len and
0 <= v <= max_deg, filled one variable at a time by

    e_v(x_1..x_j) = e_v(x_1..x_{j-1}) + x_j * e_{v-1}(x_1..x_{j-1})
    h_v(x_1..x_j) = h_v(x_1..x_{j-1}) + x_j * h_{v-1}(x_1..x_j)

seeded with the empty-prefix conventions e_0 = h_0 = 1 and e_v = h_v = 0 for
v > 0.  Note the second term of the h recurrence reads from the *current*
prefix, so each row is filled degree by degree.

All arithmetic is exact `fractions.Fraction`.  The brute-force enumerations
are deliberately naive; they exist only as independent oracles against which
the test suite checks the recurrence tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, prod
from typing import Sequence

from .errors import GuardExceededError, InvalidKappaError, MissingKappaError

# Subset enumeration is exponential in the list length; multiset enumeration
# is capped by the number of monomials instead.
SUBSET_GUARD_LEN = 20
MONOMIAL_GUARD = 10**6


class FamilyKind(Enum):
    PLAIN = "plain"
    PLUS_SHIFT = "plus"
    MINUS_SHIFT = "minus"

    @property
    def shifted(self) -> bool:
        return self is not FamilyKind.PLAIN


@dataclass(frozen=True)
class ArgumentFamily:
    """One of the three variable families, with its shift when applicable."""

    kind: FamilyKind
    kappa: Fraction | None = None

    def __post_init__(self):
        if self.kind.shifted:
            if self.kappa is None:
                raise MissingKappaError(
                    f"{self.kind.value}-shift family requires a shift value"
                )
            if not 0 < self.kappa < 1:
                raise InvalidKappaError(f"shift {self.kappa} outside (0, 1)")
        elif self.kappa is not None:
            raise InvalidKappaError("plain family takes no shift value")

    def x(self, s: int) -> Fraction:
        """The s-th variable of the family, s >= 1.  Always positive."""
        if s < 1:
            raise ValueError(f"variable index {s} must be >= 1")
        if self.kind is FamilyKind.PLAIN:
            return Fraction(1, s)
        if self.kind is FamilyKind.PLUS_SHIFT:
            return 1 / (s - 1 + self.kappa)
        return 1 / (s - self.kappa)

    def prefix(self, length: int) -> tuple[Fraction, ...]:
        """The first `length` variables, x_1 .. x_length."""
        return tuple(self.x(s) for s in range(1, length + 1))


@dataclass(frozen=True)
class PrefixTable:
    """Dense table of symmetric polynomial values indexed (prefix length, degree).

    Row 0 is the empty prefix, materialized explicitly: value(0, 0) = 1 and
    value(0, v) = 0 for v > 0.
    """

    family: ArgumentFamily
    max_len: int
    max_deg: int
    values: tuple[tuple[Fraction, ...], ...]

    def value(self, length: int, degree: int) -> Fraction:
        if not 0 <= length <= self.max_len:
            raise IndexError(f"prefix length {length} outside [0, {self.max_len}]")
        if not 0 <= degree <= self.max_deg:
            raise IndexError(f"degree {degree} outside [0, {self.max_deg}]")
        return self.values[length][degree]


def _check_table_bounds(max_len: int, max_deg: int) -> None:
    if max_len < 0:
        raise ValueError(f"max_len {max_len} must be >= 0")
    if max_deg < 0:
        raise ValueError(f"max_deg {max_deg} must be >= 0")


def elementary_prefix(family: ArgumentFamily, max_len: int, max_deg: int) -> PrefixTable:
    """Table of elementary symmetric polynomials e_v over family prefixes."""
    _check_table_bounds(max_len, max_deg)
    rows = [(Fraction(1),) + (Fraction(0),) * max_deg]
    for j in range(1, max_len + 1):
        xj = family.x(j)
        prev = rows[j - 1]
        row = [Fraction(1)]
        for v in range(1, max_deg + 1):
            row.append(prev[v] + xj * prev[v - 1])
        rows.append(tuple(row))
    return PrefixTable(family, max_len, max_deg, tuple(rows))


def homogeneous_prefix(family: ArgumentFamily, max_len: int, max_deg: int) -> PrefixTable:
    """Table of complete homogeneous symmetric polynomials h_v over prefixes."""
    _check_table_bounds(max_len, max_deg)
    rows = [(Fraction(1),) + (Fraction(0),) * max_deg]
    for j in range(1, max_len + 1):
        xj = family.x(j)
        prev = rows[j - 1]
        row = [Fraction(1)]
        for v in range(1, max_deg + 1):
            # h_{v-1} of the length-j prefix is the entry just appended.
            row.append(prev[v] + xj * row[v - 1])
        rows.append(tuple(row))
    return PrefixTable(family, max_len, max_deg, tuple(rows))


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
