"""Rational coefficients linking Gamma derivatives at lattice points to a basis.

The n-th derivative at lattice index m expands over the derivatives at the
family's basis point; the coefficient of the ell-th one is

    [Gamma(point)/Gamma(basis)] * (n!/ell!) * E_{n-ell}(x_1, ..., x_j),

for j the prefix length of m, the ratio (m-1)! on the plain lattice, and
E = e (plain, plus) or h (minus).  The per-family facts live on
`sympoly.ArgumentFamily`, the family argument of every entry point here, and
`_ratios` builds the Gamma ratios from them; this module never asks which
family it has.
Every row comes off one guarded sweep (`_sweep_rows`): one prefix table over
the longest prefix, the Gamma ratio walk charged and the rows held to the cell
cap, each row read off the table by the rule above (`_row`).  `coefficient_table`
returns them, `build_system` stacks them into a system (`_system`), and
`gammanum` reads every order of a `verify` sweep off one sweep per family.
Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import factorial, lgamma, log, log2
from typing import Iterable, NamedTuple

from .budget import charge, hold
from .errors import SpecMismatchError
from .linalg import RationalMatrix, increasing_indices
from .sympoly import ArgumentFamily, PrefixTable

#: Shift values whose Gamma value is known to be transcendental.
KNOWN_TRANSCENDENTAL_SHIFTS = frozenset(
    Fraction(p, q)
    for p, q in ((1, 6), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (5, 6))
)


class _Spec(NamedTuple):
    family: ArgumentFamily
    indices: tuple[int, ...]


class LatticeSpec(_Spec):
    """A lattice family plus a strictly increasing set of its indices.

    Plain indices are the points themselves (m >= 1); shifted indices m >= 0
    select the points m + kappa or -m + kappa.  Building one checks both, also
    through `_make` and `_replace`, and keeps the indices as a tuple of ints.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, family: ArgumentFamily, indices: Iterable[int]):
        ArgumentFamily.require(family)
        indices = increasing_indices(indices)
        if indices[0] < family.min_index:
            raise SpecMismatchError(
                f"{family.kind.value} lattice indices must be >= {family.min_index}"
            )
        return super().__new__(cls, family, indices)

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
    serves them all, (m-1)! on the plain lattice, sign (-1)^m below kappa;
    `_sweep_rows` charges it (`_ratio_work`) before it runs."""
    p, q = family.basis_point.numerator, family.basis_point.denominator
    up = family.sign > 0
    ratios, j, product, power = {}, 0, 1, 1
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
    Gamma(point)/Gamma(basis) and of q^j twice, for the basis denominator q and
    prefix length j.  A unit took 0.30-0.42 us (plain up to index 100,000,
    plus-5/7 and minus-1/3 at 50,000).

    The ratio's magnitude is Gamma(j + c)/Gamma(c), for c the basis point
    going up and 1 minus it going down (by reflection).  Its log is priced
    from `math.lgamma` at j + c >= 1 and c + 1 with log c read off c's
    integers, so no shift near 0 or 1 is rounded onto a pole; j = 0 walks
    nothing."""
    j, q = family.prefix_length(m), family.basis_point.denominator
    if not j:
        return 0
    c = family.basis_point if family.sign > 0 else 1 - family.basis_point
    log_gamma_c = lgamma(c + 1) - log(c.numerator) + log(c.denominator)
    bits = abs(lgamma(j + c) - log_gamma_c) / log(2)
    return j * (1 + int(bits + 2 * j * log2(q)) // 16384)


def _sweep_rows(family: ArgumentFamily, n: int, ms: Iterable[int]) -> tuple:
    """The indices `ms` of a sweep to order n, and `rows(k)`, which yields the
    rows of order k <= n (`_row`) at each of them in turn.  The family, the
    order and the indices, each read by `operator.index` (a range is sized by
    its ends), are checked; one table of degree n over the longest prefix is
    built; both walks of the top ratio are charged (`_ratio_work`); and the
    order-n rows, weighed by the top row's digits, are held to the cell cap
    (`budget.hold`) before any other row or ratio is built."""
    ArgumentFamily.require(family)
    if operator.index(n) < 0:
        raise ValueError(f"derivative order {n} must be >= 0")
    ms = ms if isinstance(ms, range) else tuple(map(operator.index, ms))
    if not ms:
        raise ValueError("no lattice indices")
    low, top = sorted((ms[0], ms[-1])) if isinstance(ms, range) else (min(ms), max(ms))
    family.prefix_length(low)
    table = family.poly_kind.table(family, family.prefix_length(top), n)
    # the top index's ratio is walked twice: for the top row, then the rows
    charge(2 * _ratio_work(family, top), f"the Gamma ratio at index {top}")
    last = _row(table, n, family.prefix_length(top), _ratios(family, (top,))[top])
    bits = max(x.numerator.bit_length() + x.denominator.bit_length() for x in last)
    hold(len(ms) * (n + 1), bits * 3 // 10, "coefficients")
    ratios = _ratios(family, ms)
    points = [(family.prefix_length(m), ratios[m]) for m in ms]
    return ms, lambda k: (_row(table, k, length, ratio) for length, ratio in points)


def coefficient_table(
    family: ArgumentFamily, n: int, ms: Iterable[int]
) -> tuple[tuple[Fraction, ...], ...]:
    """Every coefficient of a sweep over the indices `ms`: row i holds those of
    ell = 0..n at index ms[i], read off the sweep's one guarded table
    (`_sweep_rows`) by the rule of `_row`."""
    _, rows = _sweep_rows(family, n, ms)
    return tuple(rows(n))


class CoeffSystem(NamedTuple):
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
    family, first = spec.family, spec.family.min_index
    if n < first:
        raise SpecMismatchError(
            f"{family.kind.value} system needs n >= {first} (no unknown columns)"
        )
    return _system(spec, n, coefficient_table(family, n, spec.indices))


def _system(spec: LatticeSpec, n: int, rows) -> CoeffSystem:
    """The system of `spec` at order n over its coefficient rows, one per index.
    Known basis orders move to the constant column: Gamma(1) = 1 makes the
    plain ell = 0 terms constants."""
    family, first = spec.family, spec.family.min_index
    consts = tuple(row[0] for row in rows) if first else ()
    matrix = RationalMatrix.from_rows(row[first:] for row in rows)
    labels = tuple(
        f"Gamma^({ell})({family.basis_point})" for ell in range(first, n + 1)
    )
    return CoeffSystem(spec, matrix, consts, labels)
