"""Exact dense linear algebra over the rationals, plus determinant certificates.

The structured matrices here (`prefix_matrix`) collect symmetric-polynomial
prefix values: row r lists e_0, e_1, ... (or h_0, h_1, ...) of the first m'_r
family variables for a strictly increasing index set m'_1 < ... < m'_k.  Their
determinants are shown positive by an explicit chain:

    1. subtract consecutive rows (determinant preserved),
    2. expand along the resulting (1, 0, ..., 0) first column,
    3. factor the remaining difference minor D as banded * prefix, where the
       banded factor carries x_j on disjoint column bands m'_r < j <= m'_{r+1},
    4. expand det(D) with the Cauchy-Binet formula.  A column subset survives
       only if it picks one column from each band, so the expansion is a walk
       over the band product: depth r picks a column of band r, and the rows
       of the prefix factor on the path share one Bareiss elimination.

Steps 1 and 2 are not run: `difference_factorization` builds the two factors
of D directly, the banded one as its bands, off the table that holds the
matrix itself, and tests/_oracles.py checks their product against the
row-differenced prefix matrix.

`cauchy_binet` returns the full expansion, i.e. every surviving subset with
both of its sub-determinants, so positivity can be asserted term by term
rather than only for the total; `certify_prefix_matrix` runs the whole chain
and checks the expansion against the determinant of the matrix itself.

Every elimination runs fraction-free on integer rows, each scaled once by the
lcm of its denominators, and is charged its estimated work first.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm, prod
from typing import Iterable, Sequence

from .budget import charge, hold, weight
from .errors import (
    DimensionMismatchError,
    NonIncreasingIndicesError,
    NotSquareError,
    SingularMatrixError,
)
from .sympoly import ArgumentFamily, PolyKind, PrefixTable


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of exact rationals, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{len(self.entries)} entries for a {self.rows}x{self.cols} matrix"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        data = [list(r) for r in rows]
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        entries = tuple(
            x if type(x) is Fraction else Fraction(x) for row in data for x in row
        )
        return cls(len(data), cols, entries)

    def at(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[Fraction, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(r)) for r in range(self.rows)]


def _integer_row(row: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The row's scale, the lcm of its denominators, and the row times it."""
    row = tuple(row)
    mult = lcm(*(x.denominator for x in row))
    return mult, [x.numerator * (mult // x.denominator) for x in row]


def _elimination_work(n: int, bits: int, inverse: bool) -> int:
    """Estimated units of eliminating n x n integer rows of up to `bits` bits:
    step k updates (n-1-k)^2 entries for a determinant, at 8 fixed units each,
    or (n-1)(2n-1-k) augmented ones for an inverse, at 4, and its entries are
    (k+1)-minors, measured about half their (k+1) * bits bound."""
    work = 0
    for k in range(n):
        if inverse:
            work += (n - 1) * (2 * n - 1 - k) * (4 + weight((k + 1) * bits // 2))
        else:
            work += (n - 1 - k) ** 2 * (8 + weight((k + 1) * bits // 2))
    return work


def _eliminate(rows: list[list[int]], inverse: bool) -> tuple[int, int]:
    """Charge, then run, the elimination of the leading square of `rows`."""
    n = len(rows)
    bits = max(abs(x).bit_length() for row in rows for x in row[:n])
    what = f"the {'inverse' if inverse else 'determinant'} of a {n}x{n} matrix"
    charge(_elimination_work(n, bits, inverse), f"{what} of {bits}-bit rows")
    return _fraction_free(rows, inverse)


def _fraction_free(rows: list[list[int]], inverse: bool) -> tuple[int, int]:
    """Eliminate in place below each pivot (Bareiss), or around it for an
    inverse (Gauss-Jordan): the swaps' sign and the last pivot, 0 if singular."""
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        swap = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if swap is None:
            return sign, 0
        if swap != k:
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        rowk = rows[k]
        pivot = rowk[k]
        for i in range(0 if inverse else k + 1, n):
            if i == k:
                continue
            rowi = rows[i]
            aik = rowi[k]
            for j in range(k + 1, len(rowi)):
                rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    return sign, prev


def det_exact(m: RationalMatrix) -> Fraction:
    """Exact determinant via Bareiss fraction-free elimination.

    Rows are scaled to integers first (the scale divides back out at the end),
    so every intermediate quotient in the elimination is an exact integer.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    scaled = [_integer_row(m.row(r)) for r in range(m.rows)]
    sign, last = _eliminate([row for _, row in scaled], inverse=False)
    return Fraction(sign * last, prod(mult for mult, _ in scaled))


def inverse_exact(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse by fraction-free Gauss-Jordan; M @ inverse_exact(M) == I.

    With the rows scaled to integers, M = S^-1 A for the diagonal S of row
    scales, so M^-1 = A^-1 S.  Eliminating [A | S] fraction-free above and
    below every pivot ends at [d I | d A^-1 S], where d is the last pivot
    (det A up to the sign of the row swaps); one division by d gives M^-1.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"inverse of a {m.rows}x{m.cols} matrix")
    n = m.rows
    aug: list[list[int]] = []
    for r in range(n):
        mult, row = _integer_row(m.row(r))
        aug.append(row + [mult if c == r else 0 for c in range(n)])
    last = _eliminate(aug, inverse=True)[1]
    if last == 0:
        raise SingularMatrixError("matrix is singular")
    entries = tuple(Fraction(x, last) for row in aug for x in row[n:])
    return RationalMatrix(n, n, entries)


def increasing_indices(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple of ints, each read by `operator.index` (a float or a
    `Fraction` is refused, not truncated), checked nonempty and strictly increasing."""
    values = tuple(values)
    try:
        indices = tuple(map(operator.index, values))
    except TypeError:
        raise NonIncreasingIndicesError(f"indices {values} are not all integers") from None
    if not indices:
        raise NonIncreasingIndicesError("empty index set")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise NonIncreasingIndicesError(
            f"indices {indices} are not strictly increasing"
        )
    return indices


def _prefix_table(
    m_primes: Sequence[int], family: ArgumentFamily, kind: PolyKind
) -> tuple[tuple[int, ...], PrefixTable]:
    """The checked indices and the table their prefix matrix and its factors
    read: prefix lengths up to m'_k, degrees up to k-1."""
    mp_ = increasing_indices(m_primes)
    if mp_[0] < 0:
        raise NonIncreasingIndicesError(f"index {mp_[0]} is negative")
    return mp_, kind.table(family, mp_[-1], len(mp_) - 1)


def prefix_matrix(
    m_primes: Sequence[int], family: ArgumentFamily, kind: PolyKind
) -> RationalMatrix:
    """k x k matrix with entry (r, c) = e_c or h_c of the first m'_r family
    variables, for the k indices m'_1 < ... < m'_k."""
    mp_, table = _prefix_table(m_primes, family, kind)
    return RationalMatrix.from_rows(table.values[j] for j in mp_)


@dataclass(frozen=True)
class BandedFactor:
    """A p x q matrix as its p bands, band r the nonzero entries of row r as
    (0-based column, value) pairs.  The bands are disjoint, each wholly left
    of the next, so the columns read band after band strictly increase."""

    cols: int
    bands: tuple[tuple[tuple[int, Fraction], ...], ...]

    @property
    def rows(self) -> int:
        return len(self.bands)


def _chain(
    m_primes: Sequence[int], family: ArgumentFamily, kind: PolyKind
) -> tuple[RationalMatrix, BandedFactor, RationalMatrix]:
    """The prefix matrix and the two factors of its difference minor, all read
    off one table."""
    mp_, table = _prefix_table(m_primes, family, kind)
    if len(mp_) < 2:
        raise ValueError("a certificate needs at least two indices")
    lag = 1 if kind is PolyKind.ELEMENTARY else 0
    bands = tuple(
        tuple((j - 1, family.x(j)) for j in range(lo + 1, hi + 1))
        for lo, hi in zip(mp_, mp_[1:])
    )
    lengths = range(1 - lag, mp_[-1] + 1 - lag)
    prefix = RationalMatrix.from_rows(table.values[j][: len(bands)] for j in lengths)
    parent = RationalMatrix.from_rows(table.values[j] for j in mp_)
    return parent, BandedFactor(mp_[-1], bands), prefix


def difference_factorization(
    m_primes: Sequence[int], family: ArgumentFamily, kind: PolyKind
) -> tuple[BandedFactor, RationalMatrix]:
    """Factor the difference minor of the order-k prefix matrix as banded @ prefix.

    For m'_1 < ... < m'_k, k >= 2, the banded factor is (k-1) x m'_k with x_j
    in row r exactly on the band m'_r < j <= m'_{r+1}; the prefix factor is
    m'_k x (k-1) with entry (j, c) equal to e_c of the first j-1 variables
    (elementary) or h_c of the first j variables (homogeneous).  Their product
    equals the difference minor of `prefix_matrix` (rows differenced, first row
    and column dropped) entry by entry; tests/_oracles.py checks that step.
    """
    return _chain(m_primes, family, kind)[1:]


@dataclass(frozen=True)
class CauchyBinetTerm:
    """One surviving subset: 1-based column choices and both sub-determinants."""

    subset: tuple[int, ...]
    det_left: Fraction
    det_right: Fraction

    @property
    def product(self) -> Fraction:
        return self.det_left * self.det_right


@dataclass(frozen=True)
class CauchyBinetCertificate:
    """The expansion: its total, the surviving terms in lexicographic order of
    their subsets, the number of column subsets that miss a band, and how many
    terms took the generic determinant because a pivot on their path was 0."""

    total_det: Fraction
    surviving: tuple[CauchyBinetTerm, ...]
    pruned_count: int
    fallback_count: int = 0


def _walk_estimates(bands, scaled: dict[int, tuple[int, list[int]]]) -> tuple[int, int]:
    """Estimated units of the band walk, and digits of one kept term.  At
    depth d a node's i-th reduction takes p-1-i products, one fixed unit each,
    of integers as long as the rows on its path (Bareiss entries are minors; a
    band counts at its longest entry).  A leaf adds 30 for its term and t /
    10^4 for the running total, whose t-bit denominator divides the left and
    row-scale denominators'.  A term takes one entry, row and row scale of
    each band, and prints them twice, the second time in its product: 0.6
    digits per bit of each band's longest (1.1-3.8 times the longest printed)."""
    bits = [
        max((abs(x).bit_length() for j, _ in band for x in scaled[j][1]), default=0)
        for band in bands
    ]
    total_bits = sum(
        x.denominator.bit_length() + scaled[j][0].bit_length()
        for band in bands
        for j, x in band
    )
    term_bits = sum(bits) + sum(
        max(x.numerator.bit_length() + x.denominator.bit_length()
            + scaled[j][0].bit_length() for j, x in band)
        for band in bands
        if band
    )
    p = len(bands)
    work, nodes = 0, 1
    for d, band in enumerate(bands):
        nodes *= len(band)
        node = 30 + total_bits // 10**4 if d == p - 1 else 0
        above = 0
        for i in range(d):
            above += bits[i]
            node += (p - 1 - i) * (1 + weight(above + bits[d]))
        work += nodes * node
    return work, term_bits * 3 // 5


def cauchy_binet(left: BandedFactor, right: RationalMatrix) -> CauchyBinetCertificate:
    """det(left @ right) as a sum over column subsets, with a term-wise record.

    For a banded p x q `left` and a q x p `right`, a size-p subset S of the q
    shared indices has a nonzero left minor only if it takes one column from
    each band, and then det_left is the product of the chosen entries.  The
    other C(q, p) - prod |band| subsets are pruned without being visited.
    Before the walk starts its estimated work is charged, and then its terms,
    weighed by their estimated digits, are held to the cell cap.

    The walk takes band r at depth r, its columns in ascending order, so the
    terms come out in lexicographic order.  Each row of `right` is scaled to
    integers once; a node reduces its new row against the Bareiss pivots of
    the rows above it on its path, and at a leaf the last pivot over the
    product of the row scales is det_right.  Below a zero pivot the shared
    elimination cannot divide, so each leaf there is finished by `det_exact`
    and counted in `fallback_count`.  Terms with a nonzero product are
    recorded with both factors; their sum is det(left @ right).
    """
    p, q = left.rows, left.cols
    if right.rows != q or right.cols != p:
        raise DimensionMismatchError(
            f"left is {p}x{q}, right is {right.rows}x{right.cols}; need {q}x{p}"
        )
    bands = left.bands
    leaves = prod(len(band) for band in bands)
    scaled = {j: _integer_row(right.row(j)) for band in bands for j, _ in band}
    work, digits = _walk_estimates(bands, scaled)
    charge(work, f"the walk over {leaves} band products at depth {p}")
    hold(leaves, digits, "band products")

    surviving: list[CauchyBinetTerm] = []
    fallback = 0

    def record(path: list[int], det_left: Fraction, det_right: Fraction) -> None:
        if det_right != 0:
            surviving.append(
                CauchyBinetTerm(tuple(j + 1 for j in path), det_left, det_right)
            )

    def walk(path: list[int], pivots: list[list[int]], scale: int, det_left: Fraction):
        # pivots[k] is the reduced row at depth k, from its pivot column on
        nonlocal fallback
        depth = len(path)
        for j, entry in bands[depth]:
            mult, row = scaled[j]
            prev = 1
            for pivot in pivots:
                lead, head = pivot[0], row[0]
                row = [
                    (x * lead - head * y) // prev for x, y in zip(row[1:], pivot[1:])
                ]
                prev = lead
            here = [*path, j]
            det_here = det_left * entry
            if depth == p - 1:
                record(here, det_here, Fraction(row[0], scale * mult))
            elif row[0] != 0:
                walk(here, [*pivots, row], scale * mult, det_here)
            else:
                for rest in product(*bands[depth + 1 :]):
                    subset = [*here, *(c for c, _ in rest)]
                    fallback += 1
                    sub = RationalMatrix.from_rows(right.row(c) for c in subset)
                    entries = (y for _, y in rest)
                    record(subset, prod(entries, start=det_here), det_exact(sub))

    walk([], [], 1, Fraction(1))
    total = sum((term.product for term in surviving), start=Fraction(0))
    pruned = comb(q, p) - leaves
    return CauchyBinetCertificate(total, tuple(surviving), pruned, fallback)


@dataclass(frozen=True)
class PrefixCertificate:
    """det > 0 of one prefix matrix, shown by Bareiss and again by the
    Cauchy-Binet expansion of its difference minor, term by term."""

    parent_det: Fraction
    expansion: CauchyBinetCertificate

    @property
    def all_terms_positive(self) -> bool:
        return all(t.det_left > 0 and t.det_right > 0 for t in self.expansion.surviving)

    @property
    def holds(self) -> bool:
        """Both routes agree on a nonempty sum of positive terms."""
        total, terms = self.expansion.total_det, self.expansion.surviving
        return total == self.parent_det and bool(terms) and self.all_terms_positive


def certify_prefix_matrix(
    m_primes: Sequence[int], family: ArgumentFamily, kind: PolyKind
) -> PrefixCertificate:
    """The certificate chain for the k x k prefix matrix of e_0..e_{k-1} (or
    h_0..h_{k-1}) over m'_1 < ... < m'_k, k >= 2: `difference_factorization`,
    then `cauchy_binet`, checked against the matrix's own determinant.  The
    factors and the matrix read one prefix table."""
    parent, banded, prefix = _chain(m_primes, family, kind)
    expansion = cauchy_binet(banded, prefix)
    return PrefixCertificate(det_exact(parent), expansion)
