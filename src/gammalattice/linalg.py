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
of D directly, and tests/_oracles.py checks their product against the
row-differenced prefix matrix.

`cauchy_binet` returns the full expansion, i.e. every surviving subset with
both of its sub-determinants, so positivity can be asserted term by term
rather than only for the total; `certify_prefix_matrix` runs the whole chain
and checks the expansion against the determinant of the matrix itself.

Every elimination runs fraction-free on integer rows: each row is scaled once
by the lcm of its denominators, the scales divide back out at the end, and
intermediate growth stays polynomial.  Determinants use Bareiss elimination;
the inverse is one fraction-free Gauss-Jordan pass divided once by the
determinant that pass finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm, prod
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    GuardExceededError,
    NonIncreasingIndicesError,
    NotSquareError,
    SingularMatrixError,
)
from .sympoly import ArgumentFamily, PolyKind

#: Most estimated small-integer operations `cauchy_binet` may spend (see
#: `_walk_work`).  On the minus-1/3 and plain lattices (2-core x86-64, CPython
#: 3.11, one process) the walk ran 0.4-2.7 us per estimated operation, so a
#: walk under this guard finishes in about 30 s or less.
WORK_GUARD = 10**7

#: Estimated operations for one leaf's `Fraction` and term, beyond its row.
_LEAF_OPS = 30


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
        entries = tuple(Fraction(x) for row in data for x in row)
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


def det_exact(m: RationalMatrix) -> Fraction:
    """Exact determinant via Bareiss fraction-free elimination.

    Rows are scaled to integers first (the scale divides back out at the end),
    so every intermediate quotient in the elimination is an exact integer.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    n = m.rows
    scale = 1
    a: list[list[int]] = []
    for r in range(n):
        mult, row = _integer_row(m.row(r))
        scale *= mult
        a.append(row)

    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


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

    prev = 1
    for k in range(n):
        if aug[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if aug[r][k] != 0), None)
            if swap is None:
                raise SingularMatrixError("matrix is singular")
            aug[k], aug[swap] = aug[swap], aug[k]
        rowk = aug[k]
        pivot = rowk[k]
        for i in range(n):
            if i == k:
                continue
            rowi = aug[i]
            aik = rowi[k]
            for j in range(k + 1, 2 * n):
                rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    entries = tuple(Fraction(x, prev) for row in aug for x in row[n:])
    return RationalMatrix(n, n, entries)


def increasing_indices(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple of ints, checked nonempty and strictly increasing."""
    indices = tuple(int(v) for v in values)
    if not indices:
        raise NonIncreasingIndicesError("empty index set")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise NonIncreasingIndicesError(
            f"indices {indices} are not strictly increasing"
        )
    return indices


def _checked_m_primes(m_primes: Sequence[int]) -> tuple[int, ...]:
    mp_ = increasing_indices(m_primes)
    if mp_[0] < 0:
        raise NonIncreasingIndicesError(f"index {mp_[0]} is negative")
    return mp_


def prefix_matrix(
    m_primes: Sequence[int], family: ArgumentFamily, kind: PolyKind
) -> RationalMatrix:
    """k x k matrix with entry (r, c) = e_c or h_c of the first m'_r family
    variables, for the k indices m'_1 < ... < m'_k."""
    mp_ = _checked_m_primes(m_primes)
    table = kind.table(family, mp_[-1], len(mp_) - 1)
    return RationalMatrix.from_rows(table.values[j] for j in mp_)


def difference_factorization(
    m_primes: Sequence[int], family: ArgumentFamily, kind: PolyKind
) -> tuple[RationalMatrix, RationalMatrix]:
    """Factor the difference minor of the order-k prefix matrix as banded @ prefix.

    For m'_1 < ... < m'_k the banded factor is (k-1) x m'_k with x_j in row r
    exactly on the band m'_r < j <= m'_{r+1}; the prefix factor is m'_k x (k-1)
    with entry (j, c) equal to e_c of the first j-1 variables (elementary) or
    h_c of the first j variables (homogeneous).  Their product equals the
    difference minor of `prefix_matrix` (rows differenced, first row and
    column dropped) entry by entry; tests/_oracles.py checks that step.
    """
    mp_ = _checked_m_primes(m_primes)
    k = len(mp_)
    if k < 2:
        raise ValueError("need at least two indices to factor a difference minor")
    width = mp_[-1]
    lag = 1 if kind is PolyKind.ELEMENTARY else 0
    # the table first: its budget refuses a huge width before a row is built
    table = kind.table(family, width - lag, k - 2)
    banded = [
        [
            family.x(j) if mp_[r] < j <= mp_[r + 1] else Fraction(0)
            for j in range(1, width + 1)
        ]
        for r in range(k - 1)
    ]
    prefix = [table.values[j - lag] for j in range(1, width + 1)]
    return RationalMatrix.from_rows(banded), RationalMatrix.from_rows(prefix)


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


def _bands(left: RationalMatrix) -> list[list[int]]:
    """The nonzero columns of each row of a banded matrix, in row order.

    Banded means the bands are disjoint and each lies wholly left of the next,
    so the nonzero columns read row after row strictly increase.
    """
    bands = [
        [j for j in range(left.cols) if left.at(r, j) != 0] for r in range(left.rows)
    ]
    flat = [j for band in bands for j in band]
    if any(b <= a for a, b in zip(flat, flat[1:])):
        raise ValueError(
            "left factor is not banded: its rows' nonzero columns must be "
            "disjoint bands, each left of the next"
        )
    return bands


def _walk_work(
    left: RationalMatrix,
    bands: list[list[int]],
    scaled: dict[int, tuple[int, list[int]]],
) -> float:
    """Estimated small-integer operations of the band walk.

    A node at depth d reduces its row against the d pivots above it; the i-th
    reduction takes p-1-i products of integers about as long as the rows on
    the path so far together (Bareiss entries are minors), counting each band
    at its longest scaled entry, and a product of s-bit integers costs
    1 + (s/1000)^2 small ones.  Every leaf adds `_LEAF_OPS` for its term, and
    t / 10^4 for adding it to the running total, whose denominator of t bits
    divides the product of the left entries' and row scales' denominators.
    """
    bits = [
        max((abs(x).bit_length() for j in band for x in scaled[j][1]), default=0)
        for band in bands
    ]
    total_bits = sum(
        left.at(r, j).denominator.bit_length() + scaled[j][0].bit_length()
        for r, band in enumerate(bands)
        for j in band
    )
    p = len(bands)
    work, nodes = 0.0, 1
    for d, band in enumerate(bands):
        nodes *= len(band)
        node = _LEAF_OPS + total_bits / 10**4 if d == p - 1 else 0
        above = 0
        for i in range(d):
            above += bits[i]
            node += (p - 1 - i) * (1 + ((above + bits[d]) / 1000) ** 2)
        work += nodes * node
    return work


def cauchy_binet(left: RationalMatrix, right: RationalMatrix) -> CauchyBinetCertificate:
    """det(left @ right) as a sum over column subsets, with a term-wise record.

    For a banded p x q `left` and a q x p `right`, a size-p subset S of the q
    shared indices has a nonzero left minor only if it takes one column from
    each band, and then det_left is the product of the chosen entries.  The
    other C(q, p) - prod |band| subsets are pruned without being visited, and
    `WORK_GUARD`, read at call time, bounds the walk's estimated operations
    (`_walk_work`), which grow with the band product, the depth p and the
    length of `right`'s entries.

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
    bands = _bands(left)
    leaves = prod(len(band) for band in bands)
    scaled = {j: _integer_row(right.row(j)) for band in bands for j in band}
    work = _walk_work(left, bands, scaled)
    if work > WORK_GUARD:
        raise GuardExceededError(
            f"{leaves} band products at depth {p} need about {work:.2g} "
            f"operations, over the guard {WORK_GUARD}"
        )

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
        for j in bands[depth]:
            mult, row = scaled[j]
            prev = 1
            for pivot in pivots:
                lead, head = pivot[0], row[0]
                row = [
                    (x * lead - head * y) // prev for x, y in zip(row[1:], pivot[1:])
                ]
                prev = lead
            here = [*path, j]
            det_here = det_left * left.at(depth, j)
            if depth == p - 1:
                record(here, det_here, Fraction(row[0], scale * mult))
            elif row[0] != 0:
                walk(here, [*pivots, row], scale * mult, det_here)
            else:
                for rest in product(*bands[depth + 1 :]):
                    subset = [*here, *rest]
                    fallback += 1
                    sub = RationalMatrix.from_rows(right.row(c) for c in subset)
                    entries = (left.at(r, c) for r, c in enumerate(rest, depth + 1))
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
    then `cauchy_binet`, checked against the matrix's own determinant."""
    mp_ = _checked_m_primes(m_primes)
    if len(mp_) < 2:
        raise ValueError("a certificate needs at least two indices")
    banded, prefix = difference_factorization(mp_, family, kind)
    expansion = cauchy_binet(banded, prefix)
    parent_det = det_exact(prefix_matrix(mp_, family, kind))
    return PrefixCertificate(parent_det, expansion)
