"""Exact dense linear algebra over the rationals, plus determinant certificates.

The structured matrices here collect symmetric-polynomial prefix values: row r
lists e_0, e_1, ... (or h_0, h_1, ...) of the first m'_r family variables for a
strictly increasing index set m'_1 < ... < m'_k.  Their determinants are shown
positive by an explicit chain:

    1. subtract consecutive rows (determinant preserved),
    2. expand along the resulting (1, 0, ..., 0) first column,
    3. factor the remaining difference minor D as banded * prefix, where the
       banded factor carries x_j on disjoint column bands m'_r < j <= m'_{r+1},
    4. expand det(D) with the Cauchy-Binet formula over column subsets.

`cauchy_binet` returns the full expansion, i.e. every surviving subset with
both of its sub-determinants, so positivity can be asserted term by term
rather than only for the total; `certify_prefix_matrix` runs the whole chain
and checks the expansion against the determinant of the matrix itself.

Determinants use fraction-free (Bareiss) elimination over a denominator-cleared
integer copy, which keeps intermediate growth polynomial; inversion is exact
Gauss-Jordan over Fractions.  Everything is sized for desk-scale matrices
(<= ~15 x 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    GuardExceededError,
    NonIncreasingIndicesError,
    NotSquareError,
    SingularMatrixError,
)
from .sympoly import ArgumentFamily, PolyKind, elementary_prefix, homogeneous_prefix

SUBSET_GUARD = 10**6


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

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_rows(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )

    def at(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[Fraction, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(r)) for r in range(self.rows)]

    def select(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RationalMatrix":
        """Submatrix given by the listed rows and columns (kept in order)."""
        return RationalMatrix.from_rows(
            [[self.at(r, c) for c in col_idx] for r in row_idx]
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        return RationalMatrix.from_rows(
            [
                [
                    sum(
                        (self.at(r, k) * other.at(k, c) for k in range(self.cols)),
                        start=Fraction(0),
                    )
                    for c in range(other.cols)
                ]
                for r in range(self.rows)
            ]
        )


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
        row = m.row(r)
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        a.append([int(x * mult) for x in row])

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
    """Exact inverse by Gauss-Jordan elimination; M @ inverse_exact(M) == I."""
    d = det_exact(m)
    if d == 0:
        raise SingularMatrixError("matrix is singular", det=d)
    n = m.rows
    aug = [list(m.row(r)) + [Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col] != 0)
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return RationalMatrix.from_rows([row[n:] for row in aug])


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


def _table(kind: PolyKind):
    return elementary_prefix if kind is PolyKind.ELEMENTARY else homogeneous_prefix


def _prefix_matrix(
    m_primes: Sequence[int], family: ArgumentFamily, kind: PolyKind, size: int
) -> RationalMatrix:
    """size x size matrix with entry (r, c) = e_c or h_c of the first m'_r variables."""
    mp_ = _checked_m_primes(m_primes)
    if len(mp_) != size:
        raise ValueError(f"{len(mp_)} indices for a {size}x{size} prefix matrix")
    table = _table(kind)(family, mp_[-1], size - 1)
    return RationalMatrix.from_rows(table.values[j] for j in mp_)


def elementary_matrix(
    m_primes: Sequence[int], family: ArgumentFamily, n: int
) -> RationalMatrix:
    """n x n matrix with entry (r, c) = e_c of the first m'_r family variables."""
    return _prefix_matrix(m_primes, family, PolyKind.ELEMENTARY, n)


def homogeneous_matrix(
    m_primes: Sequence[int], family: ArgumentFamily, n: int
) -> RationalMatrix:
    """(n+1) x (n+1) matrix with entry (r, c) = h_c of the first m'_r variables."""
    return _prefix_matrix(m_primes, family, PolyKind.HOMOGENEOUS, n + 1)


def row_difference(m: RationalMatrix) -> RationalMatrix:
    """Keep row 0; replace row r >= 1 by (row r) - (row r-1) of the input.

    Each replaced row is a difference of *input* rows, so the whole map is
    unit lower triangular and the determinant is unchanged.
    """
    rows = m.to_rows()
    out = [rows[0]]
    for r in range(1, m.rows):
        out.append([a - b for a, b in zip(rows[r], rows[r - 1])])
    return RationalMatrix.from_rows(out)


def difference_minor(m: RationalMatrix) -> RationalMatrix:
    """Row-difference `m`, then drop the first row and column.

    Valid as a determinant-preserving step only when the first column of `m`
    is constant 1: the differenced first column is then (1, 0, ..., 0) and
    expansion along it leaves exactly this minor.
    """
    if m.rows < 2 or m.cols < 2:
        raise ValueError("need at least a 2x2 matrix")
    diff = row_difference(m)
    if diff.at(0, 0) != 1 or any(diff.at(r, 0) != 0 for r in range(1, diff.rows)):
        raise ValueError("first column is not constant 1; minor would change det")
    keep_rows = range(1, diff.rows)
    keep_cols = range(1, diff.cols)
    return diff.select(list(keep_rows), list(keep_cols))


def difference_factorization(
    m_primes: Sequence[int], family: ArgumentFamily, kind: PolyKind
) -> tuple[RationalMatrix, RationalMatrix]:
    """Factor the difference minor of the order-k prefix matrix as banded @ prefix.

    For m'_1 < ... < m'_k the banded factor is (k-1) x m'_k with x_j in row r
    exactly on the band m'_r < j <= m'_{r+1}; the prefix factor is m'_k x (k-1)
    with entry (j, c) equal to e_c of the first j-1 variables (elementary) or
    h_c of the first j variables (homogeneous).  Their product equals
    `difference_minor` of the corresponding prefix matrix, entry by entry.
    """
    mp_ = _checked_m_primes(m_primes)
    k = len(mp_)
    if k < 2:
        raise ValueError("need at least two indices to factor a difference minor")
    width = mp_[-1]
    banded = [
        [
            family.x(j) if mp_[r] < j <= mp_[r + 1] else Fraction(0)
            for j in range(1, width + 1)
        ]
        for r in range(k - 1)
    ]
    lag = 1 if kind is PolyKind.ELEMENTARY else 0
    table = _table(kind)(family, width - lag, k - 2)
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
    total_det: Fraction
    surviving: tuple[CauchyBinetTerm, ...]
    pruned_count: int


def cauchy_binet(
    left: RationalMatrix, right: RationalMatrix, guard: int = SUBSET_GUARD
) -> CauchyBinetCertificate:
    """det(left @ right) as a sum over column subsets, with a term-wise record.

    For p x q `left` and q x p `right`, enumerates all size-p subsets S of the
    q shared indices in lexicographic order.  Subsets whose selected columns
    cannot cover every row of `left` (some row of the left submatrix would be
    all zeros) are pruned without computing determinants; evaluated terms with
    a nonzero product are recorded with both factors.  The sum of recorded
    products is the exact determinant of the product matrix.
    """
    p, q = left.rows, left.cols
    if right.rows != q or right.cols != p:
        raise DimensionMismatchError(
            f"left is {p}x{q}, right is {right.rows}x{right.cols}; need {q}x{p}"
        )
    if comb(q, p) > guard:
        raise GuardExceededError(f"{comb(q, p)} subsets exceed guard {guard}")

    supports = [
        frozenset(r for r in range(p) if left.at(r, j) != 0) for j in range(q)
    ]
    all_rows = list(range(p))
    all_cols = list(range(p))
    total = Fraction(0)
    surviving: list[CauchyBinetTerm] = []
    pruned = 0
    for subset in combinations(range(q), p):
        covered: set[int] = set()
        for j in subset:
            covered |= supports[j]
        if len(covered) < p:
            pruned += 1
            continue
        det_l = det_exact(left.select(all_rows, list(subset)))
        det_r = det_exact(right.select(list(subset), all_cols))
        term = det_l * det_r
        if term != 0:
            surviving.append(
                CauchyBinetTerm(tuple(j + 1 for j in subset), det_l, det_r)
            )
            total += term
    return CauchyBinetCertificate(total, tuple(surviving), pruned)


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
    parent_det = det_exact(_prefix_matrix(mp_, family, kind, len(mp_)))
    return PrefixCertificate(parent_det, expansion)
