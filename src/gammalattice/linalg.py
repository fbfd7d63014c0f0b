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
and checks the expansion against the determinant of the matrix itself, and
`certify_lattice` runs it for a lattice system's indices.

Every elimination runs fraction-free on integer rows, each scaled once by the
lcm of its denominators, and is charged its estimated work first; `_reduce`
is its one Bareiss step, for the determinant, the inverse and the walk alike.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, lcm, prod
from typing import Iterable, NamedTuple, Sequence

from .budget import charge, hold, weight
from .errors import (
    DimensionMismatchError,
    NonIncreasingIndicesError,
    NotSquareError,
    SingularMatrixError,
    SpecMismatchError,
)
from .sympoly import ArgumentFamily, PolyKind, PrefixTable


class _Matrix(NamedTuple):
    rows: int
    cols: int
    entries: tuple[Fraction, ...]


class RationalMatrix(_Matrix):
    """Dense matrix of exact rationals, stored row-major.  Building one checks
    its shape, also through `_make` and `_replace`."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, rows: int, cols: int, entries: tuple[Fraction, ...]):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError(f"{len(entries)} entries for a {rows}x{cols} matrix")
        return super().__new__(cls, rows, cols, entries)

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


def _integer_row(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The row's scale, the lcm of its denominators, and the row times it."""
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


def _reduce(row: list[int], pivots: Iterable[list[int]], prev: int = 1) -> list[int]:
    """The row reduced by each pivot row in turn, all read from the pivot column
    on: a Bareiss step each, exact over the pivot before it (`prev` first)."""
    for pivot in pivots:
        pairs = zip(row, pivot)
        head, lead = next(pairs)
        row = [(x * lead - head * y) // prev for x, y in pairs]
        prev = lead
    return row


def _fraction_free(rows: list[list[int]], inverse: bool) -> tuple[int, int]:
    """Charge, then run, the elimination of the leading square of `rows` below
    each pivot (Bareiss), or around it for an inverse (Gauss-Jordan).  Rows are
    held from the pivot column on, so they end as what lies right of the square.
    Returns the swaps' sign and the last pivot, 0 if singular."""
    n = len(rows)
    bits = max(abs(x).bit_length() for row in rows for x in row[:n])
    what = f"the {'inverse' if inverse else 'determinant'} of a {n}x{n} matrix"
    charge(_elimination_work(n, bits, inverse), f"{what} of {bits}-bit rows")
    sign, prev = 1, 1
    for k in range(n):
        swap = next((r for r in range(k, n) if rows[r][0] != 0), None)
        if swap is None:
            return sign, 0
        if swap != k:
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k]
        rows[k] = pivot[1:]
        for i in range(0 if inverse else k + 1, n):
            if i != k:
                rows[i] = _reduce(rows[i], (pivot,), prev)
        prev = pivot[0]
    return sign, prev


def _det(scaled: Sequence[tuple[int, list[int]]]) -> Fraction:
    """The determinant of (scale, integer row) pairs: last pivot / scales."""
    sign, last = _fraction_free([row for _, row in scaled], inverse=False)
    return Fraction(sign * last, prod(mult for mult, _ in scaled))


def det_exact(m: RationalMatrix) -> Fraction:
    """Exact determinant via Bareiss fraction-free elimination.

    Rows are scaled to integers first (the scale divides back out at the end),
    so every intermediate quotient in the elimination is an exact integer.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    return _det([_integer_row(m.row(r)) for r in range(m.rows)])


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
    last = _fraction_free(aug, inverse=True)[1]
    if last == 0:
        raise SingularMatrixError("matrix is singular")
    entries = tuple(Fraction(x, last) for row in aug for x in row)
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
    ArgumentFamily.require(family)
    if not isinstance(kind, PolyKind):
        raise SpecMismatchError(f"kind must be a PolyKind, got {kind!r}")
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


class BandedFactor(NamedTuple):
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


class CauchyBinetTerm(NamedTuple):
    """One surviving subset: 1-based column choices, both sub-determinants and
    their product, which `cauchy_binet` takes once and sums."""

    subset: tuple[int, ...]
    det_left: Fraction
    det_right: Fraction
    product: Fraction


class CauchyBinetCertificate(NamedTuple):
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


def _band_products(bands, scaled, path=(), det_left=Fraction(1), pivots=(), scale=1):
    """Every band product below `path`, in lexicographic order, as (1-based
    subset, det_left, det_right, shared).  A node reduces its scaled row against
    `pivots`, the Bareiss pivots of the rows above it on its path, and a leaf
    takes the last pivot over the row scales.  Below a zero pivot `pivots` is
    None: the shared elimination cannot divide, so a leaf there is not shared
    and takes `_det` of its own scaled rows."""
    last = len(path) == len(bands) - 1
    for j, entry in bands[len(path)]:
        here, det_here = (*path, j + 1), det_left * entry
        mult, row = scaled[j]
        if pivots is not None:
            row = _reduce(row, pivots)
        if not last:
            below = None if pivots is None or row[0] == 0 else [*pivots, row]
            yield from _band_products(bands, scaled, here, det_here, below, scale * mult)
        elif pivots is not None:
            yield here, det_here, Fraction(row[0], scale * mult), True
        else:
            yield here, det_here, _det([scaled[c - 1] for c in here]), False


def cauchy_binet(left: BandedFactor, right: RationalMatrix) -> CauchyBinetCertificate:
    """det(left @ right) as a sum over column subsets, with a term-wise record.

    For a banded p x q `left` and a q x p `right`, a size-p subset S of the q
    shared indices has a nonzero left minor only if it takes one column from
    each band, and then det_left is the product of the chosen entries.  The
    other C(q, p) - prod |band| subsets are pruned without being visited.
    Before the walk starts its estimated work is charged, and then its terms,
    weighed by their estimated digits, are held to the cell cap.

    One walk (`_band_products`) takes band r at depth r, its columns in
    ascending order, so the band products come out in lexicographic order.
    Each row of `right` is scaled to integers once, and the rows on a path
    share one Bareiss elimination.  Below a zero pivot each leaf eliminates
    its own scaled rows instead, charged as `det_exact` is, and counts in
    `fallback_count`.  One pass keeps the terms with a nonzero product, with
    both factors, and sums them to det(left @ right).
    """
    p, q = left.rows, left.cols
    if right.rows != q or right.cols != p:
        raise DimensionMismatchError(
            f"left is {p}x{q}, right is {right.rows}x{right.cols}; need {q}x{p}"
        )
    bands = left.bands
    # the walk reads each column once, band after band, inside `right`
    columns = [-1, *(j for band in bands for j, _ in band), q]
    if any(b <= a for a, b in zip(columns, columns[1:])):
        raise DimensionMismatchError(
            f"band columns {columns[1:-1]} do not strictly increase within 0..{q - 1}"
        )
    leaves = prod(len(band) for band in bands)
    scaled = {j: _integer_row(right.row(j)) for band in bands for j, _ in band}
    work, digits = _walk_estimates(bands, scaled)
    charge(work, f"the walk over {leaves} band products at depth {p}")
    hold(leaves, digits, "band products")

    surviving, total, fallback = [], Fraction(0), 0
    for subset, det_left, det_right, shared in _band_products(bands, scaled):
        fallback += not shared
        if det_right != 0:
            term = det_left * det_right
            surviving.append(CauchyBinetTerm(subset, det_left, det_right, term))
            total += term
    pruned = comb(q, p) - leaves
    return CauchyBinetCertificate(total, tuple(surviving), pruned, fallback)


class PrefixCertificate(NamedTuple):
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


def certify_lattice(family: ArgumentFamily, indices: Sequence[int]) -> PrefixCertificate:
    """`certify_prefix_matrix` for the system over lattice `indices`: each
    index read as its prefix length, in the family's own polynomial kind."""
    lengths = [family.prefix_length(m) for m in indices]
    return certify_prefix_matrix(lengths, family, family.poly_kind)
