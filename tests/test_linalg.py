from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammalattice import (
    ArgumentFamily,
    DimensionMismatchError,
    FamilyKind,
    GuardExceededError,
    LatticeSpec,
    NonIncreasingIndicesError,
    NotSquareError,
    PolyKind,
    PrefixCertificate,
    RationalMatrix,
    SingularMatrixError,
    SpecMismatchError,
    build_system,
    cauchy_binet,
    certify_prefix_matrix,
    det_exact,
    difference_factorization,
    inverse_exact,
    prefix_matrix,
)
from gammalattice import budget, linalg, sympoly
from gammalattice.linalg import BandedFactor
from _oracles import (
    dense,
    difference_minor,
    fraction_det,
    generic_cauchy_binet,
    matmul,
    row_difference,
)

PLAIN = ArgumentFamily(FamilyKind.PLAIN)
MINUS_HALF = ArgumentFamily(FamilyKind.MINUS_SHIFT, Fraction(1, 2))
PLUS_QUARTER = ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(1, 4))
MINUS_THIRD = ArgumentFamily(FamilyKind.MINUS_SHIFT, Fraction(1, 3))

small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5
)


# mostly 0, +-1 and +-1/3, so that zero pivots force row swaps and singular
# matrices come up (in about a third and a half of 150 draws)
pivot_entries = st.sampled_from(
    [0, 1, -1, Fraction(1, 3), Fraction(-1, 3), 2, Fraction(-5, 2), Fraction(3, 4)]
)


def square_matrices(n):
    return st.lists(
        st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RationalMatrix.from_rows)


def identity(n):
    return RationalMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def product(a, b):
    """a @ b by the oracle's entrywise product; a banded `a` is written out."""
    rows = dense(a) if isinstance(a, BandedFactor) else a.to_rows()
    return RationalMatrix.from_rows(matmul(rows, b.to_rows()))


def from_bands(cols, *bands):
    """The banded factor with these bands of (column, value) pairs."""
    return BandedFactor(cols, tuple(
        tuple((j, Fraction(x)) for j, x in band) for band in bands
    ))


class TestRationalMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RationalMatrix(2, 2, (Fraction(1),) * 3)
        for rows, cols in ((0, 1), (0, 3), (3, 0)):
            with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
                RationalMatrix(rows, cols, ())
        with pytest.raises(ValueError):
            RationalMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            RationalMatrix.from_rows([])

    def test_entries_canonical(self):
        m = RationalMatrix.from_rows([[Fraction(2, 4), "3/6"]])
        assert m.entries == (Fraction(1, 2), Fraction(1, 2))

    def test_accessors(self):
        m = RationalMatrix.from_rows([[1, 2], [3, 4]])
        assert m.at(1, 0) == 3
        assert m.row(0) == (1, 2)
        assert m.to_rows() == [[1, 2], [3, 4]]

    def test_matmul(self):
        # the oracle product the tests multiply with
        a = RationalMatrix.from_rows([[1, 2], [3, 4]])
        assert product(a, identity(2)) == a
        assert matmul([[1, 2]], [[3], [Fraction(1, 2)]]) == [[4]]
        with pytest.raises(ValueError):
            matmul(a.to_rows(), [[1, 2, 3]])


class TestDeterminant:
    def test_frozen_examples(self):
        assert det_exact(RationalMatrix.from_rows([[0, 1], [2, 1]])) == -2
        assert det_exact(identity(5)) == 1
        repeated = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert det_exact(repeated) == 0

    def test_rational_entries(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
        assert det_exact(m) == Fraction(1, 14) - Fraction(1, 15)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            det_exact(RationalMatrix.from_rows([[1, 2]]))

    @given(
        rows=st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(pivot_entries, min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_independent_elimination(self, rows):
        m = RationalMatrix.from_rows(rows)
        assert det_exact(m) == fraction_det(m.to_rows())

    @given(m=square_matrices(4))
    @settings(max_examples=40, deadline=None)
    def test_row_difference_preserves_det(self, m):
        differenced = RationalMatrix.from_rows(row_difference(m.to_rows()))
        assert det_exact(differenced) == det_exact(m)

    @given(m=square_matrices(3))
    @settings(max_examples=40, deadline=None)
    def test_transpose_free_cofactor_consistency(self, m):
        # expansion along the first row must agree with elimination
        def minor(c):
            return RationalMatrix.from_rows(
                row[:c] + row[c + 1 :] for row in m.to_rows()[1:]
            )

        expected = sum((-1) ** c * m.at(0, c) * det_exact(minor(c)) for c in range(3))
        assert det_exact(m) == expected


class TestInverse:
    def test_frozen_example(self):
        inv = inverse_exact(RationalMatrix.from_rows([[0, 1], [2, 1]]))
        assert inv.to_rows() == [[Fraction(-1, 2), Fraction(1, 2)], [1, 0]]

    def test_identity(self):
        assert inverse_exact(identity(4)) == identity(4)

    def test_singular(self):
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            inverse_exact(RationalMatrix.from_rows([[1, 2], [2, 4]]))

    @given(m=square_matrices(3))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, m):
        if det_exact(m) == 0:
            with pytest.raises(SingularMatrixError):
                inverse_exact(m)
        else:
            assert product(m, inverse_exact(m)) == identity(3)


class TestEliminationBudget:
    @staticmethod
    def _system(family, k):
        low = family.min_index
        return build_system(LatticeSpec(family, range(low, low + k)), k - 1 + low).matrix

    def test_refused_before_any_row_is_reduced(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a row was reduced")

        # at 31 x 31 the minus-1/3 inverse took 32 s, and at 41 x 41 the
        # determinant 18 s; at 36 x 36 the determinant took 6 s
        accepted = self._system(MINUS_THIRD, 36)
        refused = self._system(MINUS_THIRD, 41)
        monkeypatch.setattr(linalg, "_reduce", no_step)
        for call, matrix, what in (
            (inverse_exact, self._system(MINUS_THIRD, 31), "inverse of a 31x31"),
            (det_exact, refused, "determinant of a 41x41"),
            (inverse_exact, accepted, "inverse of a 36x36"),
        ):
            with pytest.raises(GuardExceededError, match=f"^the {what} matrix of ") as info:
                call(matrix)
            assert str(info.value).endswith(f"is over the work budget {budget.MAX_WORK}")
        with pytest.raises(AssertionError, match="a row was reduced"):
            det_exact(accepted)

    def test_budget_is_the_estimated_work(self, monkeypatch):
        # the benchmark's 21 x 21 plus-shift system, far under the cap
        matrix = self._system(ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(1, 3)), 21)
        for call, inverse in ((det_exact, False), (inverse_exact, True)):
            rows = [linalg._integer_row(matrix.row(r))[1] for r in range(21)]
            bits = max(abs(x).bit_length() for row in rows for x in row)
            work = linalg._elimination_work(21, bits, inverse)
            assert work < budget.MAX_WORK // 100
            monkeypatch.setattr(budget, "MAX_WORK", work)
            call(matrix)
            monkeypatch.setattr(budget, "MAX_WORK", work - 1)
            with pytest.raises(GuardExceededError):
                call(matrix)
            monkeypatch.undo()

    def test_benchmark_estimates_are_pinned(self):
        # the 21 x 21 plus-1/3 system of the benchmark's `matrix --show det`
        # and `--show inverse`; a repricing shows up as an edit of these
        family = ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(1, 3))
        indices = (*range(6), *range(7, 20), 22, 24)
        matrix = build_system(LatticeSpec(family, indices), 20).matrix
        rows = [linalg._integer_row(matrix.row(r))[1] for r in range(21)]
        assert max(abs(x).bit_length() for row in rows for x in row) == 147
        assert linalg._elimination_work(21, 147, inverse=False) == 27770
        assert linalg._elimination_work(21, 147, inverse=True) == 95500


class TestPrefixMatrices:
    def test_order_one_is_trivial(self):
        for family in (PLAIN, MINUS_HALF, PLUS_QUARTER):
            for kind in PolyKind:
                m = prefix_matrix([5], family, kind)
                assert m.to_rows() == [[1]]
                assert det_exact(m) == 1

    def test_small_frozen(self):
        e = prefix_matrix([0, 1], PLAIN, PolyKind.ELEMENTARY)
        assert e.to_rows() == [[1, 0], [1, 1]]
        assert det_exact(e) == 1
        h = prefix_matrix([0, 1], MINUS_HALF, PolyKind.HOMOGENEOUS)
        assert h.to_rows() == [[1, 0], [1, 2]]
        assert det_exact(h) == 2

    def test_positive_determinants(self):
        assert det_exact(prefix_matrix([0, 2, 5], PLAIN, PolyKind.ELEMENTARY)) > 0
        assert det_exact(prefix_matrix([0, 1, 3], MINUS_THIRD, PolyKind.HOMOGENEOUS)) > 0

    def test_index_validation(self):
        with pytest.raises(NonIncreasingIndicesError):
            prefix_matrix([2, 1], PLAIN, PolyKind.ELEMENTARY)
        with pytest.raises(NonIncreasingIndicesError):
            prefix_matrix([-1, 0], PLAIN, PolyKind.ELEMENTARY)
        with pytest.raises(NonIncreasingIndicesError):
            prefix_matrix([], PLAIN, PolyKind.HOMOGENEOUS)
        # refused, not truncated to the matrix of [0, 2]
        with pytest.raises(
            NonIncreasingIndicesError, match=r"^indices \(0.7, 2.2\) are not all integers$"
        ):
            prefix_matrix([0.7, 2.2], PLAIN, PolyKind.ELEMENTARY)
        with pytest.raises(NonIncreasingIndicesError):
            prefix_matrix([0, Fraction(2)], PLAIN, PolyKind.ELEMENTARY)

    @pytest.mark.parametrize(
        "build", [prefix_matrix, difference_factorization, certify_prefix_matrix]
    )
    def test_family_and_kind_checked(self, build):
        with pytest.raises(SpecMismatchError, match="^kind must be a PolyKind, got 'e'$"):
            build([0, 1], PLAIN, "e")
        with pytest.raises(SpecMismatchError, match="^family must be an ArgumentFamily"):
            build([0, 1], None, PolyKind.ELEMENTARY)
        with pytest.raises(SpecMismatchError, match="^family must be an ArgumentFamily"):
            build([0, 1], FamilyKind.PLAIN, PolyKind.ELEMENTARY)

    @pytest.mark.parametrize(
        "build", [prefix_matrix, difference_factorization, certify_prefix_matrix]
    )
    def test_index_past_float_range_is_refused(self, build):
        # the table estimate raised OverflowError
        with pytest.raises(GuardExceededError, match=(
            rf"^the homogeneous table of length {10**309} and degree 2 "
            rf"is over the work budget {budget.MAX_WORK}$"
        )):
            build([0, 1, 10**309], MINUS_THIRD, PolyKind.HOMOGENEOUS)


class TestRowDifference:
    """The oracle's row-difference steps, which check `difference_factorization`."""

    def test_direct(self):
        assert row_difference([[1, 0], [1, 1]]) == [[1, 0], [0, 1]]

    def test_single_row_unchanged(self):
        assert row_difference([[3, 4, 5]]) == [[3, 4, 5]]

    def test_uses_input_rows_not_cumulative(self):
        assert row_difference([[1, 1], [2, 4], [4, 9]]) == [[1, 1], [1, 3], [2, 5]]

    def test_difference_minor_requires_unit_column(self):
        with pytest.raises(ValueError):
            difference_minor([[2, 0], [2, 1]])
        with pytest.raises(ValueError):
            difference_minor([[1, 0]])

    def test_difference_minor_keeps_determinant(self):
        e = prefix_matrix([1, 3, 6], PLAIN, PolyKind.ELEMENTARY)
        minor = RationalMatrix.from_rows(difference_minor(e.to_rows()))
        assert det_exact(minor) == det_exact(e)


class TestDifferenceFactorization:
    def test_elementary_frozen(self):
        left, prefix = difference_factorization([0, 1], PLAIN, PolyKind.ELEMENTARY)
        assert left == BandedFactor(1, (((0, Fraction(1)),),))
        assert prefix.to_rows() == [[1]]
        assert matmul(dense(left), prefix.to_rows()) == [[1]]

    def test_homogeneous_frozen(self):
        left, prefix = difference_factorization([0, 1], MINUS_HALF, PolyKind.HOMOGENEOUS)
        assert dense(left) == [[2]]
        assert prefix.to_rows() == [[1]]

    def test_band_disjointness(self):
        m_primes = (0, 2, 5, 9)
        left, _ = difference_factorization(m_primes, PLAIN, PolyKind.ELEMENTARY)
        assert (left.rows, left.cols) == (3, 9)
        # band r is the columns m'_r < j <= m'_{r+1}, 1-based, so the columns
        # read band after band are 0, 1, ..., m'_k - 1
        for r, band in enumerate(left.bands):
            assert [j + 1 for j, _ in band] == list(range(m_primes[r] + 1, m_primes[r + 1] + 1))
            assert all(x == PLAIN.x(j + 1) for j, x in band)

    @pytest.mark.parametrize("family", [PLAIN, PLUS_QUARTER, MINUS_HALF],
                             ids=lambda f: f.kind.value)
    @pytest.mark.parametrize("m_primes", [(0, 1), (0, 2, 5), (1, 3, 4, 7), (2, 5)])
    def test_product_equals_difference_minor(self, family, m_primes):
        for kind in PolyKind:
            left, prefix = difference_factorization(m_primes, family, kind)
            assert matmul(dense(left), prefix.to_rows()) == difference_minor(
                prefix_matrix(m_primes, family, kind).to_rows()
            )

    def test_needs_two_indices(self):
        with pytest.raises(ValueError):
            difference_factorization([3], PLAIN, PolyKind.ELEMENTARY)


class TestCauchyBinet:
    def test_trivial(self):
        certificate = cauchy_binet(from_bands(1, [(0, 1)]), RationalMatrix.from_rows([[1]]))
        assert certificate.total_det == 1
        assert len(certificate.surviving) == 1
        assert certificate.surviving[0].subset == (1,)

    def test_matches_direct_determinant(self):
        banded, prefix = difference_factorization([0, 2, 5], PLAIN, PolyKind.ELEMENTARY)
        certificate = cauchy_binet(banded, prefix)
        assert certificate.total_det == det_exact(product(banded, prefix))
        assert certificate.total_det == det_exact(
            prefix_matrix([0, 2, 5], PLAIN, PolyKind.ELEMENTARY)
        )
        assert certificate.surviving
        for term in certificate.surviving:
            assert term.det_left > 0
            assert term.det_right > 0
            assert term.product == term.det_left * term.det_right

    def test_interleaving_condition(self):
        m_primes = (0, 2, 5)
        banded, prefix = difference_factorization(m_primes, PLAIN, PolyKind.ELEMENTARY)
        certificate = cauchy_binet(banded, prefix)
        for term in certificate.surviving:
            for r, s in enumerate(term.subset):
                assert m_primes[r] < s <= m_primes[r + 1]
        # the canonical subset s_r = m'_r + 1 must be among the survivors
        canonical = tuple(mp + 1 for mp in m_primes[:-1])
        assert canonical in [term.subset for term in certificate.surviving]

    def test_pruning(self):
        banded, prefix = difference_factorization([0, 2, 5], PLAIN, PolyKind.ELEMENTARY)
        certificate = cauchy_binet(banded, prefix)
        assert certificate.pruned_count > 0
        # pruned + evaluated = all size-2 subsets of 5 columns
        assert certificate.pruned_count + len(certificate.surviving) <= 10

    def test_dimension_mismatch(self):
        left = from_bands(2, [(0, 1), (1, 2)])
        with pytest.raises(DimensionMismatchError):
            cauchy_binet(left, RationalMatrix.from_rows([[1, 2]]))
        with pytest.raises(DimensionMismatchError):
            cauchy_binet(left, RationalMatrix.from_rows([[1, 2], [3, 4]]))

    @pytest.mark.parametrize(
        "bands",
        [
            # a column past the right factor's rows gave a bare IndexError
            [[(0, 1)], [(2, 1)]],
            # overlapping bands gave pruned_count -3 and subsets (1, 2), (2, 1)
            [[(0, 1), (1, 1)], [(0, 1), (1, 1)]],
            # bands out of order gave the subset (2, 1)
            [[(1, 1)], [(0, 1)]],
        ],
        ids=["column-past-cols", "overlapping", "reversed"],
    )
    def test_malformed_bands_refused(self, monkeypatch, bands):
        def no_scaling(row):
            raise AssertionError("a row was scaled")

        monkeypatch.setattr(linalg, "_integer_row", no_scaling)
        right = RationalMatrix.from_rows([[1, 2], [3, 5]])
        with pytest.raises(DimensionMismatchError, match="do not strictly increase"):
            cauchy_binet(from_bands(2, *bands), right)

    def test_guard(self):
        # two bands of 1300 unit entries: 1,690,000 leaves at about 30 units
        # each estimate more work than the budget allows
        width = 1300
        left = from_bands(
            2 * width,
            [(j, 1) for j in range(width)],
            [(j, 1) for j in range(width, 2 * width)],
        )
        right = RationalMatrix.from_rows([[1, 0]] * width + [[0, 1]] * width)
        with pytest.raises(GuardExceededError, match="over the work budget") as info:
            cauchy_binet(left, right)
        assert str(info.value).startswith("the walk over 1690000 band products at depth 2 ")
        assert "\n" not in str(info.value)

    def test_guard_reads_the_module_constant(self, monkeypatch):
        banded, prefix = difference_factorization([0, 2, 5], PLAIN, PolyKind.ELEMENTARY)
        monkeypatch.setattr(budget, "MAX_WORK", 10)
        with pytest.raises(GuardExceededError, match="over the work budget 10$"):
            cauchy_binet(banded, prefix)
        monkeypatch.setattr(budget, "MAX_WORK", 10**3)
        assert cauchy_binet(banded, prefix).surviving

    def test_guard_passes_a_shallow_wide_product(self):
        # C(202, 2) = 20,301 subsets and 101^2 = 10,201 band products, each a
        # 2x2 elimination: cheap, so certified
        certificate = certify_prefix_matrix([0, 101, 202], PLAIN, PolyKind.ELEMENTARY)
        assert certificate.holds
        assert len(certificate.expansion.surviving) == 101 * 101
        assert certificate.expansion.pruned_count == 20301 - 10201

    def test_guard_refuses_a_deep_product_with_few_leaves(self):
        # 13 bands of width 2 then 3 of width 1: 8,192 leaves, but each walks
        # a 16-deep elimination of long integers
        m_primes = [*range(0, 27, 2), 27, 28, 29]
        banded, prefix = difference_factorization(
            m_primes, MINUS_THIRD, PolyKind.HOMOGENEOUS
        )
        with pytest.raises(GuardExceededError, match="8192 band products at depth 16"):
            cauchy_binet(banded, prefix)

    def test_terms_are_held_to_the_cell_cap(self, monkeypatch):
        # 10,201 terms estimated at 528 digits each weigh 3 cells apiece
        left, prefix = difference_factorization([0, 101, 202], PLAIN, PolyKind.ELEMENTARY)
        scaled = {j: linalg._integer_row(prefix.row(j)) for j in range(202)}
        assert linalg._walk_estimates(left.bands, scaled)[1] == 528
        monkeypatch.setattr(budget, "MAX_CELLS", 3 * 10201)
        assert len(cauchy_binet(left, prefix).surviving) == 10201
        monkeypatch.setattr(budget, "MAX_CELLS", 3 * 10201 - 1)
        with pytest.raises(
            GuardExceededError,
            match=r"^10201 band products of weight 3 are over the budget 30602$",
        ):
            cauchy_binet(left, prefix)

    @pytest.mark.parametrize("family, indices, estimates", [
        (MINUS_THIRD, (0, 3, 6, 9, 11, 14, 18), (48204, 1056)),
        (PLAIN, (1, 4, 7, 9, 12, 16), (12096, 108)),
    ], ids=["minus", "plain"])
    def test_benchmark_walk_estimates_are_pinned(self, family, indices, estimates):
        # the benchmark's two `matrix --show cauchy-binet` certificates; a
        # repricing shows up as an edit of these
        lengths = [family.prefix_length(m) for m in indices]
        left, prefix = difference_factorization(lengths, family, family.poly_kind)
        scaled = {j: linalg._integer_row(prefix.row(j)) for b in left.bands for j, _ in b}
        assert linalg._walk_estimates(left.bands, scaled) == estimates

    def test_zero_first_pivot_takes_the_fallback(self, monkeypatch):
        left = from_bands(3, [(0, 1), (1, 2)], [(2, 3)])
        # row 0 of right has a zero first entry, so the path through column 1
        # cannot divide by its pivot
        right = RationalMatrix.from_rows([[0, 1], [1, 0], [Fraction(1, 2), 4]])
        charged = []
        monkeypatch.setattr(linalg, "charge", lambda *estimate: charged.append(estimate))
        certificate = cauchy_binet(left, right)
        assert [what for _, what in charged] == [
            "the walk over 2 band products at depth 2",
            "the determinant of a 2x2 matrix of 4-bit rows",
        ]
        # the fallback leaf is charged what det_exact charges for its two rows
        det_exact(RationalMatrix.from_rows([right.row(0), right.row(2)]))
        assert charged[2] == charged[1]
        assert certificate.fallback_count == 1
        assert _as_oracle(certificate) == generic_cauchy_binet(
            dense(left), right.to_rows()
        )
        assert certificate.total_det == det_exact(product(left, right))

    def test_no_fallback_on_prefix_factors(self):
        banded, prefix = difference_factorization(
            [0, 3, 6, 9, 12], MINUS_THIRD, PolyKind.HOMOGENEOUS
        )
        assert cauchy_binet(banded, prefix).fallback_count == 0


def _as_oracle(certificate):
    terms = [(t.subset, t.det_left, t.det_right) for t in certificate.surviving]
    return certificate.total_det, terms, certificate.pruned_count


@st.composite
def banded_products(draw):
    """Ordered bands with zero columns before, between and after them, and a
    right of small integers (zeros included, so some paths meet a zero
    pivot)."""
    p = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.integers(0, 2), min_size=p + 1, max_size=p + 1))
    widths = draw(st.lists(st.integers(1, 3), min_size=p, max_size=p))
    nonzero = small_fractions.filter(lambda x: x != 0)
    bands = []
    col = gaps[0]
    for width, gap in zip(widths, gaps[1:]):
        bands.append(tuple((j, draw(nonzero)) for j in range(col, col + width)))
        col += width + gap
    right = draw(st.lists(
        st.lists(st.integers(-2, 2).map(Fraction), min_size=p, max_size=p),
        min_size=col, max_size=col,
    ))
    return BandedFactor(col, tuple(bands)), RationalMatrix.from_rows(right)


class TestCauchyBinetAgainstOracle:
    """The band walk against the generic expansion over every column subset
    (tests/_oracles.py): same total, same terms in the same order, same
    pruned count."""

    @given(
        m_primes=st.lists(st.integers(0, 11), min_size=2, max_size=6, unique=True)
        .map(sorted),
        family=st.sampled_from([PLAIN, PLUS_QUARTER, MINUS_HALF, MINUS_THIRD]),
        kind=st.sampled_from(list(PolyKind)),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_factors(self, m_primes, family, kind):
        left, prefix = difference_factorization(m_primes, family, kind)
        certificate = cauchy_binet(left, prefix)
        assert _as_oracle(certificate) == generic_cauchy_binet(
            dense(left), prefix.to_rows()
        )
        assert certificate.fallback_count == 0

    @given(pair=banded_products())
    @settings(max_examples=80, deadline=None)
    def test_random_band_layouts(self, pair):
        left, right = pair
        certificate = cauchy_binet(left, right)
        assert _as_oracle(certificate) == generic_cauchy_binet(
            dense(left), right.to_rows()
        )
        assert certificate.total_det == det_exact(product(left, right))

    def test_generic_route_on_a_non_banded_product(self):
        left = RationalMatrix.from_rows([[1, 2, 0, 1], [0, 1, 3, 2]])
        right = RationalMatrix.from_rows([[1, 1], [2, 0], [0, 5], [1, 3]])
        total, _, _ = generic_cauchy_binet(left.to_rows(), right.to_rows())
        assert total == det_exact(product(left, right))


class TestCertifyPrefixMatrix:
    @pytest.mark.parametrize("kind", list(PolyKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("family", [PLAIN, PLUS_QUARTER, MINUS_HALF],
                             ids=lambda f: f.kind.value)
    def test_chain(self, family, kind):
        m_primes = (0, 2, 5)
        certificate = certify_prefix_matrix(m_primes, family, kind)
        parent = prefix_matrix(m_primes, family, kind)
        assert certificate.parent_det == det_exact(parent) > 0
        banded, prefix = difference_factorization(m_primes, family, kind)
        assert certificate.expansion == cauchy_binet(banded, prefix)
        assert certificate.all_terms_positive
        assert certificate.holds

    @pytest.mark.parametrize("family, indices", [
        (PLAIN, (1, 3, 6)), (PLUS_QUARTER, (0, 2, 5)), (MINUS_THIRD, (0, 2, 5)),
    ], ids=["plain", "plus", "minus"])
    def test_lattice_indices_are_prefix_lengths(self, family, indices):
        # the certificate behind `matrix --show cauchy-binet`
        lengths = [family.prefix_length(m) for m in indices]
        expected = certify_prefix_matrix(lengths, family, family.poly_kind)
        assert linalg.certify_lattice(family, indices) == expected

    def test_values_are_computed_once(self):
        certificate = certify_prefix_matrix((0, 2, 5), MINUS_THIRD, PolyKind.HOMOGENEOUS)
        term = certificate.expansion.surviving[0]
        # the product is a field, filled by the walk that sums it
        assert term.product is term.product
        signs = [t.det_left > 0 and t.det_right > 0 for t in certificate.expansion.surviving]
        assert certificate.all_terms_positive == all(signs)
        assert certificate.holds

    def test_disagreeing_routes_do_not_hold(self):
        certificate = certify_prefix_matrix((0, 1), PLAIN, PolyKind.ELEMENTARY)
        wrong = PrefixCertificate(certificate.parent_det + 1, certificate.expansion)
        assert not wrong.holds

    def test_needs_two_indices(self):
        with pytest.raises(ValueError):
            certify_prefix_matrix([3], PLAIN, PolyKind.ELEMENTARY)

    def test_reads_one_prefix_table(self, monkeypatch):
        # the factors and the matrix itself share the table of length m'_k
        # and degree k - 1
        fill, sizes = sympoly._fill, []

        def counted(family, max_len, max_deg, kind):
            sizes.append((max_len, max_deg))
            return fill(family, max_len, max_deg, kind)

        monkeypatch.setattr(sympoly, "_fill", counted)
        for kind in PolyKind:
            assert certify_prefix_matrix((0, 2, 5), MINUS_THIRD, kind).holds
        assert sizes == [(5, 2), (5, 2)]


class TestRandomizedPositivitySweep:
    """Larger index sets than the exhaustive acceptance sweep, seeded RNG."""

    def test_order_six_determinants_positive(self):
        import random

        rng = random.Random(20240817)
        families = [PLAIN, PLUS_QUARTER, MINUS_HALF]
        for _ in range(25):
            m_primes = tuple(sorted(rng.sample(range(13), 6)))
            for family in families:
                det_e = det_exact(prefix_matrix(m_primes, family, PolyKind.ELEMENTARY))
                det_h = det_exact(prefix_matrix(m_primes, family, PolyKind.HOMOGENEOUS))
                assert det_e > 0, (family.kind, m_primes)
                assert det_h > 0, (family.kind, m_primes)
                banded, prefix = difference_factorization(
                    m_primes, family, PolyKind.ELEMENTARY
                )
                assert cauchy_binet(banded, prefix).total_det == det_e
                banded, prefix = difference_factorization(
                    m_primes, family, PolyKind.HOMOGENEOUS
                )
                assert cauchy_binet(banded, prefix).total_det == det_h


class TestScalingEquivalence:
    """The coefficient matrix is a scaled, column-reversed prefix matrix."""

    @pytest.mark.parametrize(
        "indices", [(1, 2), (1, 3, 7), (2, 4, 5, 9), (1, 2, 3, 4, 6)]
    )
    def test_plain_det_factors(self, indices):
        n = len(indices)
        system = build_system(LatticeSpec(PLAIN, indices), n)
        prefix_det = det_exact(
            prefix_matrix([m - 1 for m in indices], PLAIN, PolyKind.ELEMENTARY)
        )
        row_scales = 1
        for m in indices:
            row_scales *= factorial(m - 1)
        column_scales = Fraction(1)
        for c in range(1, n + 1):
            column_scales *= Fraction(factorial(n), factorial(c))
        sign = (-1) ** (n // 2)  # sign of the column reversal
        assert det_exact(system.matrix) == sign * row_scales * column_scales * prefix_det
