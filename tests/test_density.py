import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from _oracles import density_oracle
from gammalattice import (
    BoundVariant,
    DensityBound,
    GuardExceededError,
    budget,
    density,
    density_grid,
)

PRIOR = BoundVariant.PRIOR
FIXED, FIXED_SHIFTED = BoundVariant.FIXED_N, BoundVariant.FIXED_N_SHIFTED
BIVARIATE, BIVARIATE_SHIFTED = BoundVariant.BIVARIATE, BoundVariant.BIVARIATE_SHIFTED
WINDOWED = [FIXED, FIXED_SHIFTED, BIVARIATE, BIVARIATE_SHIFTED]


def _no_cell(*args, **kwargs):
    raise AssertionError("a cell was computed")


def _value(variant, first, M):
    """The bound of one cell, read off a one-cell grid."""
    (row,) = density_grid(variant, [first], [M], include_oracle=False)
    return Fraction(row.num, row.den)


def _values(rows):
    return [Fraction(row.num, row.den) for row in rows]


class TestPriorBound:
    def test_clamped_to_zero(self):
        four, six, seven = density_grid(PRIOR, [4, 6, 7])
        assert four.value == 0
        assert four.exact
        assert four.branch == "clamped-zero"
        # sqrt(6) - 5/2 < 0 but sqrt(7) - 5/2 > 0
        assert six.value == 0
        assert mp.mpf(seven.value) > 0

    def test_perfect_square(self):
        (bound,) = density_grid(PRIOR, [25])
        assert bound.value == Fraction(1, 10)
        assert bound.exact
        assert bound.branch == "square-root-exact"

    def test_non_square_high_precision(self):
        (bound,) = density_grid(PRIOR, [7], digits=50)
        assert not bound.exact
        # frozen from (sqrt(7) - 5/2)/7 at 50 digits, kept as its digits
        with mp.workdps(60):
            reference = (mp.sqrt(7) - mp.mpf(5) / 2) / 7
            assert bound.value == mp.nstr(reference, 50)
            value = mp.mpf(bound.value)
            assert abs(value - reference) < mp.mpf("1e-45")
            assert abs(value - mp.mpf("0.0208216158663700843573736790913")) < mp.mpf("1e-25")

    def test_validation(self):
        with pytest.raises(ValueError, match="N=0 must be >= 1"):
            density_grid(PRIOR, [0])
        with pytest.raises(ValueError, match="must be >= 1"):
            density_grid(PRIOR, [30], digits=0)
        with pytest.raises(ValueError, match="must be >= 1"):
            density_grid(PRIOR, [30], digits=-3)
        # the least precision is admitted
        assert [bound.N for bound in density_grid(PRIOR, [7], digits=1)] == [7]

    def test_maximum_digits(self):
        # the cap `verify` uses: a million digits ran for seconds and printed 1 MB
        assert not density_grid(PRIOR, [7], digits=1000)[0].exact
        for digits in (1001, 1000000):
            with pytest.raises(ValueError, match="must be <= 1000"):
                density_grid(PRIOR, [7], digits=digits)
            with pytest.raises(ValueError, match="must be <= 1000"):
                density_grid(BIVARIATE, [3], [2], digits=digits)


class TestFixedOrderBounds:
    def test_plain_examples(self):
        assert _value(FIXED, 2, 1) == 0
        assert _value(FIXED, 3, 10) == Fraction(4, 5)
        assert _value(FIXED, 5, 3) == 0
        assert density_grid(FIXED, [5], [3])[0].branch == "M<=n-1"

    def test_shifted_examples(self):
        assert _value(FIXED_SHIFTED, 1, 0) == 0
        assert _value(FIXED_SHIFTED, 2, 9) == Fraction(4, 5)
        assert _value(FIXED_SHIFTED, 4, 2) == 0
        assert density_grid(FIXED_SHIFTED, [4], [2])[0].branch == "M+1<=n"

    def test_validation(self):
        for variant, first, M, message in (
            (FIXED, 1, 5, "n=1 must be >= 2"),
            (FIXED, 2, 0, "M=0 must be >= 1"),
            (FIXED_SHIFTED, 0, 5, "n=0 must be >= 1"),
            (FIXED_SHIFTED, 1, -1, "M=-1 must be >= 0"),
        ):
            with pytest.raises(ValueError, match=message):
                density_grid(variant, [first], [M])

    def test_abstract_formulas(self):
        # beta_n(M) = 1 - min{n-1, M}/M and ~beta_n(M) = 1 - min{n, M+1}/(M+1)
        rows = density_grid(FIXED, range(2, 31), range(1, 31))
        assert len(rows) == 29 * 30
        for n, M, num, den, *_ in rows:
            assert Fraction(num, den) == 1 - Fraction(min(n - 1, M), M)
        rows = density_grid(FIXED_SHIFTED, range(1, 31), range(31))
        assert len(rows) == 30 * 31
        for n, M, num, den, *_ in rows:
            assert Fraction(num, den) == 1 - Fraction(min(n, M + 1), M + 1)

    def test_monotone_in_window_size(self):
        for variant, Ms in ((FIXED, range(1, 31)), (FIXED_SHIFTED, range(31))):
            for n in range(1 + variant.offset, 7):
                values = _values(density_grid(variant, [n], Ms))
                assert all(a <= b for a, b in zip(values, values[1:]))


class TestBivariateBounds:
    def test_plain_examples(self):
        assert _value(BIVARIATE, 10, 10) == Fraction(1, 2)
        assert _value(BIVARIATE, 10, 9) == Fraction(4, 9)
        assert _value(BIVARIATE, 50, 10) == Fraction(9, 98)

    def test_shifted_examples(self):
        assert _value(BIVARIATE_SHIFTED, 4, 2) == Fraction(1, 4)
        assert _value(BIVARIATE_SHIFTED, 1, 0) == 0

    def test_branch_continuity(self):
        # at M = N-1 both closed-form branches coincide
        for N in range(2, 60):
            M = N - 1
            low = Fraction(M - 1, 2 * (N - 1))
            high = 1 - Fraction(N, 2 * M) if M >= 1 else None
            if M >= 1:
                assert low == high
                assert _value(BIVARIATE, N, M) == low
        # at M + 1 = N both shifted branches coincide
        for N in range(1, 60):
            M = N - 1
            low = Fraction(M, 2 * N)
            high = 1 - Fraction(N + 1, 2 * (M + 1))
            assert low == high
            assert _value(BIVARIATE_SHIFTED, N, M) == low

    def test_oracle_examples(self):
        for variant, N, M, value in (
            (BIVARIATE, 10, 10, Fraction(1, 2)),
            (BIVARIATE_SHIFTED, 4, 2, Fraction(1, 4)),
            (BIVARIATE, 2, 1, 0),
        ):
            (row,) = density_grid(variant, [N], [M])
            assert Fraction(row.oracle_num, row.oracle_den) == value

    def test_closed_form_equals_oracle_moderate_grid(self):
        for variant, low_N, low_M in ((BIVARIATE, 2, 1), (BIVARIATE_SHIFTED, 1, 0)):
            rows = density_grid(variant, range(low_N, 41), range(low_M, 41))
            assert len(rows) == (41 - low_N) * (41 - low_M)
            for row in rows:
                assert row.num * row.oracle_den == row.oracle_num * row.den

    def test_values_within_unit_interval(self):
        samples = _values(density_grid(BIVARIATE, [2, 7, 30], [1, 6, 50]))
        samples += _values(density_grid(BIVARIATE_SHIFTED, [1, 7, 30], [0, 6, 50]))
        samples += _values(density_grid(FIXED, [2, 9], [1, 40]))
        samples += [bound.value for bound in density_grid(PRIOR, [1, 25, 169])]
        assert len(samples) == 9 + 9 + 4 + 3
        assert all(0 <= value <= 1 for value in samples)

    def test_diagonal_approaches_one_half(self):
        for N in (10, 100, 200):
            value = _value(BIVARIATE, N, N)
            assert abs(value - Fraction(1, 2)) <= Fraction(1, 2 * (N - 1))
            assert value == Fraction(1, 2)

    def test_nonincreasing_in_order_window(self):
        for M in (1, 5, 20):
            values = _values(density_grid(BIVARIATE, range(2, 50), [M]))
            assert all(a >= b for a, b in zip(values, values[1:]))

    @given(
        Ns=st.sets(st.integers(2, 60), min_size=1, max_size=12).map(sorted),
        M=st.integers(1, 60),
        variant=st.sampled_from([BIVARIATE, BIVARIATE_SHIFTED]),
    )
    @settings(max_examples=80, deadline=None)
    def test_column_equals_per_cell_sums(self, Ns, M, variant):
        # the oracle's column, one running sum at M, against the min-sum of
        # one cell at a time, from scratch
        rows = density_grid(variant, Ns, [M])
        column = [Fraction(row.oracle_num, row.oracle_den) for row in rows]
        assert column == [density_oracle(variant, N, M) for N in Ns]

    def test_degenerate_cells_rejected(self):
        for variant, N, M in (
            (BIVARIATE, 1, 5),
            (BIVARIATE, 3, 0),
            (BIVARIATE, 1, 1),
            (BIVARIATE_SHIFTED, 0, 3),
        ):
            for oracle in (False, True):
                with pytest.raises(ValueError, match="must be >="):
                    density_grid(variant, [N], [M], include_oracle=oracle)


class TestDensityGrid:
    def test_three_by_three(self):
        rows = density_grid(BIVARIATE, range(4, 7), range(2, 5))
        assert len(rows) == 9
        for row in rows:
            value = density_oracle(BIVARIATE, row.first, row.M)
            assert Fraction(row.num, row.den) == value
            assert row.branch == ("M<=N-1" if row.M < row.first else "M>N-1")
            assert Fraction(row.oracle_num, row.oracle_den) == value

    @given(
        variant=st.sampled_from(WINDOWED),
        firsts=st.lists(st.integers(0, 40), min_size=1, max_size=8),
        Ms=st.lists(st.integers(0, 40), min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_cells_equal_the_density_oracle(self, variant, firsts, Ms):
        # each cell's pair, and its oracle's pair where there is one, is the
        # abstract's caps summed one order at a time
        low_first, low_M = (1, 0) if variant.shifted else (2, 1)
        firsts = [low_first + a for a in firsts]
        Ms = [low_M + b for b in Ms]
        rows = density_grid(variant, firsts, Ms)
        assert len(rows) == len(set(firsts)) * len(set(Ms))
        for row in rows:
            value = density_oracle(variant, row.first, row.M)
            assert Fraction(row.num, row.den) == value
            if variant.has_oracle:
                assert Fraction(row.oracle_num, row.oracle_den) == value
            else:
                assert (row.oracle_num, row.oracle_den) == (None, None)

    def test_non_integer_coordinates_refused(self, monkeypatch):
        # 2.5 gave the "pair" (1.5, 3), and 5/2 died inside islice; each is
        # now refused as operator.index refuses it, before any cell runs
        for name in ("_window", "_min_sum_pairs", "_prior_bound"):
            monkeypatch.setattr(density, name, _no_cell)
        for call in (
            lambda: density_grid(FIXED, [2.5], [3]),
            lambda: density_grid(BIVARIATE, [Fraction(5, 2)], [3]),
            lambda: density_grid(BIVARIATE_SHIFTED, [3], [1.0]),
            lambda: density_grid(PRIOR, [7.0]),
            lambda: density_grid(PRIOR, [7], digits=50.0),
        ):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call()

    def test_empty_ranges(self):
        assert density_grid(BIVARIATE, [], []) == []
        assert density_grid(PRIOR, []) == []

    @pytest.mark.parametrize(
        "variant",
        [v for v in BoundVariant if len(v.ranges) == 2],
        ids=lambda v: v.value,
    )
    def test_missing_second_range_rejected(self, variant):
        for second in (None, []):
            with pytest.raises(ValueError, match="nonempty M range"):
                density_grid(variant, [3], second)
        with pytest.raises(ValueError, match="nonempty M range"):
            density_grid(variant, [])

    def test_sorted_by_coordinates(self):
        rows = density_grid(BoundVariant.FIXED_N, [4, 2], [9, 1])
        coords = [(r.first, r.M) for r in rows]
        assert coords == [(2, 1), (2, 9), (4, 1), (4, 9)]

    def test_prior_rows(self):
        rows = density_grid(PRIOR, [4, 25, 7])
        assert [r.N for r in rows] == [4, 7, 25]
        assert rows[2].value == Fraction(1, 10)
        assert all(isinstance(r, DensityBound) for r in rows)

    @pytest.mark.parametrize(
        "variant",
        [v for v in BoundVariant if len(v.ranges) == 2],
        ids=lambda v: v.value,
    )
    def test_two_label_objects_per_grid(self, variant):
        rows = density_grid(variant, range(2, 12), range(1, 12))
        labels = {id(row.branch): row.branch for row in rows}
        assert len(labels) == 2
        low, high = variant.branches
        assert all(label is low or label is high for label in labels.values())

    def test_cell_budget(self, monkeypatch):
        monkeypatch.setattr(budget, "MAX_CELLS", 12)
        assert len(density_grid(BIVARIATE, range(2, 5), range(1, 5))) == 12
        assert len(density_grid(PRIOR, range(1, 13))) == 12
        # duplicates count once, as they are computed once
        assert len(density_grid(FIXED, [2, 3, 3, 2], range(1, 7))) == 12

        # a cell runs the window rule, the oracle or the prior bound
        for name in ("_window", "_min_sum_pairs", "_prior_bound"):
            monkeypatch.setattr(density, name, _no_cell)
        with pytest.raises(GuardExceededError, match=r"^13 grid cells are over the budget 12$"):
            density_grid(BIVARIATE_SHIFTED, range(1, 14), [0])
        with pytest.raises(GuardExceededError, match=r"^13 grid cells are over the budget 12$"):
            density_grid(PRIOR, range(1, 14))
        # a range is sized, not built: a set of 10**6 values takes about 50 MB
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="over the budget"):
                density_grid(BIVARIATE, range(2, 10**6 + 2), range(1, 10**6 + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_peak_memory_is_the_rows(self):
        # at the cell cap the oracle once held every M's column and their
        # transpose beside the rows: a peak of 1.29 times the rows' size
        tracemalloc.start()
        try:
            rows = density_grid(BIVARIATE, range(2, 318), range(1, 317))
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 316 * 316
        assert peak <= 1.1 * size

    def test_weighted_cells(self, monkeypatch):
        monkeypatch.setattr(budget, "MAX_CELLS", 12)
        monkeypatch.setattr(density, "_min_sum_pairs", _no_cell)
        # a prior cell weighs one more per 250 digits
        assert len(density_grid(PRIOR, range(1, 7), digits=250)) == 6
        with pytest.raises(GuardExceededError, match=r"^7 grid cells of weight 2 are over"):
            density_grid(PRIOR, range(1, 8), digits=250)
        # the oracle sums the orders 2..10 at each of 2 values of M
        assert len(density_grid(BIVARIATE, [10], [1, 2], include_oracle=False)) == 2
        monkeypatch.setattr(density, "_window", _no_cell)
        with pytest.raises(GuardExceededError, match=r"^18 grid cells are over the budget 12$"):
            density_grid(BIVARIATE, [10], [1, 2])
        # a range past sys.maxsize is sized, not listed
        with pytest.raises(GuardExceededError, match=rf"^{10**23} grid cells are over"):
            density_grid(PRIOR, range(10**23))

    def test_long_range_is_counted(self, monkeypatch):
        # a range past sys.maxsize, where len() overflows, not starting at 0
        # and of step 3: 7, 10, ..., 10**23 - 3
        for name in ("_window", "_min_sum_pairs", "_prior_bound"):
            monkeypatch.setattr(density, name, _no_cell)
        count = 33333333333333333333331
        with pytest.raises(GuardExceededError, match=rf"^{count} grid cells are over"):
            density_grid(PRIOR, range(7, 10**23, 3))
        with pytest.raises(GuardExceededError, match=rf"^{2 * count} grid cells are over"):
            density_grid(FIXED, range(7, 10**23, 3), [1, 2])

    def test_oracle_can_be_skipped(self):
        rows = density_grid(
            BIVARIATE_SHIFTED, [3], [1], include_oracle=False
        )
        assert (rows[0].oracle_num, rows[0].oracle_den) == (None, None)
