import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from gammalattice import (
    BoundVariant,
    GuardExceededError,
    bivariate_min_sum,
    density,
    density_grid,
    prior_univariate_bound,
    window_bound,
)

FIXED, FIXED_SHIFTED = BoundVariant.FIXED_N, BoundVariant.FIXED_N_SHIFTED


def _no_cell(*args, **kwargs):
    raise AssertionError("a cell was computed")


BIVARIATE, BIVARIATE_SHIFTED = BoundVariant.BIVARIATE, BoundVariant.BIVARIATE_SHIFTED


class TestPriorBound:
    def test_clamped_to_zero(self):
        bound = prior_univariate_bound(4)
        assert bound.value == 0
        assert bound.exact
        assert bound.branch == "clamped-zero"
        # sqrt(6) - 5/2 < 0 but sqrt(7) - 5/2 > 0
        assert prior_univariate_bound(6).value == 0
        assert prior_univariate_bound(7).value > 0

    def test_perfect_square(self):
        bound = prior_univariate_bound(25)
        assert bound.value == Fraction(1, 10)
        assert bound.exact
        assert bound.branch == "square-root-exact"

    def test_non_square_high_precision(self):
        bound = prior_univariate_bound(7, digits=50)
        assert not bound.exact
        # frozen from (sqrt(7) - 5/2)/7 at 50 digits
        with mp.workdps(60):
            reference = (mp.sqrt(7) - mp.mpf(5) / 2) / 7
            assert abs(bound.value - reference) < mp.mpf("1e-45")
            assert abs(bound.value - mp.mpf("0.0208216158663700843573736790913")) < mp.mpf("1e-25")

    def test_validation(self):
        with pytest.raises(ValueError):
            prior_univariate_bound(0)
        with pytest.raises(ValueError):
            prior_univariate_bound(30, digits=0)
        with pytest.raises(ValueError):
            density_grid(BoundVariant.PRIOR, [30], digits=-3)

    def test_maximum_digits(self):
        # the cap `verify` uses: a million digits ran for seconds and printed 1 MB
        assert not prior_univariate_bound(7, digits=1000).exact
        for digits in (1001, 1000000):
            with pytest.raises(ValueError, match="must be <= 1000"):
                prior_univariate_bound(7, digits=digits)
            with pytest.raises(ValueError, match="must be <= 1000"):
                density_grid(BoundVariant.BIVARIATE, [3], [2], digits=digits)


class TestFixedOrderBounds:
    def test_plain_examples(self):
        assert window_bound(FIXED, 2, 1).value == 0
        assert window_bound(FIXED, 3, 10).value == Fraction(4, 5)
        assert window_bound(FIXED, 5, 3).value == 0
        assert window_bound(FIXED, 5, 3).branch == "M<=n-1"

    def test_shifted_examples(self):
        assert window_bound(FIXED_SHIFTED, 1, 0).value == 0
        assert window_bound(FIXED_SHIFTED, 2, 9).value == Fraction(4, 5)
        assert window_bound(FIXED_SHIFTED, 4, 2).value == 0
        assert window_bound(FIXED_SHIFTED, 4, 2).branch == "M+1<=n"

    def test_validation(self):
        with pytest.raises(ValueError):
            window_bound(FIXED, 1, 5)
        with pytest.raises(ValueError):
            window_bound(FIXED, 2, 0)
        with pytest.raises(ValueError):
            window_bound(FIXED_SHIFTED, 0, 5)
        with pytest.raises(ValueError):
            window_bound(FIXED_SHIFTED, 1, -1)

    def test_abstract_formulas(self):
        # beta_n(M) = 1 - min{n-1, M}/M and ~beta_n(M) = 1 - min{n, M+1}/(M+1)
        for n in range(2, 31):
            for M in range(1, 31):
                assert window_bound(FIXED, n, M).value == 1 - Fraction(min(n - 1, M), M)
        for n in range(1, 31):
            for M in range(0, 31):
                expected = 1 - Fraction(min(n, M + 1), M + 1)
                assert window_bound(FIXED_SHIFTED, n, M).value == expected

    def test_monotone_in_window_size(self):
        for n in range(2, 7):
            values = [window_bound(FIXED, n, M).value for M in range(1, 31)]
            assert all(a <= b for a, b in zip(values, values[1:]))
        for n in range(1, 7):
            values = [window_bound(FIXED_SHIFTED, n, M).value for M in range(31)]
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestBivariateBounds:
    def test_plain_examples(self):
        assert window_bound(BIVARIATE, 10, 10).value == Fraction(1, 2)
        assert window_bound(BIVARIATE, 10, 9).value == Fraction(4, 9)
        assert window_bound(BIVARIATE, 50, 10).value == Fraction(9, 98)

    def test_shifted_examples(self):
        assert window_bound(BIVARIATE_SHIFTED, 4, 2).value == Fraction(1, 4)
        assert window_bound(BIVARIATE_SHIFTED, 1, 0).value == 0

    def test_branch_continuity(self):
        # at M = N-1 both closed-form branches coincide
        for N in range(2, 60):
            M = N - 1
            low = Fraction(M - 1, 2 * (N - 1))
            high = 1 - Fraction(N, 2 * M) if M >= 1 else None
            if M >= 1:
                assert low == high
                assert window_bound(BIVARIATE, N, M).value == low
        # at M + 1 = N both shifted branches coincide
        for N in range(1, 60):
            M = N - 1
            low = Fraction(M, 2 * N)
            high = 1 - Fraction(N + 1, 2 * (M + 1))
            assert low == high
            assert window_bound(BIVARIATE_SHIFTED, N, M).value == low

    def test_oracle_examples(self):
        assert bivariate_min_sum(BIVARIATE, [10], 10)[0] == Fraction(1, 2)
        assert bivariate_min_sum(BIVARIATE_SHIFTED, [4], 2)[0] == Fraction(1, 4)
        assert bivariate_min_sum(BIVARIATE, [2], 1)[0] == 0

    def test_closed_form_equals_oracle_moderate_grid(self):
        for variant, low_N, low_M in ((BIVARIATE, 2, 1), (BIVARIATE_SHIFTED, 1, 0)):
            for N in range(low_N, 41):
                for M in range(low_M, 41):
                    closed = window_bound(variant, N, M).value
                    assert closed == bivariate_min_sum(variant, [N], M)[0]

    def test_values_within_unit_interval(self):
        samples = [
            window_bound(BIVARIATE, N, M).value for N in (2, 7, 30) for M in (1, 6, 50)
        ]
        samples += [
            window_bound(BIVARIATE_SHIFTED, N, M).value
            for N in (1, 7, 30)
            for M in (0, 6, 50)
        ]
        samples += [window_bound(FIXED, n, M).value for n in (2, 9) for M in (1, 40)]
        samples += [prior_univariate_bound(N).value for N in (1, 25, 169)]
        assert all(0 <= value <= 1 for value in samples)

    def test_diagonal_approaches_one_half(self):
        for N in (10, 100, 200):
            value = window_bound(BIVARIATE, N, N).value
            assert abs(value - Fraction(1, 2)) <= Fraction(1, 2 * (N - 1))
            assert value == Fraction(1, 2)

    def test_nonincreasing_in_order_window(self):
        for M in (1, 5, 20):
            values = [window_bound(BIVARIATE, N, M).value for N in range(2, 50)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    @given(
        Ns=st.sets(st.integers(2, 60), min_size=1, max_size=12).map(sorted),
        M=st.integers(1, 60),
        variant=st.sampled_from([BIVARIATE, BIVARIATE_SHIFTED]),
    )
    @settings(max_examples=80, deadline=None)
    def test_column_equals_per_cell_sums(self, Ns, M, variant):
        # the min-sum of one cell at a time, from scratch
        def cell(N):
            if variant is BIVARIATE:
                cap = sum(min(n - 1, M) for n in range(2, N + 1))
                return 1 - Fraction(cap, (N - 1) * M)
            cap = sum(min(n, M + 1) for n in range(1, N + 1))
            return 1 - Fraction(cap, N * (M + 1))

        assert bivariate_min_sum(variant, Ns, M) == [cell(N) for N in Ns]

    def test_column_needs_ascending_orders(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            bivariate_min_sum(BIVARIATE, [5, 3], 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            bivariate_min_sum(BIVARIATE_SHIFTED, [3, 3], 4)
        assert bivariate_min_sum(BIVARIATE, [], 4) == []

    def test_degenerate_cells_rejected(self):
        with pytest.raises(ValueError):
            window_bound(BIVARIATE, 1, 5)
        with pytest.raises(ValueError):
            window_bound(BIVARIATE, 3, 0)
        with pytest.raises(ValueError):
            window_bound(BIVARIATE_SHIFTED, 0, 3)
        with pytest.raises(ValueError):
            bivariate_min_sum(BIVARIATE, [1], 1)
        with pytest.raises(ValueError, match="no lattice window"):
            window_bound(BoundVariant.PRIOR, 30, 1)
        # the oracle takes a bivariate variant, not a window name such as "plain"
        for variant in (BoundVariant.PRIOR, FIXED, FIXED_SHIFTED, "plain"):
            with pytest.raises(ValueError, match="no min-sum oracle"):
                bivariate_min_sum(variant, [3], 3)


class TestDensityGrid:
    def test_three_by_three(self):
        rows = density_grid(BoundVariant.BIVARIATE, range(4, 7), range(2, 5))
        assert len(rows) == 9
        for row in rows:
            assert row.oracle == row.bound.value

    def test_empty_ranges(self):
        assert density_grid(BoundVariant.BIVARIATE, [], []) == []
        assert density_grid(BoundVariant.PRIOR, []) == []

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
        coords = [(r.bound.params["n"], r.bound.params["M"]) for r in rows]
        assert coords == [(2, 1), (2, 9), (4, 1), (4, 9)]

    def test_prior_rows(self):
        rows = density_grid(BoundVariant.PRIOR, [4, 25, 7])
        assert [r.bound.params["N"] for r in rows] == [4, 7, 25]
        assert rows[2].bound.value == Fraction(1, 10)
        assert rows[0].oracle is None

    @pytest.mark.parametrize(
        "variant",
        [v for v in BoundVariant if len(v.ranges) == 2],
        ids=lambda v: v.value,
    )
    def test_two_label_objects_per_grid(self, variant):
        rows = density_grid(variant, range(2, 12), range(1, 12))
        labels = {id(row.bound.branch): row.bound.branch for row in rows}
        assert len(labels) == 2
        low, high = variant.branches
        assert all(label is low or label is high for label in labels.values())

    def test_cell_budget(self, monkeypatch):
        monkeypatch.setattr(density, "MAX_GRID_CELLS", 12)
        assert len(density_grid(BIVARIATE, range(2, 5), range(1, 5))) == 12
        assert len(density_grid(BoundVariant.PRIOR, range(1, 13))) == 12
        # duplicates count once, as they are computed once
        assert len(density_grid(FIXED, [2, 3, 3, 2], range(1, 7))) == 12

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(density, "window_bound", no_cell)
        monkeypatch.setattr(density, "prior_univariate_bound", no_cell)
        with pytest.raises(GuardExceededError, match=r"^13 grid cells are over the budget 12$"):
            density_grid(BIVARIATE_SHIFTED, range(1, 14), [0])
        with pytest.raises(GuardExceededError, match=r"^13 grid cells are over the budget 12$"):
            density_grid(BoundVariant.PRIOR, range(1, 14))
        # a range is sized, not built: a set of 10**6 values takes about 50 MB
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="over the budget"):
                density_grid(BIVARIATE, range(2, 10**6 + 2), range(1, 10**6 + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_weighted_cells(self, monkeypatch):
        monkeypatch.setattr(density, "MAX_GRID_CELLS", 12)
        monkeypatch.setattr(density, "bivariate_min_sum", _no_cell)
        # a prior cell weighs one more per 250 digits
        assert len(density_grid(BoundVariant.PRIOR, range(1, 7), digits=250)) == 6
        with pytest.raises(GuardExceededError, match=r"^7 grid cells of weight 2 are over"):
            density_grid(BoundVariant.PRIOR, range(1, 8), digits=250)
        # the oracle sums the orders 2..10 at each of 2 values of M
        assert len(density_grid(BIVARIATE, [10], [1, 2], include_oracle=False)) == 2
        monkeypatch.setattr(density, "window_bound", _no_cell)
        with pytest.raises(GuardExceededError, match=r"^18 grid cells are over the budget 12$"):
            density_grid(BIVARIATE, [10], [1, 2])
        # a range past sys.maxsize is sized, not listed
        with pytest.raises(GuardExceededError, match=rf"^{10**23} grid cells are over"):
            density_grid(BoundVariant.PRIOR, range(10**23))

    def test_oracle_can_be_skipped(self):
        rows = density_grid(
            BoundVariant.BIVARIATE_SHIFTED, [3], [1], include_oracle=False
        )
        assert rows[0].oracle is None
