from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammalattice import (
    ArgumentFamily,
    FamilyKind,
    GuardExceededError,
    InvalidKappaError,
    MissingKappaError,
    PolyKind,
    SpecMismatchError,
    budget,
    elementary_prefix,
    homogeneous_prefix,
)

from _oracles import elementary_bruteforce, homogeneous_bruteforce

PLAIN = ArgumentFamily(FamilyKind.PLAIN)
PLUS_THIRD = ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(1, 3))
MINUS_HALF = ArgumentFamily(FamilyKind.MINUS_SHIFT, Fraction(1, 2))

ALL_FAMILIES = [
    PLAIN,
    PLUS_THIRD,
    MINUS_HALF,
    ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(5, 6)),
    ArgumentFamily(FamilyKind.MINUS_SHIFT, Fraction(2, 3)),
]

def variables(family, length):
    """x_1 .. x_length of the family."""
    return tuple(family.x(s) for s in range(1, length + 1))


small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)


class TestArgumentFamily:
    def test_plain_variables(self):
        assert variables(PLAIN, 3) == (Fraction(1), Fraction(1, 2), Fraction(1, 3))

    def test_plus_shift_variables(self):
        # x_s = 1/(s - 1 + 1/3)
        assert variables(PLUS_THIRD, 3) == (Fraction(3), Fraction(3, 4), Fraction(3, 7))

    def test_minus_shift_variables(self):
        # x_s = 1/(s - 1/2)
        assert variables(MINUS_HALF, 3) == (Fraction(2), Fraction(2, 3), Fraction(2, 5))

    def test_all_variables_positive(self):
        for family in ALL_FAMILIES:
            assert all(x > 0 for x in variables(family, 12))

    def test_missing_kappa(self):
        with pytest.raises(MissingKappaError):
            ArgumentFamily(FamilyKind.PLUS_SHIFT)
        with pytest.raises(MissingKappaError):
            ArgumentFamily(FamilyKind.MINUS_SHIFT)

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)])
    def test_invalid_kappa(self, bad):
        with pytest.raises(InvalidKappaError):
            ArgumentFamily(FamilyKind.PLUS_SHIFT, bad)

    def test_plain_rejects_kappa(self):
        with pytest.raises(InvalidKappaError):
            ArgumentFamily(FamilyKind.PLAIN, Fraction(1, 2))

    def test_variable_index_positive(self):
        with pytest.raises(ValueError):
            PLAIN.x(0)

    def test_shift_errors_are_spec_mismatches(self):
        assert issubclass(MissingKappaError, SpecMismatchError)
        assert issubclass(InvalidKappaError, SpecMismatchError)

    @pytest.mark.parametrize(
        "family,first,basis,kind,points",
        [
            (PLAIN, 1, Fraction(1), PolyKind.ELEMENTARY, (1, 2, 3)),
            (PLUS_THIRD, 0, Fraction(1, 3), PolyKind.ELEMENTARY,
             (Fraction(1, 3), Fraction(4, 3), Fraction(7, 3))),
            (MINUS_HALF, 0, Fraction(1, 2), PolyKind.HOMOGENEOUS,
             (Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2))),
        ],
        ids=["plain", "plus", "minus"],
    )
    def test_family_facts(self, family, first, basis, kind, points):
        assert family.min_index == first
        assert family.basis_point == basis
        assert family.poly_kind is kind
        ms = range(first, first + 3)
        assert tuple(family.point(m) for m in ms) == points
        assert [family.prefix_length(m) for m in ms] == [0, 1, 2]
        with pytest.raises(ValueError):
            family.prefix_length(first - 1)

    def test_scale_is_gamma_ratio(self):
        assert [PLAIN.scale(m) for m in range(1, 6)] == [1, 1, 2, 6, 24]
        # Gamma(7/3)/Gamma(1/3) and Gamma(-3/2)/Gamma(1/2)
        assert PLUS_THIRD.scale(2) == Fraction(1, 3) * Fraction(4, 3)
        assert MINUS_HALF.scale(2) == 1 / (Fraction(-1, 2) * Fraction(-3, 2))


class TestPrefixTables:
    def test_kind_selects_its_builder(self):
        assert PolyKind.ELEMENTARY.table(PLUS_THIRD, 4, 3) == elementary_prefix(
            PLUS_THIRD, 4, 3
        )
        assert PolyKind.HOMOGENEOUS.table(PLUS_THIRD, 4, 3) == homogeneous_prefix(
            PLUS_THIRD, 4, 3
        )

    def test_elementary_plain_frozen(self):
        # computed with elementary_bruteforce over (1, 1/2, 1/3)
        table = elementary_prefix(PLAIN, 3, 3)
        assert table.value(3, 1) == Fraction(11, 6)
        assert table.value(3, 2) == Fraction(1)
        assert table.value(3, 3) == Fraction(1, 6)

    def test_homogeneous_minus_frozen(self):
        # variables (2, 2/3); monomials enumerated by hand for degree 2
        table = homogeneous_prefix(MINUS_HALF, 2, 2)
        assert table.value(2, 1) == Fraction(8, 3)
        assert table.value(2, 2) == Fraction(52, 9)
        assert table.value(1, 2) == Fraction(4)  # single variable: x_1^2

    @pytest.mark.parametrize("builder", [elementary_prefix, homogeneous_prefix])
    def test_empty_prefix_conventions(self, builder):
        table = builder(PLAIN, 4, 4)
        assert table.value(0, 0) == 1
        for v in range(1, 5):
            assert table.value(0, v) == 0
        for j in range(5):
            assert table.value(j, 0) == 1

    def test_elementary_vanishes_above_length(self):
        table = elementary_prefix(PLUS_THIRD, 5, 7)
        for j in range(6):
            for v in range(j + 1, 8):
                assert table.value(j, v) == 0

    def test_positivity(self):
        for family in ALL_FAMILIES:
            e = elementary_prefix(family, 8, 8)
            h = homogeneous_prefix(family, 8, 8)
            for j in range(9):
                for v in range(9):
                    assert e.value(j, v) >= 0
                    assert h.value(j, v) >= 0
                    if v <= j:
                        assert e.value(j, v) > 0
                    if j >= 1 or v == 0:
                        assert h.value(j, v) > 0

    def test_bounds_checked(self):
        table = elementary_prefix(PLAIN, 2, 2)
        with pytest.raises(IndexError):
            table.value(3, 0)
        with pytest.raises(IndexError):
            table.value(0, 3)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            elementary_prefix(PLAIN, -1, 2)
        with pytest.raises(ValueError):
            homogeneous_prefix(PLAIN, 2, -1)


class TestTableBudget:
    @pytest.mark.parametrize("kind", list(PolyKind))
    @pytest.mark.parametrize("family", ALL_FAMILIES + [
        ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(999, 1000)),
        ArgumentFamily(FamilyKind.MINUS_SHIFT, Fraction(1, 1000)),
    ])
    def test_entry_bits_bound_the_coefficients(self, family, kind):
        # every entry times the family scale at its length, as a coefficient
        # reads it, fits in the estimate the budget weighs
        for length, degree in ((1, 0), (1, 3), (4, 2), (12, 5), (30, 12)):
            table = kind.table(family, length, degree)
            bound = kind.entry_bits(family, length, degree)
            for j, row in enumerate(table.values):
                scale = family.scale(family.min_index + j)
                for value in row:
                    exact = value * scale
                    assert exact.numerator.bit_length() <= bound
                    assert exact.denominator.bit_length() <= bound

    def test_refused_before_any_row_is_filled(self, monkeypatch):
        def no_row(*args):
            raise AssertionError("a row was filled")

        # degree 2 over 20,000 plain variables took 28 s
        monkeypatch.setattr(ArgumentFamily, "x", no_row)
        for build, length in ((elementary_prefix, 19999), (homogeneous_prefix, 10**23)):
            with pytest.raises(GuardExceededError, match=(
                rf"^the {build.__name__.split('_')[0]}\w* table of length {length} "
                rf"and degree 2 is over the work budget {budget.MAX_WORK}$"
            )):
                build(PLAIN, length, 2)

    def test_budget_is_the_estimated_work(self, monkeypatch):
        # 5 x 3 cells of short entries weigh 40 fixed units and one more
        work = PolyKind.ELEMENTARY.table_work(PLAIN, 4, 2)
        assert work == 15 * 41
        monkeypatch.setattr(budget, "MAX_WORK", work)
        assert elementary_prefix(PLAIN, 4, 2).max_len == 4
        with pytest.raises(GuardExceededError):
            elementary_prefix(PLAIN, 5, 2)


class TestBruteForce:
    def test_elementary_examples(self):
        assert elementary_bruteforce([Fraction(1), Fraction(1, 2)], 2) == Fraction(1, 2)
        assert elementary_bruteforce([], 0) == 1
        assert elementary_bruteforce([Fraction(1, 3)], 2) == 0

    def test_homogeneous_examples(self):
        assert homogeneous_bruteforce([Fraction(2)], 3) == 8
        assert homogeneous_bruteforce([Fraction(2), Fraction(2, 3)], 1) == Fraction(8, 3)
        assert homogeneous_bruteforce([], 2) == 0

    def test_elementary_guard(self):
        xs = [Fraction(1)] * 21
        with pytest.raises(GuardExceededError):
            elementary_bruteforce(xs, 2)

    def test_homogeneous_guard(self):
        xs = [Fraction(1)] * 30
        with pytest.raises(GuardExceededError):
            homogeneous_bruteforce(xs, 10)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            elementary_bruteforce([Fraction(1)], -1)
        with pytest.raises(ValueError):
            homogeneous_bruteforce([Fraction(1)], -1)


class TestRecurrenceAgainstOracle:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.kind.value}-{f.kappa}")
    def test_elementary_table_matches_bruteforce(self, family):
        table = elementary_prefix(family, 8, 8)
        for j in range(9):
            prefix = variables(family, j)
            for v in range(9):
                assert table.value(j, v) == elementary_bruteforce(prefix, v)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.kind.value}-{f.kappa}")
    def test_homogeneous_table_matches_bruteforce(self, family):
        table = homogeneous_prefix(family, 8, 8)
        for j in range(9):
            prefix = variables(family, j)
            for v in range(9):
                assert table.value(j, v) == homogeneous_bruteforce(prefix, v)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.kind.value}-{f.kappa}")
    def test_newton_duality(self, family):
        # sum_{i=0}^{k} (-1)^i e_i h_{k-i} == 0 for every prefix and k >= 1
        e = elementary_prefix(family, 8, 8)
        h = homogeneous_prefix(family, 8, 8)
        for j in range(9):
            for k in range(1, 9):
                total = sum(
                    (-1) ** i * e.value(j, i) * h.value(j, k - i) for i in range(k + 1)
                )
                assert total == 0


@given(xs=st.lists(small_fractions, max_size=6), k=st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_newton_duality_bruteforce_only(xs, k):
    # the duality holds for arbitrary variable lists, independent of any table
    total = sum(
        (-1) ** i * elementary_bruteforce(xs, i) * homogeneous_bruteforce(xs, k - i)
        for i in range(k + 1)
    )
    assert total == 0


@given(
    xs=st.lists(small_fractions, max_size=6),
    y=small_fractions,
    v=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_bruteforce_one_variable_step(xs, y, v):
    # appending one variable follows the same step the tables are built from
    assert elementary_bruteforce(xs + [y], v) == elementary_bruteforce(
        xs, v
    ) + y * elementary_bruteforce(xs, v - 1)
    assert homogeneous_bruteforce(xs + [y], v) == homogeneous_bruteforce(
        xs, v
    ) + y * homogeneous_bruteforce(xs + [y], v - 1)
