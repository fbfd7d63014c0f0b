from fractions import Fraction
from math import factorial

import pytest

from gammalattice import (
    KNOWN_TRANSCENDENTAL_SHIFTS,
    ArgumentFamily,
    FamilyKind,
    InvalidKappaError,
    LatticeSpec,
    SpecMismatchError,
    build_system,
    coeff_minus,
    coeff_plain,
    coeff_plus,
    coefficient,
    coefficient_table,
    rational_gamma_ratio,
)
from gammalattice import coeffs as coeffs_module

from _oracles import (
    minus_coefficient_oracle,
    plain_coefficient_oracle,
    plus_coefficient_oracle,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)

# (family, shift, oracle taking (n, ell, m)) for every family
FAMILIES = [
    (FamilyKind.PLAIN, None, plain_coefficient_oracle),
    (
        FamilyKind.PLUS_SHIFT,
        THIRD,
        lambda n, ell, m: plus_coefficient_oracle(n, ell, m, THIRD),
    ),
    (
        FamilyKind.MINUS_SHIFT,
        THIRD,
        lambda n, ell, m: minus_coefficient_oracle(n, ell, m, THIRD),
    ),
]
FAMILY_IDS = ["plain", "plus", "minus"]


def count_tables(monkeypatch):
    """Record (max_len, max_deg) of every prefix table the coeffs module builds."""
    built = []
    for name in ("elementary_prefix", "homogeneous_prefix"):
        original = getattr(coeffs_module, name)

        def recording(family, max_len, max_deg, _original=original):
            built.append((max_len, max_deg))
            return _original(family, max_len, max_deg)

        monkeypatch.setattr(coeffs_module, name, recording)
    return built


class TestKappa:
    def test_whitelist_membership(self):
        assert sorted(KNOWN_TRANSCENDENTAL_SHIFTS) == [
            Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
            Fraction(2, 3), Fraction(3, 4), Fraction(5, 6),
        ]
        for value in KNOWN_TRANSCENDENTAL_SHIFTS:
            assert ArgumentFamily(FamilyKind.PLUS_SHIFT, value).basis_point == value

    def test_off_whitelist(self):
        assert Fraction(2, 5) not in KNOWN_TRANSCENDENTAL_SHIFTS
        assert Fraction(1, 7) not in KNOWN_TRANSCENDENTAL_SHIFTS

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(7, 5)])
    def test_out_of_range(self, bad):
        for kind in (FamilyKind.PLUS_SHIFT, FamilyKind.MINUS_SHIFT):
            with pytest.raises(InvalidKappaError) as info:
                ArgumentFamily(kind, bad)
            assert str(info.value) == f"shift {bad} outside (0, 1)"


class TestLatticeSpec:
    def test_points_plain(self):
        spec = LatticeSpec(FamilyKind.PLAIN, (1, 3, 7))
        assert spec.points() == (Fraction(1), Fraction(3), Fraction(7))

    def test_points_shifted(self):
        plus = LatticeSpec(FamilyKind.PLUS_SHIFT, (0, 2), HALF)
        minus = LatticeSpec(FamilyKind.MINUS_SHIFT, (0, 2), HALF)
        assert plus.points() == (Fraction(1, 2), Fraction(5, 2))
        assert minus.points() == (Fraction(1, 2), Fraction(-3, 2))

    def test_validation(self):
        with pytest.raises(SpecMismatchError):
            LatticeSpec(FamilyKind.PLAIN, ())
        with pytest.raises(SpecMismatchError):
            LatticeSpec(FamilyKind.PLAIN, (2, 2))
        with pytest.raises(SpecMismatchError):
            LatticeSpec(FamilyKind.PLAIN, (3, 1))
        with pytest.raises(SpecMismatchError):
            LatticeSpec(FamilyKind.PLAIN, (0, 1))  # plain starts at 1
        with pytest.raises(SpecMismatchError):
            LatticeSpec(FamilyKind.PLUS_SHIFT, (-1, 0), HALF)
        with pytest.raises(SpecMismatchError):
            LatticeSpec(FamilyKind.PLAIN, (1, 2), HALF)
        with pytest.raises(SpecMismatchError):
            LatticeSpec(FamilyKind.MINUS_SHIFT, (0, 1))


class TestGammaRatio:
    def test_examples(self):
        assert rational_gamma_ratio(HALF, 1, FamilyKind.PLUS_SHIFT) == Fraction(1, 2)
        assert rational_gamma_ratio(HALF, 0, FamilyKind.PLUS_SHIFT) == 1
        assert rational_gamma_ratio(HALF, 0, FamilyKind.MINUS_SHIFT) == 1
        assert rational_gamma_ratio(HALF, 1, FamilyKind.MINUS_SHIFT) == -2

    def test_rising_product(self):
        # (1/4)(5/4)(9/4)
        assert rational_gamma_ratio(QUARTER, 3, FamilyKind.PLUS_SHIFT) == Fraction(45, 64)

    def test_minus_sign_alternates(self):
        # the literal signed product gives sign (-1)^m
        for m in range(7):
            value = rational_gamma_ratio(HALF, m, FamilyKind.MINUS_SHIFT)
            assert (value > 0) == (m % 2 == 0)

    def test_plain_rejected(self):
        with pytest.raises(SpecMismatchError):
            rational_gamma_ratio(HALF, 2, FamilyKind.PLAIN)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            rational_gamma_ratio(HALF, -1, FamilyKind.PLUS_SHIFT)


class TestCoefficients:
    def test_plain_frozen(self):
        assert coeff_plain(1, 0, 2) == 1
        assert coeff_plain(1, 1, 2) == 1
        assert [coeff_plain(2, ell, 3) for ell in range(3)] == [2, 6, 2]
        assert coeff_plain(3, 0, 1) == 0

    def test_plus_frozen(self):
        assert coeff_plus(1, 0, 1, HALF) == 1
        assert coeff_plus(1, 1, 1, HALF) == Fraction(1, 2)
        assert coeff_plus(0, 0, 0, QUARTER) == 1
        assert coeff_plus(2, 2, 3, QUARTER) == Fraction(45, 64)

    def test_minus_frozen(self):
        assert coeff_minus(0, 0, 1, HALF) == -2
        assert coeff_minus(0, 0, 0, HALF) == 1
        assert coeff_minus(1, 0, 1, HALF) == -4

    def test_degenerate_plain_row(self):
        # at m = 1 the whole row collapses onto the top derivative
        for n in range(7):
            for ell in range(n + 1):
                expected = 1 if ell == n else 0
                assert coeff_plain(n, ell, 1) == expected

    def test_order_zero_is_factorial(self):
        for m in range(1, 9):
            assert coeff_plain(0, 0, m) == factorial(m - 1)

    def test_dispatch(self):
        assert coefficient(FamilyKind.PLAIN, 2, 1, 3) == coeff_plain(2, 1, 3)
        assert coefficient(FamilyKind.PLUS_SHIFT, 1, 0, 1, HALF) == coeff_plus(1, 0, 1, HALF)
        assert coefficient(FamilyKind.MINUS_SHIFT, 1, 0, 1, HALF) == coeff_minus(1, 0, 1, HALF)
        with pytest.raises(SpecMismatchError):
            coefficient(FamilyKind.PLAIN, 1, 0, 1, HALF)
        with pytest.raises(SpecMismatchError):
            coefficient(FamilyKind.PLUS_SHIFT, 1, 0, 1)

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            coeff_plain(2, 3, 1)
        with pytest.raises(ValueError):
            coeff_plain(-1, 0, 1)
        with pytest.raises(ValueError):
            coeff_plain(2, 1, 0)


class TestAgainstExpansionOracle:
    """Cross-check the table route against direct polynomial expansion."""

    def test_plain(self):
        for n in range(6):
            for m in range(1, 7):
                for ell in range(n + 1):
                    assert coeff_plain(n, ell, m) == plain_coefficient_oracle(n, ell, m)

    @pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
    def test_plus(self, kappa):
        for n in range(5):
            for m in range(5):
                for ell in range(n + 1):
                    assert coeff_plus(n, ell, m, kappa) == plus_coefficient_oracle(
                        n, ell, m, kappa
                    )

    @pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
    def test_minus(self, kappa):
        for n in range(5):
            for m in range(5):
                for ell in range(n + 1):
                    assert coeff_minus(n, ell, m, kappa) == minus_coefficient_oracle(
                        n, ell, m, kappa
                    )


class TestCoefficientTable:
    """The sweep entry point against single cells and the expansion oracles."""

    @pytest.mark.parametrize("family,kappa,oracle", FAMILIES, ids=FAMILY_IDS)
    def test_matches_cells_and_oracle(self, family, kappa, oracle):
        low = 1 if family is FamilyKind.PLAIN else 0
        ms = list(range(low, 7))
        for n in range(6):
            table = coefficient_table(family, n, ms, kappa)
            assert len(table) == len(ms)
            for m, row in zip(ms, table):
                assert len(row) == n + 1
                for ell, value in enumerate(row):
                    assert value == coefficient(family, n, ell, m, kappa)
                    assert value == oracle(n, ell, m)

    @pytest.mark.parametrize("family,kappa,oracle", FAMILIES, ids=FAMILY_IDS)
    def test_non_contiguous_indices(self, family, kappa, oracle):
        # build_system passes sparse increasing indices; rows follow `ms`
        ms = (2, 5, 9)
        table = coefficient_table(family, 4, ms, kappa)
        for m, row in zip(ms, table):
            assert row == tuple(oracle(4, ell, m) for ell in range(5))

    @pytest.mark.parametrize("family,kappa,oracle", FAMILIES, ids=FAMILY_IDS)
    def test_order_zero(self, family, kappa, oracle):
        low = 1 if family is FamilyKind.PLAIN else 0
        ms = range(low, low + 5)
        table = coefficient_table(family, 0, ms, kappa)
        assert table == tuple((oracle(0, 0, m),) for m in ms)

    @pytest.mark.parametrize("family,kappa", [f[:2] for f in FAMILIES], ids=FAMILY_IDS)
    def test_empty_prefix_row(self, family, kappa):
        # plain m = 1 and shifted m = 0 expand onto the top derivative alone
        m = 1 if family is FamilyKind.PLAIN else 0
        for n in range(6):
            (row,) = coefficient_table(family, n, [m], kappa)
            assert row == tuple(Fraction(int(ell == n)) for ell in range(n + 1))

    @pytest.mark.parametrize("family,kappa", [f[:2] for f in FAMILIES], ids=FAMILY_IDS)
    def test_one_table_per_sweep(self, family, kappa, monkeypatch):
        built = count_tables(monkeypatch)
        coefficient_table(family, 5, (3, 4, 8), kappa)
        length = 7 if family is FamilyKind.PLAIN else 8
        assert built == [(length, 5)]

    @pytest.mark.parametrize("family,kappa", [f[:2] for f in FAMILIES], ids=FAMILY_IDS)
    def test_single_cell_table_stays_small(self, family, kappa, monkeypatch):
        built = count_tables(monkeypatch)
        coefficient(family, 6, 2, 5, kappa)
        length = 4 if family is FamilyKind.PLAIN else 5
        assert built == [(length, 4)]

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficient_table(FamilyKind.PLAIN, -1, [1])
        with pytest.raises(ValueError):
            coefficient_table(FamilyKind.PLAIN, 2, [])
        with pytest.raises(ValueError):
            coefficient_table(FamilyKind.PLAIN, 2, [0, 1])
        with pytest.raises(ValueError):
            coefficient_table(FamilyKind.MINUS_SHIFT, 2, [-1], HALF)
        with pytest.raises(SpecMismatchError):
            coefficient_table(FamilyKind.PLAIN, 2, [1], HALF)
        with pytest.raises(SpecMismatchError):
            coefficient_table(FamilyKind.PLUS_SHIFT, 2, [1])


class TestBuildSystem:
    def test_plain_square(self):
        system = build_system(LatticeSpec(FamilyKind.PLAIN, (1, 2)), 2)
        assert system.matrix.to_rows() == [[0, 1], [2, 1]]
        assert system.constant_column == (0, 0)
        assert system.unknowns_label == ("Gamma^(1)(1)", "Gamma^(2)(1)")
        assert system.is_square

    def test_plain_rectangular(self):
        system = build_system(LatticeSpec(FamilyKind.PLAIN, (1,)), 2)
        assert system.matrix.to_rows() == [[0, 1]]
        assert not system.is_square

    def test_plus_square(self):
        system = build_system(LatticeSpec(FamilyKind.PLUS_SHIFT, (0, 1), HALF), 1)
        assert system.matrix.to_rows() == [[0, 1], [1, Fraction(1, 2)]]
        assert system.constant_column == ()
        assert system.unknowns_label == ("Gamma^(0)(1/2)", "Gamma^(1)(1/2)")

    def test_minus_entries_match_coefficients(self):
        spec = LatticeSpec(FamilyKind.MINUS_SHIFT, (0, 2, 3), HALF)
        system = build_system(spec, 2)
        for r, m in enumerate(spec.indices):
            for c in range(3):
                assert system.matrix.at(r, c) == coeff_minus(2, c, m, HALF)

    def test_plain_entries_match_coefficients(self):
        spec = LatticeSpec(FamilyKind.PLAIN, (2, 4, 5))
        system = build_system(spec, 3)
        for r, m in enumerate(spec.indices):
            assert system.constant_column[r] == coeff_plain(3, 0, m)
            for c in range(1, 4):
                assert system.matrix.at(r, c - 1) == coeff_plain(3, c, m)

    def test_plain_needs_a_column(self):
        with pytest.raises(SpecMismatchError):
            build_system(LatticeSpec(FamilyKind.PLAIN, (1, 2)), 0)

    def test_shifted_order_zero(self):
        system = build_system(LatticeSpec(FamilyKind.MINUS_SHIFT, (1,), HALF), 0)
        assert system.matrix.to_rows() == [[-2]]
        assert system.is_square
