from fractions import Fraction
from math import factorial

import pytest

from gammalattice import (
    KNOWN_TRANSCENDENTAL_SHIFTS,
    ArgumentFamily,
    FamilyKind,
    InvalidKappaError,
    LatticeSpec,
    PrecisionContext,
    SpecMismatchError,
    build_system,
    coefficient,
    coefficient_table,
    verify_identity,
)
from gammalattice import sympoly as sympoly_module

from _oracles import (
    minus_coefficient_oracle,
    plain_coefficient_oracle,
    plus_coefficient_oracle,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)
PLAIN = ArgumentFamily(FamilyKind.PLAIN)


def plus(kappa):
    return ArgumentFamily(FamilyKind.PLUS_SHIFT, kappa)


def minus(kappa):
    return ArgumentFamily(FamilyKind.MINUS_SHIFT, kappa)


# (family, oracle taking (n, ell, m)) for every family
FAMILIES = [
    (PLAIN, plain_coefficient_oracle),
    (plus(THIRD), lambda n, ell, m: plus_coefficient_oracle(n, ell, m, THIRD)),
    (minus(THIRD), lambda n, ell, m: minus_coefficient_oracle(n, ell, m, THIRD)),
]
FAMILY_IDS = ["plain", "plus", "minus"]


def count_tables(monkeypatch):
    """Record (max_len, max_deg) of every prefix table built, at the builders'
    own bindings in sympoly, through which `PolyKind.table` calls them."""
    built = []
    for name in ("elementary_prefix", "homogeneous_prefix"):
        original = getattr(sympoly_module, name)

        def recording(family, max_len, max_deg, _original=original):
            built.append((max_len, max_deg))
            return _original(family, max_len, max_deg)

        monkeypatch.setattr(sympoly_module, name, recording)
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

    @pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "str"])
    def test_not_a_fraction(self, bad):
        for kind in (FamilyKind.PLUS_SHIFT, FamilyKind.MINUS_SHIFT):
            with pytest.raises(InvalidKappaError) as info:
                ArgumentFamily(kind, bad)
            assert str(info.value) == f"shift {bad!r} is not a Fraction"


class TestLatticeSpec:
    def test_points_plain(self):
        spec = LatticeSpec(PLAIN, (1, 3, 7))
        assert spec.points() == (Fraction(1), Fraction(3), Fraction(7))

    def test_points_shifted(self):
        up = LatticeSpec(plus(HALF), (0, 2))
        down = LatticeSpec(minus(HALF), (0, 2))
        assert up.points() == (Fraction(1, 2), Fraction(5, 2))
        assert down.points() == (Fraction(1, 2), Fraction(-3, 2))

    def test_validation(self):
        with pytest.raises(SpecMismatchError):
            LatticeSpec(PLAIN, ())
        with pytest.raises(SpecMismatchError):
            LatticeSpec(PLAIN, (2, 2))
        with pytest.raises(SpecMismatchError):
            LatticeSpec(PLAIN, (3, 1))
        with pytest.raises(SpecMismatchError):
            LatticeSpec(PLAIN, (0, 1))  # plain starts at 1
        with pytest.raises(SpecMismatchError):
            LatticeSpec(plus(HALF), (-1, 0))
        with pytest.raises(SpecMismatchError):
            LatticeSpec(ArgumentFamily(FamilyKind.PLAIN, HALF), (1, 2))
        with pytest.raises(SpecMismatchError):
            LatticeSpec(ArgumentFamily(FamilyKind.MINUS_SHIFT), (0, 1))
        with pytest.raises(SpecMismatchError):
            LatticeSpec(PLAIN, (1.5, 2.9))  # not truncated to (1, 2)


class TestGammaRatio:
    """ArgumentFamily.scale: Gamma(point(m)) / Gamma(basis point), exactly."""

    def test_examples(self):
        assert plus(HALF).scale(1) == Fraction(1, 2)
        assert plus(HALF).scale(0) == 1
        assert minus(HALF).scale(0) == 1
        assert minus(HALF).scale(1) == -2

    def test_rising_product(self):
        # (1/4)(5/4)(9/4)
        assert plus(QUARTER).scale(3) == Fraction(45, 64)

    def test_minus_sign_alternates(self):
        # the literal signed product gives sign (-1)^m
        for m in range(7):
            value = minus(HALF).scale(m)
            assert (value > 0) == (m % 2 == 0)

    def test_plain_rejected(self):
        # the plain family takes no shift; its scale is (m-1)!
        with pytest.raises(SpecMismatchError):
            ArgumentFamily(FamilyKind.PLAIN, HALF)
        assert PLAIN.scale(4) == 6

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            plus(HALF).scale(-1)


class TestCoefficients:
    def test_plain_frozen(self):
        assert coefficient(PLAIN, 1, 2) == (1, 1)
        assert coefficient(PLAIN, 2, 3) == (2, 6, 2)
        assert coefficient(PLAIN, 3, 1)[0] == 0

    def test_plus_frozen(self):
        assert coefficient(plus(HALF), 1, 1) == (1, Fraction(1, 2))
        assert coefficient(plus(QUARTER), 0, 0) == (1,)
        assert coefficient(plus(QUARTER), 2, 3)[2] == Fraction(45, 64)

    def test_minus_frozen(self):
        assert coefficient(minus(HALF), 0, 1) == (-2,)
        assert coefficient(minus(HALF), 0, 0) == (1,)
        assert coefficient(minus(HALF), 1, 1)[0] == -4

    def test_degenerate_plain_row(self):
        # at m = 1 the whole row collapses onto the top derivative
        for n in range(7):
            row = tuple(int(ell == n) for ell in range(n + 1))
            assert coefficient(PLAIN, n, 1) == row

    def test_order_zero_is_factorial(self):
        for m in range(1, 9):
            assert coefficient(PLAIN, 0, m) == (factorial(m - 1),)

    def test_dispatch(self):
        with pytest.raises(SpecMismatchError):
            coefficient(ArgumentFamily(FamilyKind.PLAIN, HALF), 1, 1)
        with pytest.raises(SpecMismatchError):
            coefficient(ArgumentFamily(FamilyKind.PLUS_SHIFT), 1, 1)

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            coefficient(PLAIN, -1, 1)
        with pytest.raises(ValueError):
            coefficient(PLAIN, 2, 0)


class TestAgainstExpansionOracle:
    """Cross-check the table route against direct polynomial expansion."""

    def test_plain(self):
        for n in range(6):
            for m in range(1, 7):
                expected = [plain_coefficient_oracle(n, ell, m) for ell in range(n + 1)]
                assert coefficient(PLAIN, n, m) == tuple(expected)

    @pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
    def test_plus(self, kappa):
        for n in range(5):
            for m in range(5):
                expected = tuple(
                    plus_coefficient_oracle(n, ell, m, kappa) for ell in range(n + 1)
                )
                assert coefficient(plus(kappa), n, m) == expected

    @pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
    def test_minus(self, kappa):
        for n in range(5):
            for m in range(5):
                expected = tuple(
                    minus_coefficient_oracle(n, ell, m, kappa) for ell in range(n + 1)
                )
                assert coefficient(minus(kappa), n, m) == expected


class TestCoefficientTable:
    """The sweep entry point against single cells and the expansion oracles."""

    @pytest.mark.parametrize("family,oracle", FAMILIES, ids=FAMILY_IDS)
    def test_matches_cells_and_oracle(self, family, oracle):
        ms = list(range(family.min_index, 7))
        for n in range(6):
            table = coefficient_table(family, n, ms)
            assert len(table) == len(ms)
            for m, row in zip(ms, table):
                assert row == coefficient(family, n, m)
                assert row == tuple(oracle(n, ell, m) for ell in range(n + 1))

    @pytest.mark.parametrize("family,oracle", FAMILIES, ids=FAMILY_IDS)
    def test_non_contiguous_indices(self, family, oracle):
        # build_system passes sparse increasing indices; rows follow `ms`
        ms = (2, 5, 9)
        table = coefficient_table(family, 4, ms)
        for m, row in zip(ms, table):
            assert row == tuple(oracle(4, ell, m) for ell in range(5))

    @pytest.mark.parametrize("family,oracle", FAMILIES, ids=FAMILY_IDS)
    def test_order_zero(self, family, oracle):
        low = family.min_index
        ms = range(low, low + 5)
        table = coefficient_table(family, 0, ms)
        assert table == tuple((oracle(0, 0, m),) for m in ms)

    @pytest.mark.parametrize("family", [f[0] for f in FAMILIES], ids=FAMILY_IDS)
    def test_empty_prefix_row(self, family):
        # plain m = 1 and shifted m = 0 expand onto the top derivative alone
        for n in range(6):
            (row,) = coefficient_table(family, n, [family.min_index])
            assert row == tuple(Fraction(int(ell == n)) for ell in range(n + 1))

    @pytest.mark.parametrize("family", [f[0] for f in FAMILIES], ids=FAMILY_IDS)
    def test_one_table_per_sweep(self, family, monkeypatch):
        built = count_tables(monkeypatch)
        coefficient_table(family, 5, (3, 4, 8))
        length = 7 if family == PLAIN else 8
        assert built == [(length, 5)]

    @pytest.mark.parametrize("family", [f[0] for f in FAMILIES], ids=FAMILY_IDS)
    def test_single_cell_table_stays_small(self, family, monkeypatch):
        # one identity cell reads its whole row off one table: degree n, over
        # the cell's own prefix
        built = count_tables(monkeypatch)
        assert verify_identity(family, 6, 5, PrecisionContext(30)).passed
        length = 4 if family == PLAIN else 5
        assert built == [(length, 6)]

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficient_table(PLAIN, -1, [1])
        with pytest.raises(ValueError):
            coefficient_table(PLAIN, 2, [])
        with pytest.raises(ValueError):
            coefficient_table(PLAIN, 2, [0, 1])
        with pytest.raises(ValueError):
            coefficient_table(minus(HALF), 2, [-1])
        with pytest.raises(SpecMismatchError):
            coefficient_table(ArgumentFamily(FamilyKind.PLAIN, HALF), 2, [1])
        with pytest.raises(SpecMismatchError):
            coefficient_table(ArgumentFamily(FamilyKind.PLUS_SHIFT), 2, [1])


class TestBuildSystem:
    def test_plain_square(self):
        system = build_system(LatticeSpec(PLAIN, (1, 2)), 2)
        assert system.matrix.to_rows() == [[0, 1], [2, 1]]
        assert system.constant_column == (0, 0)
        assert system.unknowns_label == ("Gamma^(1)(1)", "Gamma^(2)(1)")
        assert system.is_square

    def test_plain_rectangular(self):
        system = build_system(LatticeSpec(PLAIN, (1,)), 2)
        assert system.matrix.to_rows() == [[0, 1]]
        assert not system.is_square

    def test_plus_square(self):
        system = build_system(LatticeSpec(plus(HALF), (0, 1)), 1)
        assert system.matrix.to_rows() == [[0, 1], [1, Fraction(1, 2)]]
        assert system.constant_column == ()
        assert system.unknowns_label == ("Gamma^(0)(1/2)", "Gamma^(1)(1/2)")

    def test_minus_entries_match_coefficients(self):
        spec = LatticeSpec(minus(HALF), (0, 2, 3))
        system = build_system(spec, 2)
        for r, m in enumerate(spec.indices):
            for c in range(3):
                assert system.matrix.at(r, c) == coefficient(minus(HALF), 2, m)[c]

    def test_plain_entries_match_coefficients(self):
        spec = LatticeSpec(PLAIN, (2, 4, 5))
        system = build_system(spec, 3)
        for r, m in enumerate(spec.indices):
            row = coefficient(PLAIN, 3, m)
            assert system.constant_column[r] == row[0]
            for c in range(1, 4):
                assert system.matrix.at(r, c - 1) == row[c]

    def test_plain_needs_a_column(self):
        with pytest.raises(SpecMismatchError):
            build_system(LatticeSpec(PLAIN, (1, 2)), 0)

    def test_shifted_order_zero(self):
        system = build_system(LatticeSpec(minus(HALF), (1,)), 0)
        assert system.matrix.to_rows() == [[-2]]
        assert system.is_square
