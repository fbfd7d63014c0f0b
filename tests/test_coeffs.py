import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammalattice import (
    KNOWN_TRANSCENDENTAL_SHIFTS,
    ArgumentFamily,
    FamilyKind,
    GuardExceededError,
    InvalidKappaError,
    LatticeSpec,
    PrecisionContext,
    SpecMismatchError,
    budget,
    build_system,
    coefficient_table,
    verify_grid,
)
from gammalattice import gammanum
from gammalattice import sympoly as sympoly_module
from gammalattice.coeffs import _ratios

from _oracles import (
    gamma_ratio_oracle,
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
    """coeffs._ratios: Gamma(point(m)) / Gamma(basis point), exactly, the same
    as the oracle's product of linear factors."""

    def check(self, family, m, value):
        assert _ratios(family, (m,)) == {m: value}
        assert gamma_ratio_oracle(family.basis_point, family.point(m)) == value

    def test_examples(self):
        self.check(plus(HALF), 1, Fraction(1, 2))
        self.check(plus(HALF), 0, 1)
        self.check(minus(HALF), 0, 1)
        self.check(minus(HALF), 1, -2)

    def test_rising_product(self):
        # (1/4)(5/4)(9/4)
        self.check(plus(QUARTER), 3, Fraction(45, 64))

    def test_factorials_and_two_step_ratios(self):
        assert list(_ratios(PLAIN, range(1, 6)).values()) == [1, 1, 2, 6, 24]
        # Gamma(7/3)/Gamma(1/3) and Gamma(-3/2)/Gamma(1/2)
        self.check(plus(THIRD), 2, THIRD * Fraction(4, 3))
        self.check(minus(HALF), 2, 1 / (Fraction(-1, 2) * Fraction(-3, 2)))

    def test_minus_sign_alternates(self):
        # the literal signed product gives sign (-1)^m
        for m, value in _ratios(minus(HALF), range(7)).items():
            assert value == gamma_ratio_oracle(HALF, minus(HALF).point(m))
            assert (value > 0) == (m % 2 == 0)

    def test_plain_rejected(self):
        # the plain family takes no shift; its ratio is (m-1)!
        with pytest.raises(SpecMismatchError):
            ArgumentFamily(FamilyKind.PLAIN, HALF)
        self.check(PLAIN, 4, 6)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            _ratios(plus(HALF), (-1,))


class TestCoefficients:
    def test_plain_frozen(self):
        assert coefficient_table(PLAIN, 1, (2,))[0] == (1, 1)
        assert coefficient_table(PLAIN, 2, (3,))[0] == (2, 6, 2)
        assert coefficient_table(PLAIN, 3, (1,))[0][0] == 0

    def test_plus_frozen(self):
        assert coefficient_table(plus(HALF), 1, (1,))[0] == (1, Fraction(1, 2))
        assert coefficient_table(plus(QUARTER), 0, (0,))[0] == (1,)
        assert coefficient_table(plus(QUARTER), 2, (3,))[0][2] == Fraction(45, 64)

    def test_minus_frozen(self):
        assert coefficient_table(minus(HALF), 0, (1,))[0] == (-2,)
        assert coefficient_table(minus(HALF), 0, (0,))[0] == (1,)
        assert coefficient_table(minus(HALF), 1, (1,))[0][0] == -4

    def test_degenerate_plain_row(self):
        # at m = 1 the whole row collapses onto the top derivative
        for n in range(7):
            row = tuple(int(ell == n) for ell in range(n + 1))
            assert coefficient_table(PLAIN, n, (1,))[0] == row

    def test_order_zero_is_factorial(self):
        for m in range(1, 9):
            assert coefficient_table(PLAIN, 0, (m,))[0] == (factorial(m - 1),)

    def test_dispatch(self):
        with pytest.raises(SpecMismatchError):
            coefficient_table(ArgumentFamily(FamilyKind.PLAIN, HALF), 1, (1,))
        with pytest.raises(SpecMismatchError):
            coefficient_table(ArgumentFamily(FamilyKind.PLUS_SHIFT), 1, (1,))

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            coefficient_table(PLAIN, -1, (1,))
        with pytest.raises(ValueError):
            coefficient_table(PLAIN, 2, (0,))


class TestAgainstExpansionOracle:
    """Cross-check the table route against direct polynomial expansion."""

    def test_plain(self):
        for n in range(6):
            for m in range(1, 7):
                expected = [plain_coefficient_oracle(n, ell, m) for ell in range(n + 1)]
                assert coefficient_table(PLAIN, n, (m,))[0] == tuple(expected)

    # a shift whose points a float rounds onto a pole of Gamma: the ratio
    # estimate took lgamma there and raised "math domain error"
    @pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4),
                                       Fraction(1, 10**400)])
    def test_plus(self, kappa):
        for n in range(5):
            for m in range(5):
                expected = tuple(
                    plus_coefficient_oracle(n, ell, m, kappa) for ell in range(n + 1)
                )
                assert coefficient_table(plus(kappa), n, (m,))[0] == expected

    @pytest.mark.parametrize("kappa", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4),
                                       Fraction(1, 10**20), 1 - Fraction(1, 10**20)])
    def test_minus(self, kappa):
        for n in range(5):
            for m in range(5):
                expected = tuple(
                    minus_coefficient_oracle(n, ell, m, kappa) for ell in range(n + 1)
                )
                assert coefficient_table(minus(kappa), n, (m,))[0] == expected


class TestCoefficientTable:
    """The sweep entry point against single cells and the expansion oracles."""

    @pytest.mark.parametrize("family,oracle", FAMILIES, ids=FAMILY_IDS)
    def test_matches_cells_and_oracle(self, family, oracle):
        ms = list(range(family.min_index, 7))
        for n in range(6):
            table = coefficient_table(family, n, ms)
            assert len(table) == len(ms)
            for m, row in zip(ms, table):
                assert row == coefficient_table(family, n, (m,))[0]
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

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_ratios_and_rows_match_the_oracles(self, data):
        # the Gamma ratios at every prefix length are the oracle's products,
        # and the rows over indices unordered, repeated or single are the
        # oracle's coefficients
        kind = data.draw(st.sampled_from(list(FamilyKind)))
        kappa = None
        if kind.shifted:
            q = data.draw(st.integers(2, 12))
            kappa = Fraction(data.draw(st.integers(1, q - 1)), q)
        family = ArgumentFamily(kind, kappa)
        low = family.min_index
        ms = range(low, low + data.draw(st.integers(0, 40)) + 1)
        assert _ratios(family, ms) == {
            m: gamma_ratio_oracle(family.basis_point, family.point(m)) for m in ms
        }
        oracle = {
            FamilyKind.PLAIN: plain_coefficient_oracle,
            FamilyKind.PLUS_SHIFT: lambda n, ell, m: plus_coefficient_oracle(n, ell, m, kappa),
            FamilyKind.MINUS_SHIFT: lambda n, ell, m: minus_coefficient_oracle(n, ell, m, kappa),
        }[kind]
        ms = data.draw(st.lists(st.integers(low, low + 30), min_size=1, max_size=8))
        n = data.draw(st.integers(0, 4))
        assert coefficient_table(family, n, ms) == tuple(
            tuple(oracle(n, ell, m) for ell in range(n + 1)) for m in ms
        )

    @pytest.mark.parametrize("family", [f[0] for f in FAMILIES], ids=FAMILY_IDS)
    def test_empty_prefix_row(self, family):
        # plain m = 1 and shifted m = 0 expand onto the top derivative alone
        for n in range(6):
            (row,) = coefficient_table(family, n, [family.min_index])
            assert row == tuple(Fraction(int(ell == n)) for ell in range(n + 1))

    def test_single_long_order_zero_row_holds_one_ratio(self):
        # one row at a deep index keeps one Gamma ratio, not the ratio of
        # every shorter prefix: at --m 4000, 5 kB of 3999! against the 11 MB
        # that 0!..3999! would hold, and 9 GB of them at --m 100000
        tracemalloc.start()
        try:
            ((ratio,),) = coefficient_table(PLAIN, 0, [4000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ratio == factorial(3999)
        assert peak < 2_000_000

    @pytest.mark.parametrize("family", [f[0] for f in FAMILIES], ids=FAMILY_IDS)
    def test_one_table_per_sweep(self, family, monkeypatch):
        built = count_tables(monkeypatch)
        coefficient_table(family, 5, (3, 4, 8))
        length = 7 if family == PLAIN else 8
        assert built == [(length, 5)]

    def test_one_table_per_verify_sweep(self, monkeypatch):
        # every recovery order reads its rows off the one sweep at n_max, and
        # an identity grid reads every order off one sweep
        built = count_tables(monkeypatch)
        ctx = PrecisionContext(30)
        list(gammanum.verify_sweep([plus(THIRD)], 8, None, ctx))
        assert built == [(8, 8)]
        built.clear()
        list(gammanum.verify_sweep([plus(THIRD)], 4, 6, ctx))
        assert built == [(6, 4)]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: coefficient_table(PLAIN, 1, [2.5]),
            lambda: coefficient_table(PLAIN, 1, [Fraction(3)]),
            lambda: coefficient_table(PLAIN, 1, ["3"]),
            lambda: coefficient_table(PLAIN, 1.0, [3]),
            lambda: build_system(LatticeSpec(PLAIN, (1, 2)), 2.0),
        ],
        ids=["float-index", "fraction-index", "str-index", "float-order", "system-order"],
    )
    def test_non_integer_order_or_index_refused(self, monkeypatch, call):
        # refused at the sweep's setup, before any table is built
        built = count_tables(monkeypatch)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
        assert built == []

    @pytest.mark.parametrize("family", [f[0] for f in FAMILIES], ids=FAMILY_IDS)
    def test_single_cell_table_stays_small(self, family, monkeypatch):
        # one identity cell reads its whole row off one table: degree n, over
        # the cell's own prefix
        built = count_tables(monkeypatch)
        cells = list(verify_grid(family, 6, (5,), PrecisionContext(30)))
        assert len(cells) == 7 and all(r.passed for *_, r in cells)
        length = 4 if family == PLAIN else 5
        assert built == [(length, 6)]

    def test_rows_held_by_the_top_rows_digits(self, monkeypatch):
        # 41 rows of 21 minus-1/3 coefficients, held by the top row's longest
        # numerator and denominator: 1488 digits, so 6 cells a coefficient
        monkeypatch.setattr(budget, "MAX_CELLS", 861 * 6)
        assert len(coefficient_table(minus(THIRD), 20, range(41))) == 41
        monkeypatch.setattr(budget, "MAX_CELLS", 861 * 6 - 1)
        with pytest.raises(
            GuardExceededError,
            match=r"^861 coefficients of weight 6 are over the budget 5165$",
        ):
            coefficient_table(minus(THIRD), 20, range(41))

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
            row = coefficient_table(minus(HALF), 2, (m,))[0]
            for c in range(3):
                assert system.matrix.at(r, c) == row[c]

    def test_plain_entries_match_coefficients(self):
        spec = LatticeSpec(PLAIN, (2, 4, 5))
        system = build_system(spec, 3)
        for r, m in enumerate(spec.indices):
            row = coefficient_table(PLAIN, 3, (m,))[0]
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
