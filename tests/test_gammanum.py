import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import dps_to_prec, mpf_shift

from gammalattice import (
    ArgumentFamily,
    FamilyKind,
    GuardExceededError,
    LatticeSpec,
    PoleArgumentError,
    PolyKind,
    PrecisionContext,
    SpecMismatchError,
    build_system,
    coefficient_table,
    gamma_derivatives,
    verify_grid,
    verify_recovery,
)

from gammalattice import budget, coeffs, gammanum
from gammalattice.cli import main

from _oracles import machin_pi

CTX = PrecisionContext(60)
HALF = Fraction(1, 2)
PLAIN = ArgumentFamily(FamilyKind.PLAIN)
PLUS_HALF = ArgumentFamily(FamilyKind.PLUS_SHIFT, HALF)
MINUS_HALF = ArgumentFamily(FamilyKind.MINUS_SHIFT, HALF)


def close(a, b, ctx=CTX, tol="1e-40"):
    with mp.workdps(ctx.working_digits):
        return abs(a - b) < mp.mpf(tol)


def gamma_at(q, ctx=CTX):
    return gamma_derivatives(q, 0, ctx)[0]


def psi_at(q):
    """psi(q) and psi'(q), read off Gamma'/Gamma and Gamma''/Gamma - psi^2."""
    g0, g1, g2 = gamma_derivatives(q, 2, CTX)
    with mp.workdps(CTX.working_digits):
        psi = g1 / g0
        return psi, g2 / g0 - psi**2


class TestPrecisionContext:
    def test_working_digits(self):
        assert PrecisionContext(40).working_digits == 60
        assert gammanum.GUARD_DIGITS == 20

    def test_minimum_digits(self):
        with pytest.raises(ValueError):
            PrecisionContext(19)
        with pytest.raises(ValueError):
            PrecisionContext(29)

    def test_maximum_digits(self):
        assert PrecisionContext(1000).working_digits == 1020
        for digits in (1001, 100000000):
            with pytest.raises(ValueError, match="decimal_digits must be <= 1000"):
                PrecisionContext(digits)

    def test_default_tolerance_is_guard_budget(self):
        ctx = PrecisionContext(60)
        with mp.workdps(ctx.working_digits):
            assert ctx.tolerance == mp.mpf(10) ** -40
        assert float(PrecisionContext(30).tolerance) == 1e-10


class TestPolygamma:
    """psi anchors, read through `gamma_derivatives`."""

    def test_euler_anchor(self):
        # psi(1) = -gamma; reference from an unrelated internal algorithm
        with mp.workdps(CTX.working_digits):
            assert close(psi_at(1)[0], -mp.euler)

    def test_zeta_two_anchor(self):
        # psi'(1) = pi^2 / 6 with pi from the arctangent series
        pi_ref = machin_pi(CTX)
        with mp.workdps(CTX.working_digits):
            assert close(psi_at(1)[1], pi_ref**2 / 6)

    def test_half_argument_closed_form(self):
        with mp.workdps(CTX.working_digits):
            expected = -mp.euler - 2 * mp.log(2)
            assert close(psi_at(Fraction(1, 2))[0], expected)

    def test_negative_argument_recurrence(self):
        # Gamma(q + 1) = q Gamma(q) differentiated n times, at q = -1/2:
        # Gamma^(n)(1/2) = -1/2 Gamma^(n)(-1/2) + n Gamma^(n-1)(-1/2).  The
        # right side takes psi up to psi'' and Gamma through the shift to 1/2.
        q = Fraction(-1, 2)
        above = gamma_derivatives(q + 1, 3, CTX)
        below = gamma_derivatives(q, 3, CTX)
        with mp.workdps(CTX.working_digits):
            for n in range(4):
                shifted = mp.mpf(q.numerator) / q.denominator * below[n]
                if n:
                    shifted += n * below[n - 1]
                assert close(above[n], shifted), n

    def test_poles_rejected(self):
        for bad in (0, -1, -7):
            with pytest.raises(PoleArgumentError):
                gamma_derivatives(bad, 1, CTX)


class TestGammaValue:
    """Gamma anchors, read as the order-0 entry of `gamma_derivatives`."""

    def test_half(self):
        pi_ref = machin_pi(CTX)
        with mp.workdps(CTX.working_digits):
            assert close(gamma_at(Fraction(1, 2)), mp.sqrt(pi_ref))

    def test_factorial(self):
        assert close(gamma_at(5), 24)

    def test_negative_half(self):
        pi_ref = machin_pi(CTX)
        with mp.workdps(CTX.working_digits):
            assert close(gamma_at(Fraction(-1, 2)), -2 * mp.sqrt(pi_ref))

    def test_pole(self):
        with pytest.raises(PoleArgumentError):
            gamma_derivatives(-2, 0, CTX)

    @pytest.mark.parametrize(
        "kappa", [Fraction(1, 3), Fraction(2, 3), Fraction(6, 7)], ids=["1/3", "2/3", "6/7"]
    )
    def test_below_zero_divides_by_the_fraction_product(self, kappa):
        # Gamma(kappa - j) = Gamma(kappa) / prod_{i<j} (kappa - j + i): the
        # divisor built as one integer product gives the bits that a product
        # of j Fractions gives
        dps = CTX.working_digits
        with mp.workdps(dps):
            base = mp.gamma(mp.mpf(kappa.numerator) / kappa.denominator)
        for j in range(1, 201):
            q, divisor = kappa - j, Fraction(1)
            for i in range(j):
                divisor *= kappa - j + i
            with mp.workdps(dps):
                expected = base / (mp.mpf(divisor.numerator) / mp.mpf(divisor.denominator))
            assert gammanum._gamma_cached(q, dps)._mpf_ == expected._mpf_, (kappa, j)


class TestCaches:
    def test_psi_and_gamma_caches_are_bounded(self):
        for cache in (gammanum._psi_cached, gammanum._gamma_cached):
            assert cache.cache_info().maxsize == 4096


class TestGammaDerivatives:
    def test_at_one(self):
        derivs = gamma_derivatives(1, 2, CTX)
        with mp.workdps(CTX.working_digits):
            assert close(derivs[0], 1)
            assert close(derivs[1], -mp.euler)
            assert close(derivs[2], mp.euler**2 + mp.pi**2 / 6)

    def test_at_two(self):
        derivs = gamma_derivatives(2, 1, CTX)
        with mp.workdps(CTX.working_digits):
            assert close(derivs[1], 1 - mp.euler)

    def test_positive_value_at_positive_point(self):
        assert gamma_derivatives(Fraction(7, 3), 4, CTX)[0] > 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            gamma_derivatives(1, -1, CTX)

    @pytest.mark.parametrize(
        "point", [Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(-13, 6)]
    )
    def test_precision_doubling(self, point):
        low = PrecisionContext(40)
        high = PrecisionContext(80)
        coarse = gamma_derivatives(point, 4, low)
        fine = gamma_derivatives(point, 4, high)
        with mp.workdps(high.working_digits):
            for a, b in zip(coarse, fine):
                assert abs(a - b) / abs(b) < mp.mpf(10) ** -40


class TestVerifyIdentity:
    # each check runs a one-index grid, as `verify` does, and reads its last
    # cell, Gamma^(n) at the point, after asserting every cell it yields

    def test_order_zero_is_factorial(self):
        ((n, m, report),) = verify_grid(PLAIN, 0, (5,), CTX)
        assert (n, m) == (0, 5) and report.passed
        assert close(report.reference, 24)
        assert close(report.value, 24)

    def test_plain_second_derivative(self):
        cells = list(verify_grid(PLAIN, 2, (3,), CTX))
        assert [(n, m) for n, m, _ in cells] == [(0, 3), (1, 3), (2, 3)]
        assert all(r.passed for *_, r in cells)
        report = cells[-1][2]
        with mp.workdps(CTX.working_digits):
            expected = 2 - 6 * mp.euler + 2 * (mp.euler**2 + mp.pi**2 / 6)
            assert close(report.reference, expected)
            assert report.rel_residual < mp.mpf(10) ** -40

    def test_minus_shift_reflection_point(self):
        ((_, _, report),) = verify_grid(MINUS_HALF, 0, (1,), CTX)
        assert report.passed
        with mp.workdps(CTX.working_digits):
            assert close(report.reference, -2 * mp.sqrt(mp.pi))

    def test_family_kappa_consistency(self):
        # the family carries its shift, so a mismatch fails before any sum
        with pytest.raises(SpecMismatchError):
            list(verify_grid(ArgumentFamily(FamilyKind.PLAIN, HALF), 1, (2,), CTX))
        with pytest.raises(SpecMismatchError):
            list(verify_grid(ArgumentFamily(FamilyKind.PLUS_SHIFT), 1, (2,), CTX))

    def test_no_indices_refused(self, monkeypatch):
        # refused as coefficient_table refuses them, before any table or vector
        def no_work(*args):
            raise AssertionError("a table or vector was built")

        monkeypatch.setattr(gammanum, "_lattice_derivatives", no_work)
        monkeypatch.setattr(PolyKind, "table", no_work)
        with pytest.raises(ValueError, match="^no lattice indices$"):
            list(verify_grid(PLAIN, 2, [], CTX))

    @pytest.fixture
    def no_vectors(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a vector was built")

        monkeypatch.setattr(gammanum, "_lattice_derivatives", no_work)

    def test_long_ratio_charged_before_any_vector(self, monkeypatch, no_vectors):
        # the cap lies between the degree-0 table's 4,100,000 units and the
        # ratio walk's 9,299,907: the walk's own charge refuses the grid
        monkeypatch.setattr(budget, "MAX_WORK", 5_000_000)
        with pytest.raises(
            GuardExceededError,
            match="^the Gamma ratio at index 100000 is over the work budget 5000000$",
        ):
            list(verify_grid(PLAIN, 0, [100000], PrecisionContext(30)))

    def test_huge_range_sized_not_listed(self, no_vectors):
        # a range is sized by its ends, so the table's charge refuses it
        # before its indices could be listed
        with pytest.raises(
            GuardExceededError,
            match=f"^the elementary table of length {10**30 - 2} and degree 0 "
            f"is over the work budget {budget.MAX_WORK}$",
        ):
            list(verify_grid(PLAIN, 0, range(1, 10**30), PrecisionContext(30)))

    def test_negative_order_refused(self, no_vectors):
        with pytest.raises(ValueError, match="^derivative order -1 must be >= 0$"):
            list(verify_grid(PLAIN, -1, [2], CTX))

    def test_tolerance_override_can_fail(self):
        # residuals can round to exactly zero, so only a zero tolerance is a
        # guaranteed forcing knob under the strict comparison
        cells = list(verify_grid(PLAIN, 2, (3,), PrecisionContext(60, "0")))
        assert len(cells) == 3
        assert not any(r.passed for *_, r in cells)


class TestRecoverBasis:
    def test_plain_recovers_euler(self):
        spec = LatticeSpec(PLAIN, (1, 2))
        recovered = [r.value for r in verify_recovery(spec, 2, CTX)]
        with mp.workdps(CTX.working_digits):
            assert close(recovered[0], -mp.euler)

    def test_plain_index_set_independence(self):
        for indices in ((1, 2), (2, 5), (1, 7)):
            spec = LatticeSpec(PLAIN, indices)
            recovered = [r.value for r in verify_recovery(spec, 2, CTX)]
            with mp.workdps(CTX.working_digits):
                assert close(recovered[0], -mp.euler)

    def test_plus_recovers_gamma_at_half(self):
        spec = LatticeSpec(PLUS_HALF, (0, 1))
        recovered = [r.value for r in verify_recovery(spec, 1, CTX)]
        assert close(recovered[0], gamma_at(Fraction(1, 2)))

    def test_round_trip_through_system(self):
        spec = LatticeSpec(MINUS_HALF, (0, 2, 3))
        recovered = [r.value for r in verify_recovery(spec, 2, CTX)]
        system = build_system(spec, 2)
        with mp.workdps(CTX.working_digits):
            for r, point in enumerate(spec.points()):
                direct = gamma_derivatives(point, 2, CTX)[2]
                reconstructed = mp.mpf(0)
                for c in range(3):
                    entry = system.matrix.at(r, c)
                    reconstructed += (
                        mp.mpf(entry.numerator) / entry.denominator * recovered[c]
                    )
                assert abs(direct - reconstructed) < mp.mpf("1e-40")

    def test_rectangular_rejected(self):
        with pytest.raises(SpecMismatchError):
            verify_recovery(LatticeSpec(PLAIN, (1, 2, 3)), 2, CTX)


class TestVerifyRecovery:
    def test_plain_recovers_euler(self):
        reports = verify_recovery(LatticeSpec(PLAIN, (1, 2)), 2, CTX)
        assert len(reports) == 2  # Gamma^(1..2)(1)
        assert all(r.passed for r in reports)
        with mp.workdps(CTX.working_digits):
            assert close(reports[0].value, -mp.euler)

    def test_shifted_starts_at_order_zero(self):
        reports = verify_recovery(LatticeSpec(MINUS_HALF, (0, 1)), 1, CTX)
        assert len(reports) == 2  # Gamma^(0..1)(1/2)
        assert close(reports[0].reference, gamma_at(Fraction(1, 2)))
        assert close(reports[0].value, gamma_at(Fraction(1, 2)))
        assert all(r.passed for r in reports)

    def test_zero_tolerance_fails(self):
        spec = LatticeSpec(PLAIN, (1, 2))
        reports = verify_recovery(spec, 2, PrecisionContext(60, "0"))
        assert not any(r.passed for r in reports)

    @pytest.mark.parametrize(
        "tolerance, line",
        [
            ("-1", "tolerance '-1' must be finite and >= 0"),
            ("nan", "tolerance 'nan' must be finite and >= 0"),
            ("inf", "tolerance 'inf' must be finite and >= 0"),
            ("abc", "bad tolerance 'abc'; want e.g. 1e-40"),
            ("1/0", "bad tolerance '1/0'; want e.g. 1e-40"),
            ("0/0", "bad tolerance '0/0'; want e.g. 1e-40"),
        ],
        ids=["-1", "nan", "inf", "abc", "1/0", "0/0"],
    )
    def test_bad_tolerance_rejected(self, tolerance, line):
        # read once, when the context is built, before any value is computed
        with pytest.raises(ValueError) as info:
            PrecisionContext(60, tolerance)
        assert str(info.value) == line


class TestIdentityGrid:
    @pytest.mark.parametrize("family", [
        PLAIN,
        PLUS_HALF,
        ArgumentFamily(FamilyKind.MINUS_SHIFT, Fraction(2, 3)),
    ], ids=["plain", "plus", "minus"])
    def test_small_grid_passes(self, family):
        cells = list(verify_grid(family, 3, range(family.min_index, 5), CTX))
        assert len(cells) == 4 * (5 - family.min_index)
        for n, m, report in cells:
            assert report.passed, (family, n, m)


class TestSweepBudget:
    THIRD = Fraction(1, 3)

    @pytest.mark.parametrize(
        "family, n_max, m_max, digits",
        [
            # the benchmark's sweeps
            (PLAIN, 10, 12, 100),
            (ArgumentFamily(FamilyKind.MINUS_SHIFT, THIRD), 8, 10, 60),
            (ArgumentFamily(FamilyKind.PLUS_SHIFT, THIRD), 8, None, 150),
            # `verify --n-max 20 --m-max 30 --digits 100` took 2 s; the
            # acceptance sweep's shifted grid
            (PLAIN, 20, 30, 100),
            (ArgumentFamily(FamilyKind.MINUS_SHIFT, HALF), 6, 8, 60),
            # the largest sweep at the digit cap that the CLI tests run
            (PLAIN, 0, 3, 1000),
            # empty sweeps cost nothing
            (PLAIN, -1, 10**23, 30),
            (PLAIN, 10**23, 0, 30),
            (MINUS_HALF, 0, None, 30),
        ],
    )
    def test_accepted(self, family, n_max, m_max, digits):
        gammanum.check_sweep([family], n_max, m_max, PrecisionContext(digits))

    @pytest.mark.parametrize(
        "family, n_max, m_max",
        [
            # about 2 s, priced over the cap by the j products each point of
            # prefix length j is charged; 96 s
            (PLAIN, 1, 1700),
            (ArgumentFamily(FamilyKind.MINUS_SHIFT, THIRD), 30, None),
            (PLAIN, 1, 10**23),
            (PLAIN, 10**23, 1),
            (PLAIN, 10**23, None),
            # 23 s CPU with the cap lifted (2-core x86-64), 13 s of it in the
            # integer products of j factors that divide Gamma at the points
            # below 0: the estimate's j products per point are their only
            # price when n_max = 0, and without them it would be admitted
            (ArgumentFamily(FamilyKind.MINUS_SHIFT, THIRD), 0, 4347),
        ],
    )
    def test_refused_at_once(self, family, n_max, m_max):
        with pytest.raises(
            GuardExceededError,
            match=f"^the verify sweep is over the work budget {budget.MAX_WORK}$",
        ):
            gammanum.check_sweep([family], n_max, m_max, PrecisionContext(30))

    PLUS_THIRD = ArgumentFamily(FamilyKind.PLUS_SHIFT, THIRD)
    MINUS_THIRD = ArgumentFamily(FamilyKind.MINUS_SHIFT, THIRD)

    ESTIMATES = [
        # the benchmark's sweeps
        (PLAIN, 10, 12, 100, 386842),
        (MINUS_THIRD, 8, 10, 60, 173689),
        (PLUS_THIRD, 8, None, 150, 417258),
        # the finite accepted and refused sweeps above
        (PLAIN, 20, 30, 100, 1485975),
        (MINUS_HALF, 6, 8, 60, 120403),
        (PLAIN, 0, 3, 1000, 4896924),
        (PLAIN, -1, 10**23, 30, 25000),
        (PLAIN, 10**23, 0, 30, 25000),
        (MINUS_HALF, 0, None, 30, 25000),
        (PLAIN, 1, 1700, 30, 1022704426),
        (MINUS_THIRD, 30, None, 30, 435553905),
        # both modes of each shifted family, and plain recovery, by digits
        (PLUS_THIRD, 6, 8, 30, 121533),
        (PLUS_THIRD, 6, None, 30, 90105),
        (MINUS_THIRD, 6, 8, 30, 91003),
        (MINUS_THIRD, 6, None, 30, 64455),
        (PLAIN, 6, None, 30, 82580),
        (PLUS_THIRD, 6, 8, 100, 240183),
        (PLUS_THIRD, 6, None, 100, 197585),
        (MINUS_THIRD, 6, 8, 100, 159603),
        (MINUS_THIRD, 6, None, 100, 133055),
        (PLAIN, 6, None, 100, 184430),
        (PLUS_THIRD, 6, 8, 1000, 16735923),
        (PLUS_THIRD, 6, None, 1000, 15117782),
        (MINUS_THIRD, 6, 8, 1000, 9786771),
        (MINUS_THIRD, 6, None, 1000, 9705398),
        (PLAIN, 6, None, 1000, 14318642),
    ]

    @pytest.mark.parametrize("family, n_max, m_max, digits, units", ESTIMATES)
    def test_estimates_are_pinned(self, family, n_max, m_max, digits, units):
        # recorded before the Hurwitz walk was priced once per family; a
        # repricing shows up as an edit of this table
        ctx = PrecisionContext(digits)
        assert sum(gammanum._sweep_work(family, n_max, m_max, ctx)) == units

    @pytest.mark.parametrize(
        "family, m_max, units",
        [
            (family, m_max, units)
            for family, n_max, m_max, _, units in ESTIMATES
            # an empty sweep is refused as empty before any ratio is walked
            if m_max is not None and n_max >= 0 and m_max >= family.min_index
        ],
    )
    def test_ratio_charge_never_refuses_first(self, family, m_max, units):
        # the Gamma ratio walk charges itself what the sweep's estimate
        # already holds, so a sweep `check_sweep` admits is not refused by it
        assert coeffs._ratio_work(family, m_max) <= units

    @settings(deadline=None)
    @given(
        family=st.one_of(
            st.just(PLAIN),
            st.builds(
                lambda kind, q, p: ArgumentFamily(kind, Fraction(p % (q - 1) + 1, q)),
                st.sampled_from([FamilyKind.PLUS_SHIFT, FamilyKind.MINUS_SHIFT]),
                st.integers(2, 12),
                st.integers(0, 10),
            ),
        ),
        n_max=st.integers(0, 30),
        m_max=st.integers(1, 2000),
        digits=st.integers(30, 1000),
    )
    def test_ratio_charge_never_refuses_first_anywhere(self, family, n_max, m_max, digits):
        # the estimate's terms are >= 0, so its running sum may stop once it
        # passes the walk's charge
        ratio = coeffs._ratio_work(family, m_max)
        work = gammanum._sweep_work(family, n_max, m_max, PrecisionContext(digits))
        assert any(total >= ratio for total in itertools.accumulate(work))

    def test_families_add_up(self, monkeypatch):
        shifts = [ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(k, 7)) for k in range(1, 7)]
        one = sum(gammanum._sweep_work(shifts[0], 4, 4, CTX))
        monkeypatch.setattr(budget, "MAX_WORK", 6 * one)
        gammanum.check_sweep(shifts, 4, 4, CTX)
        monkeypatch.setattr(budget, "MAX_WORK", 6 * one - 1)
        with pytest.raises(GuardExceededError):
            gammanum.check_sweep(shifts, 4, 4, CTX)


def _mpf(q):
    return mp.mpf(q.numerator) / q.denominator


def _count_oracle_calls(monkeypatch) -> list:
    """Record every mp.psi and mp.gamma call, with the caches cleared."""
    calls = []
    for name in ("psi", "gamma"):
        original = getattr(mp, name)

        def counted(*args, _name=name, _original=original):
            calls.append((_name, *args))
            return _original(*args)

        monkeypatch.setattr(mp, name, counted)
    gammanum._psi_cached.cache_clear()
    gammanum._gamma_cached.cache_clear()
    return calls


def _no_check(*args, **kwargs):
    raise AssertionError("a check ran before the sweep was charged and bounded")


def _lone_cell(family, n, m, ctx):
    """One identity cell computed alone: Gamma^(0..n) at the basis point and
    at the lattice point, and the row of a one-index coefficient table."""
    basis = gamma_derivatives(family.basis_point, n, ctx)
    reference = gamma_derivatives(family.point(m), n, ctx)[n]
    row = coefficient_table(family, n, (m,))[0]
    with mp.workdps(ctx.working_digits):
        value = mp.mpf(0)
        for c, b in zip(row, basis):
            value += mp.mpf(c.numerator) / mp.mpf(c.denominator) * b
        return gammanum._compare(value, reference, ctx)


class TestVerifySweep:
    PLUS_THIRD = ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(1, 3))

    def test_identity_cells_are_verify_identity(self):
        # the sweep reads every cell off one vector per point and one table
        # per family; each must equal the cell computed alone, bit for bit
        families = [PLAIN] + [
            ArgumentFamily(kind, Fraction(k, 3))
            for kind in (FamilyKind.PLUS_SHIFT, FamilyKind.MINUS_SHIFT)
            for k in (1, 2)
        ]
        cells = list(gammanum.verify_sweep(families, 4, 5, CTX))
        assert [(f, n, m) for f, n, m, _ in cells] == [
            (f, n, m)
            for f in families
            for n in range(5)
            for m in range(f.min_index, 6)
        ]
        swept = {(f, n, m): residual for f, n, m, residual in cells}
        for family, n, m, residual in cells:
            assert residual == _lone_cell(family, n, m, CTX), (family, n, m)
            # the one-index grid up to order n yields the sweep's cells at m
            for k, _, alone in verify_grid(family, n, (m,), CTX):
                assert alone == swept[family, k, m], (family, k, m)

    THIRD = Fraction(1, 3)

    def test_one_oracle_call_per_order_and_shift(self, monkeypatch):
        # psi^(k) at the basis point for every order; psi^(0) and Gamma at
        # each other point.  Above the basis the ladder reads psi^(k), k >= 1,
        # off its own Hurwitz walk and rounds it itself, so mp.psi of an order
        # k >= 1 runs only at the basis point.
        calls = _count_oracle_calls(monkeypatch)
        dps = CTX.working_digits
        shifts = [self.THIRD, 2 * self.THIRD]
        minus = [ArgumentFamily(FamilyKind.MINUS_SHIFT, kappa) for kappa in shifts]

        def sweep(families, n_max, m_max):
            for *_, result in gammanum.verify_sweep(families, n_max, m_max, CTX):
                yield from result if m_max is None else [result]

        def public_recovery(families, n_max, m_max):
            # the public solve of the top order builds the sweep's vectors
            (family,) = families
            spec = LatticeSpec(family, range(family.min_index, n_max + 1))
            return verify_recovery(spec, n_max, CTX)

        cases = [
            # a point below the basis shifts up to the basis point itself, so
            # a minus sweep evaluates psi^(k) and Gamma at each shift once
            (sweep, minus, 6, 8, True),
            (sweep, [PLAIN], 6, 7, False),
            (sweep, [PLAIN], 6, 8, False),
            (sweep, [self.PLUS_THIRD], 6, 8, False),
            (sweep, [self.PLUS_THIRD], 6, None, False),
            (public_recovery, [self.PLUS_THIRD], 6, None, False),
        ]
        for run, families, n_max, m_max, basis_only in cases:
            calls.clear()
            gammanum._psi_cached.cache_clear()
            gammanum._gamma_cached.cache_clear()
            assert all(r.passed for r in run(families, n_max, m_max))
            expected = []
            for family in families:
                last = n_max if m_max is None else m_max
                points = [family.point(m) for m in range(family.min_index, last + 1)]
                if basis_only:
                    points = points[:1]
                with mp.workdps(dps):
                    expected += [("gamma", _mpf(q)) for q in points]
                    expected += [("psi", k, _mpf(family.basis_point)) for k in range(n_max)]
                    expected += [("psi", 0, _mpf(q)) for q in points[1:]]
            assert sorted(calls) == sorted(expected), (run.__name__, families, m_max)

    def test_recovery_builds_one_vector_per_point(self, monkeypatch):
        # every order reads the vectors Gamma^(0..n_max) of its points
        built = []
        bell = gammanum._bell
        monkeypatch.setattr(
            gammanum, "_bell", lambda point, *args: built.append(point) or bell(point, *args)
        )
        list(gammanum.verify_sweep([self.PLUS_THIRD], 8, None, PrecisionContext(30)))
        assert sorted(built) == [self.THIRD + j for j in range(9)]

    def test_identity_grid_builds_one_vector_per_point(self, monkeypatch):
        # the basis vector is read off the same map as every other point's,
        # so the basis point is built once, also when the grid leaves it out
        built = []
        bell = gammanum._bell
        monkeypatch.setattr(
            gammanum, "_bell", lambda point, *args: built.append(point) or bell(point, *args)
        )
        ctx = PrecisionContext(30)
        list(gammanum.verify_sweep([PLAIN, self.PLUS_THIRD], 4, 5, ctx))
        plain = [Fraction(m) for m in range(1, 6)]
        assert sorted(built) == sorted(plain + [self.THIRD + j for j in range(6)])
        built.clear()
        list(verify_grid(self.PLUS_THIRD, 4, (3,), ctx))
        assert sorted(built) == [self.THIRD, self.THIRD + 3]

    def test_recovery_orders_are_verify_recovery(self):
        orders = list(gammanum.verify_sweep([self.PLUS_THIRD], 2, None, CTX))
        assert [(f, n, indices) for f, n, indices, _ in orders] == [
            (self.PLUS_THIRD, 1, (0, 1)),
            (self.PLUS_THIRD, 2, (0, 1, 2)),
        ]
        for family, n, indices, residuals in orders:
            assert residuals == verify_recovery(LatticeSpec(family, indices), n, CTX)

    @pytest.mark.parametrize(
        "n_max, m_max", [(1, 1700), (1, 10**23), (10**23, 1), (10**23, None)]
    )
    def test_over_the_budget_refused_before_any_check(self, monkeypatch, n_max, m_max):
        monkeypatch.setattr(gammanum, "gamma_derivatives", _no_check)
        sweep = gammanum.verify_sweep([PLAIN], n_max, m_max, PrecisionContext(30))
        with pytest.raises(
            GuardExceededError,
            match=f"^the verify sweep is over the work budget {budget.MAX_WORK}$",
        ):
            next(sweep)

    @pytest.mark.parametrize(
        "families, n_max, m_max, line",
        [
            ([PLAIN], 10**23, 0, "m_max must be >= 1; the plain sweep is empty"),
            ([PLAIN], -1, 3, "n_max must be >= 0; the plain sweep is empty"),
            ([PLAIN], 1, None, "n_max must be >= 2; the plain sweep is empty"),
            ([PLUS_HALF], 0, None, "n_max must be >= 1; the plus sweep is empty"),
            # every family is bounded before the first one runs
            ([PLUS_HALF, PLAIN], 1, 0, "m_max must be >= 1; the plain sweep is empty"),
        ],
    )
    def test_empty_sweep_refused_at_once(self, monkeypatch, families, n_max, m_max, line):
        monkeypatch.setattr(gammanum, "gamma_derivatives", _no_check)
        with pytest.raises(ValueError, match=f"^{line}$"):
            next(gammanum.verify_sweep(families, n_max, m_max, CTX))


class TestPsiLadder:
    """The ladder's psi^(k) are psi^(k)(fl(q)) correctly rounded, for fl(q)
    the argument mp.psi takes: mp.psi at 64 more bits, rounded to nearest."""

    @given(
        denominator=st.integers(1, 60),
        data=st.data(),
        rungs=st.integers(1, 6),
        orders=st.integers(1, 20),
        digits=st.integers(30, 200),
    )
    @settings(max_examples=30, deadline=None)
    def test_bits_are_mp_psi(self, denominator, data, rungs, orders, digits):
        if denominator == 1:
            family = PLAIN
        else:
            numerator = data.draw(st.integers(1, denominator - 1), label="numerator")
            family = ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(numerator, denominator))
        low = family.min_index + 1
        self._assert_bits(family, range(low, low + rungs), orders, digits)

    @pytest.mark.parametrize(
        "kappa, digits, orders, rungs",
        [
            # at the digit cap the walk runs about 1800 points and 320 tail terms;
            # each rung costs its reference 1-3 s of mp.psi
            (None, budget.MAX_DIGITS, 20, (2, 22)),
            (Fraction(1, 3), budget.MAX_DIGITS, 20, (1,)),
            (Fraction(5, 7), 300, 40, (1, 41)),
        ],
    )
    def test_bits_are_mp_psi_at_the_edges(self, kappa, digits, orders, rungs):
        family = PLAIN if kappa is None else ArgumentFamily(FamilyKind.PLUS_SHIFT, kappa)
        self._assert_bits(family, rungs, orders, digits)

    @staticmethod
    def _assert_bits(family, indices, orders, digits):
        dps = PrecisionContext(digits).working_digits
        ladder = gammanum._psi_ladder(family, indices, orders, dps)
        assert sorted(ladder) == sorted(indices)
        prec = dps_to_prec(dps)
        for m, values in ladder.items():
            with mp.workdps(dps):
                x = _mpf(family.point(m))
            expected = []
            for k in range(1, orders + 1):
                with mp.workprec(prec + 64):
                    wide = mp.psi(k, x)
                with mp.workprec(prec):
                    expected.append(mp.mpf(wide)._mpf_)
            assert [v._mpf_ for v in values] == expected, (family, m, digits)

    def test_a_far_point_too_close_raises(self):
        # at T = 2 + 2 a term ratio of zeta(2, T)'s tail passes 1/2 while its
        # terms are still far above a unit of 2^-200: no sum is returned
        with pytest.raises(ArithmeticError, match="^far point 4 too close$"):
            gammanum._zeta_walk(PLAIN, [2], 3, 2, 200)

    def test_a_broken_tail_fails_verify(self, monkeypatch, capsys):
        # twice B_2 in the walk's tail moves every ladder value by its first
        # tail term, while mp.psi at the basis point reads mpmath's own
        # Bernoulli numbers: the check links two independent sums
        bernoulli = gammanum.mpf_bernoulli

        def broken(n, prec):
            value = bernoulli(n, prec)
            return mpf_shift(value, 1) if n == 2 else value

        common = ["verify", "--n-max", "3", "--digits", "30"]
        sweeps = [
            [*common, "--family", "plain", "--m-max", "4"],
            [*common, "--family", "plus", "--mode", "recover", "--kappa-set", "1/3"],
        ]
        for argv in sweeps:
            assert main(argv) == 0
        monkeypatch.setattr(gammanum, "mpf_bernoulli", broken)
        for argv in sweeps:
            assert main(argv) == 1, argv
        capsys.readouterr()

    def test_a_broken_ladder_step_fails_verify(self, monkeypatch, capsys):
        # drop the step that takes psi'(3) to psi'(2) = psi'(3) + 1/4: the
        # Gamma'' and Gamma''' cells at 2 no longer agree with the basis
        ladder = gammanum._psi_ladder

        def broken(family, indices, orders, dps):
            values = ladder(family, indices, orders, dps)
            with mp.workdps(dps):
                values[2][0] -= mp.mpf(1) / 4
            return values

        argv = ["verify", "--family", "plain", "--n-max", "3", "--m-max", "4", "--digits", "30"]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(gammanum, "_psi_ladder", broken)
        assert main(argv) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {(row["n"], row["m"]) for row in rows if not row["pass"]} == {(2, 2), (3, 2)}
