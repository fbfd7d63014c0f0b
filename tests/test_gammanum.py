from fractions import Fraction

import pytest
from mpmath import mp

from gammalattice import (
    ArgumentFamily,
    FamilyKind,
    GuardExceededError,
    LatticeSpec,
    PoleArgumentError,
    PrecisionContext,
    SpecMismatchError,
    build_system,
    gamma_derivatives,
    recover_basis,
    verify_identity,
    verify_recovery,
)

from gammalattice import budget, gammanum

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
    def test_order_zero_is_factorial(self):
        report = verify_identity(PLAIN, 0, 5, ctx=CTX)
        assert report.passed
        assert close(report.reference, 24)
        assert close(report.value, 24)

    def test_plain_second_derivative(self):
        report = verify_identity(PLAIN, 2, 3, ctx=CTX)
        with mp.workdps(CTX.working_digits):
            expected = 2 - 6 * mp.euler + 2 * (mp.euler**2 + mp.pi**2 / 6)
            assert close(report.reference, expected)
        assert report.passed
        with mp.workdps(CTX.working_digits):
            assert report.rel_residual < mp.mpf(10) ** -40

    def test_minus_shift_reflection_point(self):
        report = verify_identity(MINUS_HALF, 0, 1, CTX)
        assert report.passed
        with mp.workdps(CTX.working_digits):
            assert close(report.reference, -2 * mp.sqrt(mp.pi))

    def test_family_kappa_consistency(self):
        # the family carries its shift, so a mismatch fails before any sum
        with pytest.raises(SpecMismatchError):
            verify_identity(ArgumentFamily(FamilyKind.PLAIN, HALF), 1, 2, CTX)
        with pytest.raises(SpecMismatchError):
            verify_identity(ArgumentFamily(FamilyKind.PLUS_SHIFT), 1, 2, CTX)

    def test_tolerance_override_can_fail(self):
        # residuals can round to exactly zero, so only a zero tolerance is a
        # guaranteed forcing knob under the strict comparison
        report = verify_identity(PLAIN, 2, 3, ctx=PrecisionContext(60, "0"))
        assert not report.passed


class TestRecoverBasis:
    def test_plain_recovers_euler(self):
        spec = LatticeSpec(PLAIN, (1, 2))
        recovered = recover_basis(spec, 2, CTX)
        with mp.workdps(CTX.working_digits):
            assert close(recovered[0], -mp.euler)

    def test_plain_index_set_independence(self):
        for indices in ((1, 2), (2, 5), (1, 7)):
            recovered = recover_basis(LatticeSpec(PLAIN, indices), 2, CTX)
            with mp.workdps(CTX.working_digits):
                assert close(recovered[0], -mp.euler)

    def test_plus_recovers_gamma_at_half(self):
        spec = LatticeSpec(PLUS_HALF, (0, 1))
        recovered = recover_basis(spec, 1, CTX)
        assert close(recovered[0], gamma_at(Fraction(1, 2)))

    def test_round_trip_through_system(self):
        spec = LatticeSpec(MINUS_HALF, (0, 2, 3))
        recovered = recover_basis(spec, 2, CTX)
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
            recover_basis(LatticeSpec(PLAIN, (1, 2, 3)), 2, CTX)


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
        ],
        ids=["-1", "nan", "inf", "abc"],
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
        for n in range(4):
            for m in range(family.min_index, 5):
                report = verify_identity(family, n, m, CTX)
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
            # 18 s; 96 s
            (PLAIN, 1, 1700),
            (ArgumentFamily(FamilyKind.MINUS_SHIFT, THIRD), 30, None),
            (PLAIN, 1, 10**23),
            (PLAIN, 10**23, 1),
            (PLAIN, 10**23, None),
        ],
    )
    def test_refused_at_once(self, family, n_max, m_max):
        with pytest.raises(
            GuardExceededError,
            match=f"^the verify sweep is over the work budget {budget.MAX_WORK}$",
        ):
            gammanum.check_sweep([family], n_max, m_max, PrecisionContext(30))

    def test_families_add_up(self, monkeypatch):
        shifts = [ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(k, 7)) for k in range(1, 7)]
        one = sum(gammanum._sweep_work(shifts[0], 4, 4, CTX))
        monkeypatch.setattr(budget, "MAX_WORK", 6 * one)
        gammanum.check_sweep(shifts, 4, 4, CTX)
        monkeypatch.setattr(budget, "MAX_WORK", 6 * one - 1)
        with pytest.raises(GuardExceededError):
            gammanum.check_sweep(shifts, 4, 4, CTX)


def _no_check(*args, **kwargs):
    raise AssertionError("a check ran before the sweep was charged and bounded")


class TestVerifySweep:
    PLUS_THIRD = ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(1, 3))

    def test_identity_cells_are_verify_identity(self):
        cells = list(gammanum.verify_sweep([PLAIN], 2, 3, CTX))
        assert [(f, n, m) for f, n, m, _ in cells] == [
            (PLAIN, n, m) for n in range(3) for m in range(1, 4)
        ]
        for family, n, m, residual in cells:
            assert residual == verify_identity(family, n, m, CTX)

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
        monkeypatch.setattr(gammanum, "verify_identity", _no_check)
        monkeypatch.setattr(gammanum, "verify_recovery", _no_check)
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
        monkeypatch.setattr(gammanum, "verify_identity", _no_check)
        monkeypatch.setattr(gammanum, "verify_recovery", _no_check)
        with pytest.raises(ValueError, match=f"^{line}$"):
            next(gammanum.verify_sweep(families, n_max, m_max, CTX))
