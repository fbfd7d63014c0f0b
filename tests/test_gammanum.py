from fractions import Fraction

import pytest
from mpmath import mp

from gammalattice import (
    FamilyKind,
    LatticeSpec,
    PoleArgumentError,
    PrecisionContext,
    SpecMismatchError,
    build_system,
    gamma_derivatives,
    gamma_value,
    polygamma,
    recover_basis,
    verify_identity,
    verify_recovery,
)

from _oracles import machin_pi

CTX = PrecisionContext(60)
HALF = Fraction(1, 2)


def close(a, b, ctx=CTX, tol="1e-40"):
    with mp.workdps(ctx.working_digits):
        return abs(a - b) < mp.mpf(tol)


class TestPrecisionContext:
    def test_working_digits(self):
        assert PrecisionContext(40, 15).working_digits == 55

    def test_minimum_digits(self):
        with pytest.raises(ValueError):
            PrecisionContext(19)
        with pytest.raises(ValueError):
            PrecisionContext(29)
        with pytest.raises(ValueError):
            PrecisionContext(40, -1)

    def test_default_tolerance_is_guard_budget(self):
        ctx = PrecisionContext(60)
        with mp.workdps(ctx.working_digits):
            assert ctx.default_tolerance() == mp.mpf(10) ** -40


    def test_default_tolerance_ignores_guard_digits(self):
        assert float(PrecisionContext(60, 30).default_tolerance()) == 1e-40
        assert float(PrecisionContext(60, 0).default_tolerance()) == 1e-40
        assert float(PrecisionContext(30).default_tolerance()) == 1e-10


class TestPolygamma:
    def test_euler_anchor(self):
        # psi(1) = -gamma; reference from an unrelated internal algorithm
        with mp.workdps(CTX.working_digits):
            assert close(polygamma(0, 1, CTX), -mp.euler)

    def test_zeta_two_anchor(self):
        # psi'(1) = pi^2 / 6 with pi from the arctangent series
        pi_ref = machin_pi(CTX)
        with mp.workdps(CTX.working_digits):
            assert close(polygamma(1, 1, CTX), pi_ref**2 / 6)

    def test_half_argument_closed_form(self):
        with mp.workdps(CTX.working_digits):
            expected = -mp.euler - 2 * mp.log(2)
            assert close(polygamma(0, Fraction(1, 2), CTX), expected)

    def test_negative_argument_recurrence(self):
        # psi''(-1/2) = psi''(1/2) + 2!/(-1/2)^3 reversed: shift by one step
        lhs = polygamma(2, Fraction(-1, 2), CTX)
        rhs_base = polygamma(2, Fraction(1, 2), CTX)
        with mp.workdps(CTX.working_digits):
            step = 2 / (mp.mpf(-1) / 2) ** 3
            assert close(lhs, rhs_base - step)

    def test_poles_rejected(self):
        for bad in (0, -1, -7):
            with pytest.raises(PoleArgumentError):
                polygamma(0, bad, CTX)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            polygamma(-1, 1, CTX)


class TestGammaValue:
    def test_half(self):
        pi_ref = machin_pi(CTX)
        with mp.workdps(CTX.working_digits):
            assert close(gamma_value(Fraction(1, 2), CTX), mp.sqrt(pi_ref))

    def test_factorial(self):
        assert close(gamma_value(5, CTX), 24)

    def test_negative_half(self):
        pi_ref = machin_pi(CTX)
        with mp.workdps(CTX.working_digits):
            assert close(gamma_value(Fraction(-1, 2), CTX), -2 * mp.sqrt(pi_ref))

    def test_pole(self):
        with pytest.raises(PoleArgumentError):
            gamma_value(-2, CTX)


class TestGammaDerivatives:
    def test_at_one(self):
        derivs = gamma_derivatives(1, 2, CTX)
        with mp.workdps(CTX.working_digits):
            assert close(derivs.values[0], 1)
            assert close(derivs.values[1], -mp.euler)
            assert close(derivs.values[2], mp.euler**2 + mp.pi**2 / 6)

    def test_at_two(self):
        derivs = gamma_derivatives(2, 1, CTX)
        with mp.workdps(CTX.working_digits):
            assert close(derivs.values[1], 1 - mp.euler)

    def test_positive_value_at_positive_point(self):
        assert gamma_derivatives(Fraction(7, 3), 4, CTX).values[0] > 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            gamma_derivatives(1, -1, CTX)

    @pytest.mark.parametrize(
        "point", [Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(-13, 6)]
    )
    def test_precision_doubling(self, point):
        low = PrecisionContext(40)
        high = PrecisionContext(80)
        coarse = gamma_derivatives(point, 4, low).values
        fine = gamma_derivatives(point, 4, high).values
        with mp.workdps(high.working_digits):
            for a, b in zip(coarse, fine):
                assert abs(a - b) / abs(b) < mp.mpf(10) ** -40


class TestVerifyIdentity:
    def test_order_zero_is_factorial(self):
        report = verify_identity(FamilyKind.PLAIN, 0, 5, ctx=CTX)
        assert report.passed
        assert close(report.lhs, 24)
        assert close(report.rhs, 24)

    def test_plain_second_derivative(self):
        report = verify_identity(FamilyKind.PLAIN, 2, 3, ctx=CTX)
        with mp.workdps(CTX.working_digits):
            expected = 2 - 6 * mp.euler + 2 * (mp.euler**2 + mp.pi**2 / 6)
            assert close(report.lhs, expected)
        assert report.passed
        with mp.workdps(CTX.working_digits):
            assert report.rel_residual < mp.mpf(10) ** -40

    def test_minus_shift_reflection_point(self):
        report = verify_identity(FamilyKind.MINUS_SHIFT, 0, 1, HALF, CTX)
        assert report.passed
        with mp.workdps(CTX.working_digits):
            assert close(report.lhs, -2 * mp.sqrt(mp.pi))

    def test_family_kappa_consistency(self):
        with pytest.raises(SpecMismatchError):
            verify_identity(FamilyKind.PLAIN, 1, 2, HALF, CTX)
        with pytest.raises(SpecMismatchError):
            verify_identity(FamilyKind.PLUS_SHIFT, 1, 2, None, CTX)

    def test_tolerance_override_can_fail(self):
        # residuals can round to exactly zero, so only a zero tolerance is a
        # guaranteed forcing knob under the strict comparison
        report = verify_identity(FamilyKind.PLAIN, 2, 3, ctx=CTX, tolerance="0")
        assert not report.passed


class TestRecoverBasis:
    def test_plain_recovers_euler(self):
        spec = LatticeSpec(FamilyKind.PLAIN, (1, 2))
        recovered = recover_basis(spec, 2, CTX)
        with mp.workdps(CTX.working_digits):
            assert close(recovered[0], -mp.euler)

    def test_plain_index_set_independence(self):
        for indices in ((1, 2), (2, 5), (1, 7)):
            recovered = recover_basis(LatticeSpec(FamilyKind.PLAIN, indices), 2, CTX)
            with mp.workdps(CTX.working_digits):
                assert close(recovered[0], -mp.euler)

    def test_plus_recovers_gamma_at_half(self):
        spec = LatticeSpec(FamilyKind.PLUS_SHIFT, (0, 1), HALF)
        recovered = recover_basis(spec, 1, CTX)
        assert close(recovered[0], gamma_value(Fraction(1, 2), CTX))

    def test_round_trip_through_system(self):
        spec = LatticeSpec(FamilyKind.MINUS_SHIFT, (0, 2, 3), HALF)
        recovered = recover_basis(spec, 2, CTX)
        system = build_system(spec, 2)
        with mp.workdps(CTX.working_digits):
            for r, point in enumerate(spec.points()):
                direct = gamma_derivatives(point, 2, CTX).values[2]
                reconstructed = mp.mpf(0)
                for c in range(3):
                    entry = system.matrix.at(r, c)
                    reconstructed += (
                        mp.mpf(entry.numerator) / entry.denominator * recovered[c]
                    )
                assert abs(direct - reconstructed) < mp.mpf("1e-40")

    def test_rectangular_rejected(self):
        with pytest.raises(SpecMismatchError):
            recover_basis(LatticeSpec(FamilyKind.PLAIN, (1, 2, 3)), 2, CTX)


class TestVerifyRecovery:
    def test_plain_recovers_euler(self):
        reports = verify_recovery(FamilyKind.PLAIN, 2, None, CTX, None)
        assert [r.ell for r in reports] == [1, 2]
        assert reports[0].spec.indices == (1, 2)
        assert all(r.passed for r in reports)
        with mp.workdps(CTX.working_digits):
            assert close(reports[0].recovered, -mp.euler)

    def test_shifted_starts_at_order_zero(self):
        reports = verify_recovery(FamilyKind.MINUS_SHIFT, 1, HALF, CTX, None)
        assert [r.ell for r in reports] == [0, 1]
        assert reports[0].spec.indices == (0, 1)
        assert close(reports[0].reference, gamma_value(Fraction(1, 2), CTX))
        assert all(r.passed for r in reports)

    def test_zero_tolerance_fails(self):
        reports = verify_recovery(FamilyKind.PLAIN, 2, None, CTX, "0")
        assert not any(r.passed for r in reports)

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf", "abc"])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError):
            verify_identity(FamilyKind.PLAIN, 1, 1, ctx=CTX, tolerance=tolerance)
        with pytest.raises(ValueError):
            verify_recovery(FamilyKind.PLAIN, 2, None, CTX, tolerance)


class TestIdentityGrid:
    @pytest.mark.parametrize("family,kappa", [
        (FamilyKind.PLAIN, None),
        (FamilyKind.PLUS_SHIFT, HALF),
        (FamilyKind.MINUS_SHIFT, Fraction(2, 3)),
    ], ids=["plain", "plus", "minus"])
    def test_small_grid_passes(self, family, kappa):
        m_start = 1 if family is FamilyKind.PLAIN else 0
        for n in range(4):
            for m in range(m_start, 5):
                report = verify_identity(family, n, m, kappa, CTX)
                assert report.passed, (family, n, m)
