"""Acceptance suite.

Each test sweeps one end-to-end claim at its pinned tolerance and prints a
single PASS/FAIL line (run pytest with -s to see them on success).
"""

import time
from fractions import Fraction
from itertools import combinations

from mpmath import mp

from gammalattice import (
    KNOWN_TRANSCENDENTAL_SHIFTS,
    ArgumentFamily,
    FamilyKind,
    LatticeSpec,
    PolyKind,
    PrecisionContext,
    RationalMatrix,
    bivariate_bound,
    bivariate_min_sum,
    bivariate_shifted_bound,
    build_system,
    certify_prefix_matrix,
    det_exact,
    elementary_matrix,
    elementary_prefix,
    gamma_derivatives,
    gamma_value,
    homogeneous_matrix,
    homogeneous_prefix,
    inverse_exact,
    recover_basis,
    verify_identity,
)

from _oracles import elementary_bruteforce, homogeneous_bruteforce, machin_pi

CTX60 = PrecisionContext(60)

SWEEP_FAMILIES = [
    ArgumentFamily(FamilyKind.PLAIN),
    ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(1, 2)),
    ArgumentFamily(FamilyKind.MINUS_SHIFT, Fraction(1, 2)),
]

ALL_KAPPAS = sorted(KNOWN_TRANSCENDENTAL_SHIFTS)


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")


def _sweep_subsets(pool=range(11), max_size=5):
    for size in range(1, max_size + 1):
        yield from combinations(pool, size)


def test_criterion_1_identity_sweep():
    started = time.time()
    tol = None
    failures = []
    checked = 0
    with mp.workdps(CTX60.working_digits):
        tol = mp.mpf(10) ** -40
    for n in range(9):
        for m in range(1, 13):
            report = verify_identity(FamilyKind.PLAIN, n, m, None, CTX60)
            checked += 1
            if not (report.passed and report.rel_residual < tol):
                failures.append(("plain", n, m))
    for family in (FamilyKind.PLUS_SHIFT, FamilyKind.MINUS_SHIFT):
        for kappa in ALL_KAPPAS:
            for n in range(7):
                for m in range(9):
                    report = verify_identity(family, n, m, kappa, CTX60)
                    checked += 1
                    if not (report.passed and report.rel_residual < tol):
                        failures.append((family.value, kappa, n, m))
    elapsed = time.time() - started
    ok = not failures and elapsed < 120
    _report(1, "identity sweep", ok, f"{checked} identities, {elapsed:.1f}s")
    assert not failures, failures[:10]
    assert elapsed < 120


def test_criterion_2_determinant_certificates():
    started = time.time()
    failures = []
    subsets = list(_sweep_subsets())
    for family in SWEEP_FAMILIES:
        for m_primes in subsets:
            k = len(m_primes)
            if k < 2:
                det_e = det_exact(elementary_matrix(m_primes, family, k))
                det_h = det_exact(homogeneous_matrix(m_primes, family, k - 1))
                if det_e <= 0 or det_h <= 0:
                    failures.append(("det", family.kind.value, m_primes))
                continue
            for kind in PolyKind:
                certificate = certify_prefix_matrix(m_primes, family, kind)
                if certificate.parent_det <= 0:
                    failures.append(("det", family.kind.value, kind.value, m_primes))
                    continue
                if certificate.expansion.total_det != certificate.parent_det:
                    failures.append(("total", family.kind.value, kind.value, m_primes))
                if not certificate.expansion.surviving:
                    failures.append(("empty", family.kind.value, kind.value, m_primes))
                if not certificate.all_terms_positive:
                    failures.append(("sign", family.kind.value, kind.value, m_primes))
    elapsed = time.time() - started
    ok = not failures and elapsed < 60
    _report(
        2,
        "prefix-matrix certificates",
        ok,
        f"{len(subsets)} index sets x {len(SWEEP_FAMILIES)} families, {elapsed:.1f}s",
    )
    assert not failures, failures[:10]
    assert elapsed < 60


def test_criterion_3_square_system_nonsingularity():
    failures = []
    count = 0
    kappa = Fraction(1, 2)
    for m_primes in _sweep_subsets():
        k = len(m_primes)
        systems = [
            build_system(
                LatticeSpec(FamilyKind.PLAIN, tuple(m + 1 for m in m_primes)), k
            )
        ]
        systems.append(
            build_system(LatticeSpec(FamilyKind.PLUS_SHIFT, m_primes, kappa), k - 1)
        )
        systems.append(
            build_system(LatticeSpec(FamilyKind.MINUS_SHIFT, m_primes, kappa), k - 1)
        )
        for system in systems:
            count += 1
            det = det_exact(system.matrix)
            if det == 0:
                failures.append((system.spec.family.value, m_primes, "det=0"))
                continue
            inverse = inverse_exact(system.matrix)
            identity = RationalMatrix.identity(system.matrix.rows)
            if (system.matrix @ inverse).entries != identity.entries:
                failures.append((system.spec.family.value, m_primes, "round-trip"))
    _report(3, "square-system nonsingularity", not failures, f"{count} systems")
    assert not failures, failures[:10]


def test_criterion_4_basis_recovery():
    failures = []
    with mp.workdps(CTX60.working_digits):
        tol = mp.mpf(10) ** -40
        euler_reference = -mp.euler

    plain_index_sets = {
        2: [(1, 2), (2, 5), (1, 7)],
        3: [(1, 2, 3), (2, 4, 7), (1, 3, 8)],
        4: [(1, 2, 3, 4), (2, 3, 5, 9), (1, 4, 6, 10)],
    }
    for n, index_sets in plain_index_sets.items():
        for indices in index_sets:
            recovered = recover_basis(LatticeSpec(FamilyKind.PLAIN, indices), n, CTX60)
            with mp.workdps(CTX60.working_digits):
                if abs(recovered[0] - euler_reference) >= tol:
                    failures.append(("plain", n, indices))

    for family in (FamilyKind.PLUS_SHIFT, FamilyKind.MINUS_SHIFT):
        for kappa in ALL_KAPPAS:
            for n in (1, 2, 3):
                spec = LatticeSpec(family, tuple(range(n + 1)), kappa)
                recovered = recover_basis(spec, n, CTX60)
                reference = gamma_value(kappa, CTX60)
                with mp.workdps(CTX60.working_digits):
                    if abs(recovered[0] - reference) >= tol:
                        failures.append((family.value, kappa, n))

    # the pair (Gamma'(1), Gamma''(1)) encodes zeta(2) = pi^2/6
    derivs = gamma_derivatives(1, 2, CTX60).values
    pi_reference = machin_pi(CTX60)
    with mp.workdps(CTX60.working_digits):
        zeta2 = derivs[2] - derivs[1] ** 2
        if abs(zeta2 - pi_reference**2 / 6) >= tol:
            failures.append(("zeta2",))

    _report(4, "basis recovery", not failures)
    assert not failures, failures


def test_criterion_5_density_closed_forms():
    started = time.time()
    failures = []
    for N in range(2, 201):
        for M in range(1, 201):
            if bivariate_bound(N, M).value != bivariate_min_sum("plain", N, M):
                failures.append(("plain", N, M))
    for N in range(1, 201):
        for M in range(201):
            if bivariate_shifted_bound(N, M).value != bivariate_min_sum(
                "shifted", N, M
            ):
                failures.append(("shifted", N, M))
    for N in range(2, 201):
        M = N - 1
        if M >= 1 and bivariate_bound(N, M).value != 1 - Fraction(N, 2 * M):
            failures.append(("plain-boundary", N))
    for N in range(1, 201):
        M = N - 1
        if bivariate_shifted_bound(N, M).value != 1 - Fraction(N + 1, 2 * (M + 1)):
            failures.append(("shifted-boundary", N))
    for N in (10, 100, 200):
        value = bivariate_bound(N, N).value
        if abs(value - Fraction(1, 2)) > Fraction(1, 2 * (N - 1)):
            failures.append(("diagonal", N))
        if N == 10 and value != Fraction(1, 2):
            failures.append(("diagonal-exact", N))
    elapsed = time.time() - started
    ok = not failures and elapsed < 10
    _report(5, "density closed forms", ok, f"{elapsed:.1f}s")
    assert not failures, failures[:10]
    assert elapsed < 10


def test_criterion_6_symmetric_polynomial_oracles():
    failures = []
    for family in SWEEP_FAMILIES:
        e_table = elementary_prefix(family, 8, 8)
        h_table = homogeneous_prefix(family, 8, 8)
        for j in range(9):
            prefix = family.prefix(j)
            for v in range(9):
                if e_table.value(j, v) != elementary_bruteforce(prefix, v):
                    failures.append(("e", family.kind.value, j, v))
                if h_table.value(j, v) != homogeneous_bruteforce(prefix, v):
                    failures.append(("h", family.kind.value, j, v))
            for k in range(1, 9):
                duality = sum(
                    (-1) ** i * e_table.value(j, i) * h_table.value(j, k - i)
                    for i in range(k + 1)
                )
                if duality != 0:
                    failures.append(("newton", family.kind.value, j, k))
    _report(6, "symmetric polynomial oracles", not failures)
    assert not failures, failures[:10]


def test_criterion_7_precision_doubling_anchors():
    failures = []

    def anchors(digits):
        ctx = PrecisionContext(digits)
        d1 = gamma_derivatives(1, 2, ctx)
        return {
            "neg-euler": d1.values[1],
            "euler-sq-plus-zeta2": d1.values[2],
            "sqrt-pi": gamma_value(Fraction(1, 2), ctx),
            "neg-two-sqrt-pi": gamma_value(Fraction(-1, 2), ctx),
        }

    for digits in (40, 80):
        coarse = anchors(digits)
        fine = anchors(2 * digits)
        with mp.workdps(4 * digits):
            bound = mp.mpf(10) ** -digits
            for name in coarse:
                drift = abs(coarse[name] - fine[name]) / abs(fine[name])
                if drift >= bound:
                    failures.append((digits, name, drift))
    _report(7, "precision-doubling anchors", not failures)
    assert not failures, failures
