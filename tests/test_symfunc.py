"""Symmetric-function identities against brute-force and finite-difference oracles."""

import itertools
import math

import numpy as np
import pytest

from curvelab import (
    ConeViolation,
    curvature_quotient,
    curvature_quotient_gradient,
    ek_derivative_eigen,
    ek_derivative_tensor,
    elementary_symmetric,
    gamma_cone_member,
    newton_maclaurin_gap,
)
from curvelab.symfunc import sigma_all


def sigma_bruteforce(kappa, k):
    """Independent oracle: sum the products of all k-subsets explicitly."""
    if k == 0:
        return 1.0
    if k > len(kappa):
        return 0.0
    return sum(math.prod(sub) for sub in itertools.combinations(kappa, k))


def e_bruteforce(kappa, k):
    return sigma_bruteforce(kappa, k) / math.comb(len(kappa), k)


def random_gamma_k(rng, n, k, tries=200):
    for _ in range(tries):
        kappa = rng.uniform(-0.6, 2.0, size=n)
        if gamma_cone_member(kappa, k):
            return kappa
    raise AssertionError("could not sample the cone")


# -- elementary symmetric values --------------------------------------------


def test_identity_vector_gives_one():
    assert elementary_symmetric(np.ones(3), 2) == pytest.approx(1.0)
    assert elementary_symmetric(np.ones(5), 4) == pytest.approx(1.0)


def test_example_123():
    kappa = np.array([1.0, 2.0, 3.0])
    assert sigma_bruteforce(kappa, 2) == pytest.approx(11.0)
    assert elementary_symmetric(kappa, 2) == pytest.approx(11.0 / 3.0)


def test_e0_and_beyond_n():
    kappa = np.array([0.3, -1.2, 4.0])
    assert elementary_symmetric(kappa, 0) == pytest.approx(1.0)
    assert elementary_symmetric(kappa, 4) == 0.0


def test_against_bruteforce_all_n_all_k():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        for _ in range(25):
            kappa = rng.uniform(-2, 2, size=n)
            for k in range(0, n + 1):
                expected = e_bruteforce(kappa, k)
                got = elementary_symmetric(kappa, k)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_batched_matches_scalar():
    rng = np.random.default_rng(11)
    kappa = rng.uniform(-1, 2, size=(10, 4))
    sig = sigma_all(kappa)
    for row in range(10):
        for k in range(5):
            assert sig[row, k] == pytest.approx(sigma_bruteforce(kappa[row], k), rel=1e-12)


# -- derivative tensor -------------------------------------------------------


def test_derivative_eigen_matches_finite_differences():
    rng = np.random.default_rng(3)
    eps = 1e-6
    for n in (3, 5):
        kappa = rng.uniform(0.2, 2.0, size=n)
        for k in range(1, n + 1):
            d = ek_derivative_eigen(kappa, k)
            for p in range(n):
                up = kappa.copy()
                dn = kappa.copy()
                up[p] += eps
                dn[p] -= eps
                fd = (elementary_symmetric(up, k) - elementary_symmetric(dn, k)) / (2 * eps)
                assert d[p] == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_derivative_tensor_identity_matrix():
    d = ek_derivative_tensor(np.eye(3), 1)
    assert np.allclose(d, np.eye(3) / 3.0, atol=1e-14)


def test_derivative_tensor_diag_example():
    # A = diag(1,2,3), k = 2: dE_2/dkappa = sigma_1(remaining)/C(3,2) = (5,4,3)/3
    d = ek_derivative_tensor(np.diag([1.0, 2.0, 3.0]), 2)
    assert np.allclose(d, np.diag([5.0, 4.0, 3.0]) / 3.0, atol=1e-12)


def test_trace_identities_random_matrices():
    # tr(dE_k) = k E_{k-1}; tr(dE_k A) = k E_k; tr(dE_k A^2) = n E_1 E_k - (n-k) E_{k+1}
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        kappa = random_gamma_k(rng, n, k)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * kappa) @ q.T
        a = 0.5 * (a + a.T)
        d = ek_derivative_tensor(a, k)
        e = [elementary_symmetric(kappa, j) for j in range(n + 2)]
        checks = [
            (np.trace(d), k * e[k - 1]),
            (np.sum(d * a), k * e[k]),
            (np.sum(d * (a @ a)), n * e[1] * e[k] - (n - k) * e[k + 1]),
        ]
        for got, want in checks:
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    assert worst < 1e-10


# -- quotient F = E_k / E_{k-1} ----------------------------------------------


def test_quotient_normalization_and_sphere_values():
    for n in (2, 3, 5):
        for k in range(1, n + 1):
            assert curvature_quotient(np.ones(n), k) == pytest.approx(1.0)
            # sigma_k(I)/sigma_{k-1}(I) = (n+1-k)/k relates the two normalizations
            ratio = math.comb(n, k) / math.comb(n, k - 1)
            assert ratio == pytest.approx((n + 1 - k) / k)


def test_quotient_example():
    assert curvature_quotient(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0 / 6.0)


def test_quotient_homogeneity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        kappa = random_gamma_k(rng, n, k)
        a = rng.uniform(0.1, 10.0)
        f1 = curvature_quotient(kappa, k)
        f2 = curvature_quotient(a * kappa, k)
        assert f2 == pytest.approx(a * f1, rel=1e-12)


def test_quotient_monotone_in_each_argument():
    rng = np.random.default_rng(9)
    eps = 1e-6
    for _ in range(40):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        kappa = random_gamma_k(rng, n, k)
        grad = curvature_quotient_gradient(kappa, k)
        assert np.all(grad > 0)
        for p in range(n):
            up = kappa.copy()
            dn = kappa.copy()
            up[p] += eps
            dn[p] -= eps
            fd = (curvature_quotient(up, k) - curvature_quotient(dn, k)) / (2 * eps)
            assert fd > 0
            assert fd == pytest.approx(grad[p], rel=1e-5, abs=1e-8)


def test_quotient_cone_violation():
    with pytest.raises(ConeViolation):
        curvature_quotient(np.array([3.0, -1.0]), 2)


def test_quotient_gradient_bounds():
    # 1 <= sum dF <= k on Gamma_k^+; the quadratic bound
    # F^2 <= sum dF kappa^2 <= (n-k+1) F^2 needs E_{k+1} >= 0 on top of the
    # cone (its upper half fails on Gamma_k^+ alone, e.g. (1, 1, -0.2), k=2).
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        kappa = random_gamma_k(rng, n, k)
        grad = curvature_quotient_gradient(kappa, k)
        total = grad.sum()
        assert 1.0 - 1e-10 <= total <= k + 1e-10
        f = curvature_quotient(kappa, k)
        quad = float(np.sum(grad * kappa**2))
        assert quad >= f * f - 1e-10 * (1 + f * f)
        if elementary_symmetric(kappa, k + 1) >= 0:
            assert quad <= (n - k + 1) * f * f + 1e-10 * (1 + f * f)


def test_quotient_upper_quadratic_bound_fails_outside_positive_cone():
    # documents why the two-sided bound is tested with E_{k+1} >= 0 only
    kappa = np.array([1.0, 1.0, -0.2])
    assert gamma_cone_member(kappa, 2)
    grad = curvature_quotient_gradient(kappa, 2)
    f = curvature_quotient(kappa, 2)
    assert float(np.sum(grad * kappa**2)) > 2.0 * f * f


# -- Garding cone -------------------------------------------------------------


def test_cone_membership_examples():
    assert gamma_cone_member(np.array([1.0, 1.0]), 2)
    assert gamma_cone_member(np.array([3.0, -1.0]), 1)
    assert not gamma_cone_member(np.array([3.0, -1.0]), 2)
    assert not gamma_cone_member(np.zeros(4), 1)


# -- Newton-MacLaurin ---------------------------------------------------------


def test_newton_maclaurin_zero_on_constant_vectors():
    for n in (2, 4, 6):
        for c in (0.5, 1.0, 3.0):
            kappa = np.full(n, c)
            for k in range(1, n):
                for m in range(k, n):
                    assert abs(newton_maclaurin_gap(kappa, k, m)) < 1e-12


def test_newton_maclaurin_examples():
    assert newton_maclaurin_gap(np.array([1.0, 2.0]), 1, 1) == pytest.approx(0.25)
    assert newton_maclaurin_gap(np.array([1.0, 2.0, 3.0]), 1, 2) > 0


def test_newton_maclaurin_battery():
    rng = np.random.default_rng(100)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        kappa = rng.uniform(0.05, 3.0, size=n)
        for k in range(1, n + 1):
            for m in range(k, n + 1):
                assert newton_maclaurin_gap(kappa, k, m) >= -1e-12


def test_newton_maclaurin_cone_precondition():
    with pytest.raises(ConeViolation):
        newton_maclaurin_gap(np.array([1.0, -2.0]), 1, 1)


# -- helpers -------------------------------------------------------------------


def test_domain_type_validation():
    assert elementary_symmetric(np.array([1.0, 2.0]), 1) == pytest.approx(1.5)
    assert np.allclose(ek_derivative_tensor(np.eye(2), 1), np.eye(2) / 2)
