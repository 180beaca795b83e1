"""Symmetric-function identities against brute-force and finite-difference oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvelab import (
    SphericalGrid,
    curvature_quotient,
    curvature_quotient_gradient,
    ek_derivative_tensor,
    elementary_symmetric,
    gamma_cone_member,
    newton_maclaurin_gap,
    symfunc,
)
from curvelab.errors import ConeViolation
from curvelab.geometry import _radial_field, _support_field
from curvelab.shapes import random_convex_support, random_starshaped
from curvelab.symfunc import (
    _ek_derivative_eigen,
    _sigmas,
    require_cone,
    sigma_all,
    sigma_quotient,
)


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n), min_size=1, max_size=5))))
def test_sigma_all_vector_equals_its_batch_row_bit_for_bit(case):
    # one vector runs the recurrence on Python floats, a batch on numpy columns;
    # the scalar API on one vector must give what the batch row gives
    n, rows = case
    batch = np.array(rows, dtype=float).reshape(len(rows), n)
    sig = sigma_all(batch)
    assert sig.shape == (len(rows), n + 1)
    less = [sigma_all(np.delete(batch, p, axis=-1)) for p in range(n)]  # d sigma_j by kappa_p at j - 1
    for r, (row, want) in enumerate(zip(batch, sig)):
        got = sigma_all(row)
        assert got.shape == (n + 1,) and got.tobytes() == want.tobytes()
        brute = [sigma_bruteforce(row, k) for k in range(n + 1)]
        assert got == pytest.approx(brute, rel=1e-12, abs=1e-9)
        e = [float(want[j]) / math.comb(n, j) for j in range(n + 1)] + [0.0]
        for k in range(n + 1):
            value = elementary_symmetric(row, k)
            assert type(value) is np.float64
            assert value.tobytes() == elementary_symmetric(batch, k)[r].tobytes()
        for k in range(1, n + 1):
            if not gamma_cone_member(row, k):
                continue
            assert curvature_quotient(row, k) == sigma_quotient(want, k)
            for m in range(k, n + 1):
                assert newton_maclaurin_gap(row, k, m) == e[k] * e[m] - e[m + 1] * e[k - 1]
            grad = curvature_quotient_gradient(row, k)
            # C(n, k-1) / C(n, k) (d sigma_k s_(k-1) - s_k d sigma_(k-1)) / s_(k-1)^2 on floats
            s = want.tolist()
            scale = math.comb(n, k - 1) / math.comb(n, k) / s[k - 1] ** 2
            dk = [(float(d[r, k - 1]), float(d[r, k - 2]) if k > 1 else 0.0) for d in less]
            want_grad = np.array([scale * (a * s[k - 1] - s[k] * b) for a, b in dk])
            assert grad.shape == (n,) and grad.tobytes() == want_grad.tobytes()


def test_sigma_all_shapes():
    empty = sigma_all(np.zeros((4, 0)))
    assert empty.shape == (4, 1) and np.all(empty == 1.0)
    assert sigma_all([2.5]).tolist() == [1.0, 2.5]
    assert sigma_all((1.0, 2.0, 3.0)).tolist() == [1.0, 6.0, 11.0, 6.0]
    assert sigma_all(np.ones((2, 3, 2))).shape == (2, 3, 3)


def plain_sigmas(entries):
    """The product-expansion recurrence with its identity steps (adding to 0,
    multiplying by sigma_0 = 1), as written before symfunc trimmed them."""
    sig = [1.0] + [0.0] * len(entries)
    for i, x in enumerate(entries):
        for j in range(i + 1, 0, -1):
            sig[j] = sig[j] + x * sig[j - 1]
    return sig


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3), min_size=n, max_size=n)))
def test_trimmed_recurrence_gives_the_bits_of_the_plain_one(rows):
    # the trim skips exact steps only: every value matches to the bit, and
    # adding 0.0, which turns -0.0 into 0.0 and leaves all else alone, shows
    # that the sign of a zero is the only bit that can differ
    for entries in ([row[0] for row in rows], [np.array(row) for row in rows]):
        got, want = _sigmas(entries), plain_sigmas(entries)
        assert len(got) == len(want) == len(rows) + 1
        for g, w in zip(got, want):
            assert np.all(g == w)
            assert (np.float64(g) + 0.0).tobytes() == (np.float64(w) + 0.0).tobytes()


# -- the curvature fields' sigma ------------------------------------------------


FIELD_GRIDS = [SphericalGrid.axisym(n, 24) for n in range(2, 6)] + [SphericalGrid.full_s2(24, 48)]


@pytest.mark.parametrize("kind", ["radial", "support"])
@pytest.mark.parametrize("grid", FIELD_GRIDS, ids=lambda g: f"{g.mode}-{g.n}")
def test_field_sigma_is_sigma_all_of_the_pair_vector(grid, kind):
    # a field's sigma is the recurrence on (kappa1, kappa2 x (n - 1)): it has
    # sigma_all's bits for the stacked vector, and the subset-product sums to
    # 1e-13 of the largest sigma_j, as an independent oracle
    rng = np.random.default_rng(grid.n)
    if kind == "radial":
        geom = _radial_field(grid, random_starshaped(grid, rng, amp=0.1).values)
    else:
        geom = _support_field(grid, random_convex_support(grid, rng, amp=0.1).values)
    pair = [geom.kappa1] + [geom.kappa2] * (grid.n - 1)
    want = sigma_all(np.stack(pair, axis=-1))
    assert len(geom.sigma) == grid.n + 1
    for j, s in enumerate(geom.sigma):
        s = np.broadcast_to(s, grid.node_shape)
        assert s.tobytes() == want[..., j].tobytes(), j
        brute = sigma_bruteforce(pair, j)
        assert np.abs(s - brute).max() <= 1e-13 * np.abs(brute).max(), j


# -- derivative tensor -------------------------------------------------------


def test_derivative_eigen_matches_finite_differences():
    rng = np.random.default_rng(3)
    eps = 1e-6
    for n in (3, 5):
        kappa = rng.uniform(0.2, 2.0, size=n)
        for k in range(1, n + 1):
            d = _ek_derivative_eigen(kappa, k)
            for p in range(n):
                up = kappa.copy()
                dn = kappa.copy()
                up[p] += eps
                dn[p] -= eps
                fd = (elementary_symmetric(up, k) - elementary_symmetric(dn, k)) / (2 * eps)
                assert d[p] == pytest.approx(fd, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("n", range(1, 8))
def test_derivative_eigen_equals_leave_one_out_construction_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for kappa in (rng.uniform(-1.0, 2.0, size=n), rng.uniform(-1.0, 2.0, size=(3, 2, n))):
        for k in range(1, n + 1):
            cols = [sigma_all(np.delete(kappa, p, axis=-1))[..., k - 1] for p in range(n)]
            want = np.stack(cols, axis=-1) / math.comb(n, k)
            got = _ek_derivative_eigen(kappa, k)
            assert got.shape == kappa.shape and got.tobytes() == want.tobytes()


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


def _accepts(check, kappa, k):
    """Whether one of symfunc's cone checks lets kappa through as a member of Gamma_k^+."""
    if check == "gamma_cone_member":
        return gamma_cone_member(kappa, k)
    calls = {
        "curvature_quotient": lambda: curvature_quotient(kappa, k),
        "curvature_quotient_gradient": lambda: curvature_quotient_gradient(kappa, k),
        "newton_maclaurin_gap": lambda: newton_maclaurin_gap(kappa, k, len(kappa)),
        # two nodes, kappa and its reversal, with the scale as np.float64
        "require_cone_batched": lambda: require_cone(
            list(np.stack([sigma_all(kappa), sigma_all(kappa[::-1])], axis=-1)), np.max(np.abs(kappa)), k),
    }
    try:
        calls[check]()
    except ConeViolation:
        return False
    return True


@pytest.mark.parametrize("check", ["gamma_cone_member", "curvature_quotient", "curvature_quotient_gradient",
                                   "newton_maclaurin_gap", "require_cone_batched"])
@pytest.mark.parametrize("kappa, k, member", [
    ([math.nan, 1.0], 1, False),
    ([1.0, math.nan], 2, False),
    ([1.0, 2.0, math.nan], 1, False),
    ([math.inf, 1.0], 1, False),
    ([1e200, 1.0], 2, False),  # the E_2 floor 1e-12 (1 + 1e400) is past the float range
    ([1e200, 1e200], 2, False),
    ([1e200, 1.0], 1, True),  # the E_1 floor 1e188 is finite and E_1 clears it
], ids=["nan-first", "nan-last", "nan-n3", "inf", "huge-k2", "huge-pair-k2", "huge-k1"])
def test_cone_checks_reject_nan_and_floors_past_the_float_range(check, kappa, k, member):
    assert _accepts(check, kappa, k) is member


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


# -- the one-vector memo -------------------------------------------------------

# every scalar entry point that takes one vector, as (vector, k) -> result bytes
ONE_VECTOR_CALLS = {
    "sigma_all": lambda v, k: sigma_all(v),
    "elementary_symmetric": lambda v, k: elementary_symmetric(v, k),
    "gamma_cone_member": lambda v, k: gamma_cone_member(v, k),
    "curvature_quotient": lambda v, k: curvature_quotient(v, k),
    "curvature_quotient_gradient": lambda v, k: curvature_quotient_gradient(v, k),
    "newton_maclaurin_gap": lambda v, k: newton_maclaurin_gap(v, k, len(v)),
}


def _bits(name, v, k):
    return np.asarray(ONE_VECTOR_CALLS[name](v, k), dtype=float).tobytes()


def _fresh_bits(name, v, k):
    symfunc._MEMO.clear()
    return _bits(name, v, k)


def test_memo_interleaved_vectors_give_fresh_bits():
    a, b = np.array([0.3, 1.7, 2.2, -0.1]), np.array([1.1, 0.4, 2.9, 0.6])
    by_entry_point = [(name, v, k) for name in ONE_VECTOR_CALLS for k in (1, 2) for v in (a, b, a)]
    by_vector = [(name, v, k) for k in (1, 2) for v in (a, b, a) for name in ONE_VECTOR_CALLS]
    for order in (by_entry_point, by_vector):
        want = [_fresh_bits(*case) for case in order]
        symfunc._MEMO.clear()
        assert [_bits(*case) for case in order] == want


def test_memo_reads_a_vector_changed_in_place():
    kappa = np.array([1.0, 2.0, 3.0])
    before = curvature_quotient(kappa, 2)
    kappa[0] = 4.0
    after = curvature_quotient(kappa, 2)
    assert after != before
    assert after == curvature_quotient(np.array([4.0, 2.0, 3.0]), 2)
    assert elementary_symmetric(kappa, 3) == 24.0


def test_memo_keeps_minus_zero_apart_from_zero():
    # sigma_2 of (-0.0, 1.0) is -0.0, so the gap E_1 E_2 - E_3 E_0 carries its sign
    for signed in (0.0, -0.0, 0.0):
        gap = newton_maclaurin_gap(np.array([signed, 1.0]), 1, 2)
        assert gap == 0.0 and math.copysign(1.0, gap) == math.copysign(1.0, signed)


@pytest.mark.parametrize("call", [
    lambda v: gamma_cone_member(v, 1),
    lambda v: curvature_quotient(v, 1),
    lambda v: newton_maclaurin_gap(v, 1, 1),
], ids=["gamma_cone_member", "curvature_quotient", "newton_maclaurin_gap"])
@pytest.mark.parametrize("shape", [(), (2, 3)], ids=["0-d", "2x3"])
def test_memo_refuses_non_vectors_with_type_error(call, shape):
    call(np.ones(max(1, math.prod(shape))))  # the same bytes as a vector, now in the memo
    with pytest.raises(TypeError):
        call(np.ones(shape))


def test_memo_keeps_cone_and_range_errors():
    kappa = np.array([1.0, 2.0, 3.0])
    assert gamma_cone_member(kappa, 3)
    with pytest.raises(ConeViolation):
        curvature_quotient(np.array([1.0, math.nan, 3.0]), 1)
    for k in (0, 4):
        for call in (gamma_cone_member, curvature_quotient, curvature_quotient_gradient):
            with pytest.raises(ValueError):
                call(kappa, k)
    with pytest.raises(ValueError):
        newton_maclaurin_gap(kappa, 0, 1)
    with pytest.raises(ValueError):
        newton_maclaurin_gap(kappa, 4, 4)


def test_memo_runs_the_recurrence_once_per_vector(monkeypatch):
    calls = []
    monkeypatch.setattr(symfunc, "_sigmas", lambda entries: calls.append(1) or _sigmas(entries))
    symfunc._MEMO.clear()
    kappa = np.array([0.5, 1.5, 2.5, 3.5])
    gaps = [newton_maclaurin_gap(kappa, k, m) for k in range(1, 5) for m in range(k, 5)]
    values = [elementary_symmetric(kappa, j) for j in range(6)] + [curvature_quotient(kappa, k) for k in range(1, 5)]
    assert len(calls) == 1 and min(gaps) >= 0.0 and len(values) == 10
