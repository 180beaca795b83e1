"""Grid operators against analytic fields on the round sphere."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvelab import ScalarField, SphericalGrid
from curvelab.shapes import harmonic_mode
from curvelab.sphere_grid import sphere_area

DATA = Path(__file__).parent / "data"


def test_area_values():
    assert sphere_area(2) == pytest.approx(4 * math.pi)
    assert sphere_area(3) == pytest.approx(2 * math.pi**2)


def test_quadrature_exact_for_constants():
    for grid in (SphericalGrid.full_s2(24, 48), SphericalGrid.axisym(3, 64), SphericalGrid.axisym(5, 32)):
        assert grid.integrate(np.ones(grid.node_shape)) == pytest.approx(sphere_area(grid.n), rel=1e-12)


def test_quadrature_cos_squared():
    # O(h^2) convergent on smooth densities
    errs = []
    for nt in (48, 96):
        grid = SphericalGrid.full_s2(nt, 2 * nt)
        f = np.broadcast_to(grid.cos_t[:, None] ** 2, grid.node_shape)
        errs.append(abs(grid.integrate(f) - 4 * math.pi / 3))
    assert errs[0] / (4 * math.pi / 3) < 1e-3
    assert math.log2(errs[0] / errs[1]) > 1.7


def test_gradient_constant_field_is_zero():
    grid = SphericalGrid.full_s2(16, 32)
    g = grid.derivatives(np.full(grid.node_shape, 2.5))[0]
    assert all(np.allclose(c, 0.0) for c in g)


def test_gradient_cos_theta():
    grid = SphericalGrid.full_s2(64, 128)
    cos_t = np.broadcast_to(grid.cos_t[:, None], grid.node_shape).copy()
    gt, gp = grid.derivatives(cos_t)[0]
    assert np.allclose(gp, 0.0, atol=1e-13)
    err = np.abs(gt - (-grid.sin_t[:, None]))
    assert err.max() < 1e-3  # O(h^2) at h = pi/64


def test_axisym_gradient_matches_analytic():
    grid = SphericalGrid.axisym(2, 128)
    (gt,) = grid.derivatives(grid.theta**2)[0]
    interior = (grid.theta > 0.3) & (grid.theta < math.pi - 0.3)
    assert np.abs(gt - 2 * grid.theta)[interior].max() < 5e-4


def test_hessian_eigenfunction_relation():
    # f = cos(theta) is a degree-1 harmonic: hess f = -f * (round metric)
    grid = SphericalGrid.full_s2(64, 128)
    ct = np.broadcast_to(grid.cos_t[:, None], grid.node_shape).copy()
    h11, h12, h22 = grid.derivatives(ct)[1]
    assert np.abs(h11 + ct).max() < 2e-3
    assert np.abs(h22 + ct).max() < 2e-3
    assert np.abs(h12).max() < 2e-3


def test_hessian_constant_support_gives_round_radii():
    grid = SphericalGrid.full_s2(32, 64)
    r = 1.7
    h11, h12, h22 = grid.derivatives(np.full(grid.node_shape, r))[1]
    assert np.allclose(h11 + r, r, atol=1e-12)
    assert np.allclose(h22 + r, r, atol=1e-12)
    assert np.allclose(h12, 0.0, atol=1e-12)


def test_axisym_hessian_trace_is_laplacian():
    grid = SphericalGrid.axisym(4, 96)
    vals = np.cos(grid.theta)
    hess = grid.derivatives(vals)[1]
    lap = hess[0] + (grid.n - 1) * hess[1]
    # degree-1 harmonic on S^n: laplacian = -n f
    interior = (grid.theta > 0.2) & (grid.theta < math.pi - 0.2)
    assert np.abs(lap + grid.n * vals)[interior].max() < 2e-3


def test_divergence_free_laplacian_integral():
    rng = np.random.default_rng(1)
    grid = SphericalGrid.full_s2(48, 96)
    vals = np.zeros(grid.node_shape)
    for (ell, m) in [(1, 0), (2, 1), (3, 2), (4, 1)]:
        vals += rng.uniform(-1, 1) * harmonic_mode(grid, ell, m)
    h11, _, h22 = grid.derivatives(vals)[1]
    lap = h11 + h22
    norm = float(np.abs(vals).max())
    assert abs(grid.integrate(lap)) < 1e-8 * max(norm, 1.0)


def _laplacian(grid, v):
    hess = grid.derivatives(v)[1]
    return hess[0] + (grid.n - 1) * hess[1] if grid.mode == "axisym" else hess[0] + hess[2]


@pytest.mark.parametrize("grid", [SphericalGrid.full_s2(24, 48), SphericalGrid.axisym(2, 24)], ids=repr)
def test_laplacian_sums_by_parts_under_the_weights(grid):
    # the n = 2 weights are in detailed balance with the theta stencil, so on
    # any fields the discrete Laplacian integrates to zero and is self-adjoint,
    # to round-off against the integrals of the terms' magnitudes
    rng = np.random.default_rng(4)
    for _ in range(5):
        u, v = rng.standard_normal((2,) + grid.node_shape)
        lap_u, lap_v = _laplacian(grid, u), _laplacian(grid, v)
        assert abs(grid.integrate(lap_v)) <= 1e-12 * grid.integrate(np.abs(lap_v))
        scale = grid.integrate(np.abs(u * lap_v) + np.abs(v * lap_u))
        assert abs(grid.integrate(u * lap_v - v * lap_u)) <= 1e-12 * scale


@pytest.mark.parametrize("mode, n", [("full-s2", 2)] + [("axisym", n) for n in range(2, 8)])
@pytest.mark.parametrize("n_theta", [4, 5, 24, 64])
def test_weights_are_positive_and_sum_to_the_sphere_area(mode, n, n_theta):
    grid = SphericalGrid(mode, n, n_theta, 2 * n_theta if mode == "full-s2" else None)
    assert (grid.weights > 0).all()
    assert grid.weights.sum() == pytest.approx(sphere_area(n), rel=1e-13)
    # n >= 3 keeps sin^(n-1) theta cells: summation by parts needs a_j > 0 for
    # j >= 1 (a_0 folds into the diagonal), and a_1 ~ (1 - (n-1)/3) / dtheta^2
    # is positive at n = 3, about zero at n = 4 and negative for n >= 5
    if n >= 3:
        raw = sphere_area(n - 1) * grid.sin_t ** (n - 1) * grid.dtheta
        assert _same_bits(grid.weights, raw * (sphere_area(n) / raw.sum()))


@pytest.mark.parametrize("mode", ["full-s2", "axisym"])
def test_refinement_order_two(mode):
    errors = []
    for nt in (32, 64, 128):
        if mode == "full-s2":
            grid = SphericalGrid.full_s2(nt, 2 * nt)
            vals = np.sin(grid.theta)[:, None] * np.cos(grid.phi)[None, :]
            exact_h11 = -vals
            hess = grid.derivatives(vals)[1]
            errors.append(np.abs(hess[0] - exact_h11).max())
        else:
            grid = SphericalGrid.axisym(2, nt)
            vals = np.cos(grid.theta) ** 2
            (gt,) = grid.derivatives(vals)[0]
            errors.append(np.abs(gt + 2 * np.sin(grid.theta) * np.cos(grid.theta)).max())
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert 1.7 <= order1 <= 2.3
    assert 1.7 <= order2 <= 2.3


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda ell: st.tuples(st.just(ell), st.integers(0, ell))),
       st.sampled_from(["cos", "sin"]))
def test_laplacian_eigen_relation_order_two(mode, phase):
    # trace(hess Y_lm) = -l(l+1) Y_lm, second order in the quadrature-weighted
    # L2 norm; not in the max norm, where the pole rows are first order for odd m
    ell, m = mode
    errors = []
    for nt in (32, 64):
        grid = SphericalGrid.full_s2(nt, 2 * nt)
        vals = harmonic_mode(grid, ell, m, phase)
        h11, _, h22 = grid.derivatives(vals)[1]
        err = h11 + h22 + ell * (ell + 1) * vals
        errors.append(math.sqrt(grid.integrate(err**2)))
    assert math.log2(errors[0] / errors[1]) >= 1.7


def test_pole_robustness_low_order_harmonics():
    grid = SphericalGrid.full_s2(48, 96)
    for (ell, m) in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        vals = harmonic_mode(grid, ell, m)
        hess = np.asarray(grid.derivatives(vals)[1])
        # eigenvalue-style bound: components of hess(Y) for a degree-ell
        # harmonic normalized to sup 1 are bounded by ell (ell + 1)
        analytic_max = ell * (ell + 1)
        assert np.abs(hess).max() < 10 * analytic_max


LAPLACIAN_GRIDS = [SphericalGrid.full_s2(16, 32), SphericalGrid.full_s2(24, 48),
                   SphericalGrid.axisym(2, 32), SphericalGrid.axisym(5, 32)]


def dense_laplacian(grid):
    """The dense matrix of v -> trace hessian(v)."""
    cols = []
    for i in range(math.prod(grid.node_shape)):
        e = np.zeros(grid.node_shape)
        e.flat[i] = 1.0
        cols.append(_laplacian(grid, e).ravel())
    return np.array(cols).T


def tridiagonal_blocks(grid):
    """The tridiagonal zonal blocks of Delta, rebuilt from the grid's cached diagonals."""
    sub, diag, sup = grid._laplacian_diagonals()
    rows = np.arange(grid.n_theta)
    blocks = np.zeros(diag.shape + (grid.n_theta,))
    blocks[:, rows, rows] = diag
    blocks[:, rows[1:], rows[:-1]] = sub
    blocks[:, rows[:-1], rows[1:]] = sup
    return blocks


@pytest.mark.parametrize("grid", LAPLACIAN_GRIDS, ids=repr)
def test_laplacian_diagonals_carry_the_dense_spectrum(grid):
    # the zonal blocks' diagonals split Delta without loss: a block 0 < m <
    # n_phi / 2 stands for a cos and a sin mode, so it counts twice, and the
    # pooled eigenvalues of the tridiagonal blocks are the dense operator's;
    # lambda_L, read off the blocks by the flow tests, is then the dense
    # spectral radius
    blocks = tridiagonal_blocks(grid)
    counts = np.ones(len(blocks), dtype=int)
    if grid.mode == "full-s2":
        counts[1:(grid.n_phi + 1) // 2] = 2
    pooled = np.concatenate([np.repeat(np.linalg.eigvals(b), c) for b, c in zip(blocks, counts)])
    dense = np.linalg.eigvals(dense_laplacian(grid))
    assert pooled.size == dense.size
    lambda_l = float(np.abs(dense).max())
    assert float(np.abs(pooled).max()) == pytest.approx(lambda_l, rel=1e-9)
    assert np.abs(np.sort_complex(pooled) - np.sort_complex(dense)).max() < 1e-9 * lambda_l


@pytest.mark.parametrize("grid", LAPLACIAN_GRIDS, ids=repr)
def test_resolvent_matches_dense_solve(grid):
    # s lambda_L, with lambda_L the blocks' spectral radius, spans the
    # extrapolated step's range, up to ~700 on the 256-node AC-5 grid.  One
    # call solves each field of a stack with its own key, and a trailing part
    # of the keys reads the same inverses
    dense = dense_laplacian(grid)
    lambda_l = float(np.abs(np.linalg.eigvals(tridiagonal_blocks(grid))).max())
    keys = [scale / lambda_l for scale in (0.1, 10.0, 1000.0)]
    v = np.random.default_rng(8).uniform(0.5, 1.5, (len(keys),) + grid.node_shape)
    solved = grid.resolvent(v, keys)
    for field, s, got in zip(v, keys, solved):
        want = np.linalg.solve(np.eye(field.size) - s * dense, field.ravel())
        assert np.abs(got.ravel() - want).max() < 1e-12
    inverse = grid._inverses[1]
    assert _same_bits(grid.resolvent(v[1:], keys[1:]), solved[1:]) and grid._inverses[1] is inverse
    values = (1.3, -0.7, 2.0)
    const = grid.resolvent(np.multiply.outer(values, np.ones(grid.node_shape)), keys)
    for value, got in zip(values, const):
        assert np.ptp(got) < 1e-14 and np.abs(got - value).max() < 1e-14


@pytest.mark.parametrize("grid", [SphericalGrid.axisym(2, 32), SphericalGrid.full_s2(16, 32)], ids=repr)
def test_derivatives_of_a_stack_match_each_field_bit_for_bit(grid):
    stack = np.random.default_rng(5).uniform(0.5, 1.5, (3,) + grid.node_shape)
    grad, hess = grid.derivatives(stack)
    for i, field in enumerate(stack):
        grad_i, hess_i = grid.derivatives(field)
        assert all(_same_bits(a[i], b) for a, b in zip(grad, grad_i, strict=True))
        assert all(_same_bits(a[i], b) for a, b in zip(hess, hess_i, strict=True))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_json_round_trip():
    # the snapshot keys from_dict reads, as the CLI reads a field file: values in node order
    values = np.random.default_rng(3).uniform(0.5, 1.5, (8, 16))
    data = {"mode": "full-s2", "n": 2, "resolution": [8, 16], "values": values.ravel().tolist()}
    back = ScalarField.from_dict(json.loads(json.dumps(data)))
    assert back.grid == SphericalGrid.full_s2(8, 16)
    assert np.array_equal(back.values, values)

    axisym = np.linspace(1, 2, 12)
    back2 = ScalarField.from_dict({"mode": "axisym", "n": 4, "resolution": [12], "values": axisym.tolist()})
    assert back2.grid == SphericalGrid.axisym(4, 12) and np.array_equal(back2.values, axisym)

    for name, grid in (("field_s2_8x16_sphere", SphericalGrid.full_s2(8, 16)),
                       ("field_axisym_16_sphere", SphericalGrid.axisym(2, 16))):
        field = ScalarField.from_dict(json.loads((DATA / f"{name}.json").read_text()))
        assert field.grid == grid and np.all(field.values == 1.0)


def test_equal_grids_hash_equal_and_share_the_mode_cache():
    from curvelab.shapes import _convexity_scales, _mode_tables, random_convex_support

    assert SphericalGrid.full_s2(16, 32) == SphericalGrid.full_s2(16, 32)
    assert hash(SphericalGrid.full_s2(16, 32)) == hash(SphericalGrid.full_s2(16, 32))
    assert hash(SphericalGrid.axisym(3, 16)) == hash(SphericalGrid.axisym(3, 16))
    _mode_tables.cache_clear()
    _convexity_scales.cache_clear()
    for seed in range(50):
        random_convex_support(SphericalGrid.axisym(2, 16), np.random.default_rng(seed), amp=0.05)
    assert _mode_tables.cache_info().currsize == 1 and _convexity_scales.cache_info().currsize == 1


def test_field_from_dict_names_missing_keys():
    with pytest.raises(ValueError, match="lacks resolution, values"):
        ScalarField.from_dict({"mode": "axisym", "n": 2})


@pytest.mark.parametrize("mode, n, resolution, message", [
    ("axisym", 2, [], "resolution takes"), ("axisym", 2, [8, 16, 3], "resolution takes"),
    ("full-s2", 2, [8], "resolution takes"), ("full-s2", 2, [8, 16, 3], "resolution takes"),
    ("bogus", 2, [8, 16], "unknown grid mode"), ("full-s2", 3, [8, 16], "requires n = 2"),
], ids=["axisym-0", "axisym-3", "s2-1", "s2-3", "unknown-mode", "s2-n-3"])
def test_grid_from_dict_checks_mode_and_resolution(mode, n, resolution, message):
    with pytest.raises(ValueError, match=message):
        SphericalGrid.from_dict({"mode": mode, "n": n, "resolution": resolution})


def test_random_draws_build_their_mode_tables_once(monkeypatch):
    from curvelab import shapes

    calls = []
    real = shapes._legendre
    monkeypatch.setattr(shapes, "_legendre", lambda *a: calls.append(a) or real(*a))
    shapes._mode_tables.cache_clear()
    shapes._convexity_scales.cache_clear()
    for seed in range(5):  # equal grids, built afresh for each draw
        shapes.random_starshaped(SphericalGrid.full_s2(16, 32), np.random.default_rng(seed), amp=0.1)
        shapes.random_convex_support(SphericalGrid.full_s2(16, 32), np.random.default_rng(seed), amp=0.1)
    assert len(calls) == 24  # degrees 1..4: 3 + 5 + 7 + 9 modes, once
    assert shapes._mode_tables.cache_info().misses == 1 and shapes._convexity_scales.cache_info().misses == 1
    grid = SphericalGrid.full_s2(96, 192)
    theta, phi = shapes._mode_tables(grid, 4)
    scales = shapes._convexity_scales(grid, 4)
    assert theta.shape == (24, 96) and phi.shape == (24, 192) and scales.shape == (24,)
    assert not (theta.flags.writeable or phi.flags.writeable or scales.flags.writeable)
    # the cache holds two small tables and one scale per mode, not 24 grid fields
    assert theta.nbytes + phi.nbytes + scales.nbytes <= 8 * 24 * (96 + 192 + 1)


@pytest.mark.parametrize("ell, m, phase", [(2, 3, "cos"), (2, -1, "cos"), (2, 1, "tan"),
                                           (2.5, 0, "cos"), (2, 1.5, "cos"), (True, 0, "cos")])
def test_harmonic_mode_rejects_order_and_phase(ell, m, phase):
    with pytest.raises(ValueError):
        harmonic_mode(SphericalGrid.full_s2(8, 16), ell, m, phase)


@pytest.mark.parametrize("grid, ell, m, closed", [
    (SphericalGrid.full_s2(16, 32), 2, 1, lambda x: -3.0 * x * np.sqrt(1.0 - x**2)),
    (SphericalGrid.full_s2(16, 32), 3, 2, lambda x: 15.0 * x * (1.0 - x**2)),
    (SphericalGrid.full_s2(16, 32), 4, 4, lambda x: 105.0 * (1.0 - x**2) ** 2),
    (SphericalGrid.axisym(3, 24), 4, 0, lambda x: (35.0 * x**4 - 30.0 * x**2 + 3.0) / 8.0),
], ids=["P21", "P32", "P44", "P4-axisym"])
def test_harmonic_mode_matches_closed_forms(grid, ell, m, closed):
    # the Condon-Shortley phase (-1)^m fixes the sign of every odd-m mode
    y = closed(grid.cos_t)
    if grid.mode == "full-s2":
        y = y[:, None] * np.cos(m * grid.phi)[None, :]
    assert np.abs(harmonic_mode(grid, ell, m) - y / np.abs(y).max()).max() < 1e-13


@pytest.mark.parametrize("grid", [SphericalGrid.full_s2(8, 16), SphericalGrid.axisym(3, 8)])
def test_frame_is_orthonormal_and_tangent(grid):
    xi = grid.xi
    frame = grid.frame
    assert len(frame) == len(grid.derivatives(np.zeros(grid.node_shape))[0])
    for i, e in enumerate(frame):
        assert e.shape == xi.shape
        assert np.abs(np.sum(e * xi, axis=-1)).max() < 1e-15
        for f in frame[i:]:
            expected = 1.0 if f is e else 0.0
            assert np.abs(np.sum(e * f, axis=-1) - expected).max() < 1e-15


def test_project_is_the_translation_term():
    s2 = SphericalGrid.full_s2(8, 16)
    c = np.array([0.3, -0.2, 0.1])
    assert np.array_equal(s2.project(c), s2.xi @ c)
    axi = SphericalGrid.axisym(3, 8)
    assert np.array_equal(axi.project(0.4), 0.4 * axi.xi[:, 1])
    for grid, bad in ((s2, 0.1), (s2, [0.1, 0.2]), (axi, [0.0, 0.0, 0.1]), (axi, [0.1])):
        with pytest.raises(ValueError):
            grid.project(bad)


def test_zonal_fills_rows():
    s2 = SphericalGrid.full_s2(8, 16)
    rows = np.arange(8.0)
    assert np.array_equal(s2.zonal(rows), np.repeat(rows[:, None], 16, axis=1))
    axi = SphericalGrid.axisym(2, 8)
    assert np.array_equal(axi.zonal(rows), rows)


def test_grid_validation():
    with pytest.raises(ValueError):
        SphericalGrid.full_s2(16, 15)  # odd n_phi breaks antipodal ghosts
    with pytest.raises(ValueError):
        SphericalGrid("full-s2", 3, 16, 32)
    with pytest.raises(ValueError):
        SphericalGrid.axisym(1, 16)
    with pytest.raises(ValueError, match="axisym mode takes no n_phi"):  # it was dropped
        SphericalGrid("axisym", 2, 16, 32)
    grid = SphericalGrid.axisym(2, 16)
    with pytest.raises(ValueError):
        ScalarField(grid, np.ones(15))
    with pytest.raises(ValueError):
        ScalarField(grid, np.full(16, np.nan))


@pytest.mark.parametrize("make", [
    lambda: SphericalGrid.axisym(2.5, 32),  # its weights summed to |S^2.5| = 16.13
    lambda: SphericalGrid("full-s2", 2, 32.7, 64),  # it dropped to 32 rows
    lambda: SphericalGrid.full_s2(16, True),
    lambda: ScalarField.from_dict({"mode": "axisym", "n": 2.5, "resolution": [16], "values": [1.0] * 16}),
], ids=["axisym-n-2.5", "s2-n-theta-32.7", "s2-n-phi-true", "field-n-2.5"])
def test_a_grid_size_that_is_not_an_integer_is_refused(make):
    with pytest.raises(ValueError, match="grid sizes must be integers"):
        make()


@pytest.mark.parametrize("mode, n_theta, n_phi", [
    ("axisym", 2**63, None), ("axisym", 10**7 + 1, None),
    ("full-s2", 2**63, 8), ("full-s2", 16, 2**62), ("full-s2", 10**7 // 8 + 1, 8),
])
def test_a_grid_above_the_node_cap_is_refused_before_it_allocates(monkeypatch, mode, n_theta, n_phi):
    # n_theta = 2**63 used to make a grid of no rows; the cap is checked before any array is made
    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was allocated")

    monkeypatch.setattr(np, "arange", no_arrays)
    with pytest.raises(ValueError, match="at most 10000000 nodes"):
        SphericalGrid(mode, 2, n_theta, n_phi)
