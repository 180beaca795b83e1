"""Grid operators against analytic fields on the round sphere."""

import math

import numpy as np
import pytest

from curvelab import ScalarField, SphericalGrid
from curvelab.sphere_grid import sphere_area


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
    g = grid.gradient(np.full(grid.node_shape, 2.5))
    assert all(np.allclose(c, 0.0) for c in g)


def test_gradient_cos_theta():
    grid = SphericalGrid.full_s2(64, 128)
    gt, gp = grid.gradient(np.broadcast_to(grid.cos_t[:, None], grid.node_shape).copy())
    assert np.allclose(gp, 0.0, atol=1e-13)
    err = np.abs(gt - (-grid.sin_t[:, None]))
    assert err.max() < 1e-3  # O(h^2) at h = pi/64


def test_axisym_gradient_matches_analytic():
    grid = SphericalGrid.axisym(2, 128)
    (gt,) = grid.gradient(grid.theta**2)
    interior = (grid.theta > 0.3) & (grid.theta < math.pi - 0.3)
    assert np.abs(gt - 2 * grid.theta)[interior].max() < 5e-4


def test_hessian_eigenfunction_relation():
    # f = cos(theta) is a degree-1 harmonic: hess f = -f * (round metric)
    grid = SphericalGrid.full_s2(64, 128)
    ct = np.broadcast_to(grid.cos_t[:, None], grid.node_shape).copy()
    h11, h12, h22 = grid.hessian_components(ct)
    assert np.abs(h11 + ct).max() < 2e-3
    assert np.abs(h22 + ct).max() < 2e-3
    assert np.abs(h12).max() < 2e-3


def test_hessian_constant_support_gives_round_radii():
    grid = SphericalGrid.full_s2(32, 64)
    r = 1.7
    h11, h12, h22 = grid.hessian_components(np.full(grid.node_shape, r))
    assert np.allclose(h11 + r, r, atol=1e-12)
    assert np.allclose(h22 + r, r, atol=1e-12)
    assert np.allclose(h12, 0.0, atol=1e-12)


def test_axisym_hessian_trace_is_laplacian():
    grid = SphericalGrid.axisym(4, 96)
    vals = np.cos(grid.theta)
    hess = grid.hessian_components(vals)
    lap = grid.laplacian(vals)
    assert np.allclose(hess[0] + (grid.n - 1) * hess[1], lap)
    # degree-1 harmonic on S^n: laplacian = -n f
    interior = (grid.theta > 0.2) & (grid.theta < math.pi - 0.2)
    assert np.abs(lap + grid.n * vals)[interior].max() < 2e-3


def test_divergence_free_laplacian_integral():
    rng = np.random.default_rng(1)
    grid = SphericalGrid.full_s2(48, 96)
    vals = np.zeros(grid.node_shape)
    from curvelab.shapes import harmonic_mode

    for (ell, m) in [(1, 0), (2, 1), (3, 2), (4, 1)]:
        vals += rng.uniform(-1, 1) * harmonic_mode(grid, ell, m)
    lap = grid.laplacian(vals)
    norm = float(np.abs(vals).max())
    assert abs(grid.integrate(lap)) < 1e-8 * max(norm, 1.0)


@pytest.mark.parametrize("mode", ["full-s2", "axisym"])
def test_refinement_order_two(mode):
    errors = []
    for nt in (32, 64, 128):
        if mode == "full-s2":
            grid = SphericalGrid.full_s2(nt, 2 * nt)
            vals = np.sin(grid.theta)[:, None] * np.cos(grid.phi)[None, :]
            exact_h11 = -vals
            hess = grid.hessian_components(vals)
            errors.append(np.abs(hess[0] - exact_h11).max())
        else:
            grid = SphericalGrid.axisym(2, nt)
            vals = np.cos(grid.theta) ** 2
            gt = grid.d_theta(vals)
            errors.append(np.abs(gt + 2 * np.sin(grid.theta) * np.cos(grid.theta)).max())
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert 1.7 <= order1 <= 2.3
    assert 1.7 <= order2 <= 2.3


def test_pole_robustness_low_order_harmonics():
    from curvelab.shapes import harmonic_mode

    grid = SphericalGrid.full_s2(48, 96)
    for (ell, m) in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        vals = harmonic_mode(grid, ell, m)
        hess = np.asarray(grid.hessian_components(vals))
        # eigenvalue-style bound: components of hess(Y) for a degree-ell
        # harmonic normalized to sup 1 are bounded by ell (ell + 1)
        analytic_max = ell * (ell + 1)
        assert np.abs(hess).max() < 10 * analytic_max


def test_zonal_filter_keeps_smooth_fields():
    from curvelab.shapes import harmonic_mode

    grid = SphericalGrid.full_s2(32, 64)
    vals = 1.0 + 0.3 * harmonic_mode(grid, 3, 2) + 0.2 * harmonic_mode(grid, 1, 1)
    filtered = grid.zonal_filter(vals)
    assert np.abs(filtered - vals).max() < 1e-12
    # grid-scale zonal noise at the pole rows is removed
    noisy = vals.copy()
    noisy[0] += 1e-8 * np.cos(np.arange(grid.n_phi) * np.pi)
    cleaned = grid.zonal_filter(noisy)
    assert np.abs(cleaned - vals).max() < 1e-12


def test_json_round_trip():
    grid = SphericalGrid.full_s2(8, 16)
    rng = np.random.default_rng(3)
    field = ScalarField(grid, rng.uniform(0.5, 1.5, grid.node_shape))
    back = ScalarField.from_json(field.to_json())
    assert back.grid == grid
    assert np.allclose(back.values, field.values)

    axi = SphericalGrid.axisym(4, 12)
    field2 = ScalarField(axi, np.linspace(1, 2, 12))
    data = field2.to_dict()
    assert data["mode"] == "axisym" and data["n"] == 4
    back2 = ScalarField.from_dict(data)
    assert np.allclose(back2.values, field2.values)


def test_equal_grids_hash_equal_and_share_the_mode_cache():
    from curvelab.shapes import _convexity_normalized_modes, random_convex_support

    assert SphericalGrid.full_s2(16, 32) == SphericalGrid.full_s2(16, 32)
    assert hash(SphericalGrid.full_s2(16, 32)) == hash(SphericalGrid.full_s2(16, 32))
    assert hash(SphericalGrid.axisym(3, 16)) == hash(SphericalGrid.axisym(3, 16))
    _convexity_normalized_modes.cache_clear()
    for seed in range(50):
        random_convex_support(SphericalGrid.axisym(2, 16), np.random.default_rng(seed), amp=0.05)
    assert _convexity_normalized_modes.cache_info().currsize == 1


def test_grid_validation():
    with pytest.raises(ValueError):
        SphericalGrid.full_s2(16, 15)  # odd n_phi breaks antipodal ghosts
    with pytest.raises(ValueError):
        SphericalGrid("full-s2", 3, 16, 32)
    with pytest.raises(ValueError):
        SphericalGrid.axisym(1, 16)
    grid = SphericalGrid.axisym(2, 16)
    with pytest.raises(ValueError):
        ScalarField(grid, np.ones(15))
    with pytest.raises(ValueError):
        ScalarField(grid, np.full(16, np.nan))
