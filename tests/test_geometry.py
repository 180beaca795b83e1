"""Curvature pipelines against closed-form sphere/spheroid oracles."""

import math

import numpy as np
import pytest

from curvelab import (
    NonpositiveSupport,
    NotStarshaped,
    ConvexityLost,
    ScalarField,
    SphericalGrid,
    radial_geometry,
    radial_mean_curvature_direct,
    sphericity,
    static_convexity,
    support_geometry,
)
from curvelab.geometry import centroid
from curvelab.shapes import (
    harmonic_mode,
    random_convex_support,
    random_starshaped,
    sphere_radial,
    sphere_support,
    spheroid_curvatures_radial,
    spheroid_curvatures_support,
    spheroid_radial,
    spheroid_support,
)
from curvelab.sphere_grid import sphere_area
from curvelab.symfunc import sigma_all


# -- round spheres, both parametrizations, both grid modes ---------------------


@pytest.mark.parametrize("grid", [SphericalGrid.full_s2(32, 64), SphericalGrid.axisym(2, 64), SphericalGrid.axisym(4, 48)])
@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_round_sphere_radial(grid, radius):
    geom = radial_geometry(sphere_radial(grid, radius))
    n = grid.n
    assert np.abs(geom.kappa - 1 / radius).max() < 1e-10
    assert np.abs(geom.H - n / radius).max() < 1e-10
    assert np.abs(geom.support - radius).max() < 1e-10
    assert geom.total_area() == pytest.approx(sphere_area(n) * radius**n, rel=1e-12)
    assert geom.volume() == pytest.approx(sphere_area(n) * radius ** (n + 1) / (n + 1), rel=1e-12)


@pytest.mark.parametrize("grid", [SphericalGrid.full_s2(32, 64), SphericalGrid.axisym(3, 64)])
def test_round_sphere_support(grid, radius=1.8):
    geom = support_geometry(sphere_support(grid, radius))
    assert np.abs(geom.kappa - 1 / radius).max() < 1e-10
    assert geom.total_area() == pytest.approx(sphere_area(grid.n) * radius**grid.n, rel=1e-12)
    # position reconstruction traces the sphere
    rr = np.sqrt(np.sum(geom.position**2, axis=-1))
    assert np.abs(rr - radius).max() < 1e-10


def test_translated_sphere_radial_full_grid():
    # off-axis centre exercises every phi-derivative path; curvature must
    # converge to 1/R at second order and the support value to R + <c, nu>
    center = np.array([0.15, 0.1, 0.2])
    R = 1.3
    errs, errs_interior = [], []
    for nt in (64, 128):
        grid = SphericalGrid.full_s2(nt, 2 * nt)
        geom = radial_geometry(sphere_radial(grid, R, center))
        kerr = np.abs(geom.kappa - 1 / R)
        support_exact = R + geom.normal @ center
        serr = np.abs(geom.support - support_exact)
        errs.append(max(kerr.max(), serr.max()))
        interior = grid.sin_t > 0.3
        errs_interior.append(max(kerr[interior].max(), serr[interior].max()))
    # interior nodes are second order; the pole-adjacent rows degrade to
    # first order through the 1/sin(theta) frame factors
    assert errs[0] < 5e-3
    assert errs[0] / errs[1] > 1.8
    assert errs_interior[0] / errs_interior[1] > 3.0
    grid = SphericalGrid.full_s2(64, 128)
    geom = radial_geometry(sphere_radial(grid, R, center))
    assert sphericity(geom) < 1e-4
    assert np.allclose(centroid(geom), center, atol=1e-3)


def test_translated_sphere_support():
    # kappa = 1/R and X on the shifted sphere, at discretization order
    errs = []
    for nt in (96, 192):
        grid = SphericalGrid.axisym(2, nt)
        geom = support_geometry(sphere_support(grid, 1.0, center=0.3))
        z = geom.position[:, 1]
        perp = geom.position[:, 0]
        errs.append(
            max(
                np.abs(geom.kappa - 1.0).max(),
                np.abs(perp**2 + (z - 0.3) ** 2 - 1.0).max(),
            )
        )
    assert errs[0] < 2e-4
    assert errs[0] / errs[1] > 3.0


# -- spheroid oracle -----------------------------------------------------------


def test_spheroid_radial_against_closed_form():
    grid = SphericalGrid.full_s2(64, 128)
    c_axis, b_eq = 1.2, 1.0
    geom = radial_geometry(spheroid_radial(grid, c_axis, b_eq))
    kap_m, kap_a = spheroid_curvatures_radial(grid.theta, c_axis, b_eq)
    oracle = np.sort(np.stack([kap_m, kap_a], axis=-1), axis=-1)
    got = geom.kappa[:, 0, :]  # axisymmetric body: any phi column
    rel = np.abs(got - oracle) / oracle
    assert rel.max() < 2e-3


def test_spheroid_radial_axisym_mode_matches_full_grid():
    c_axis, b_eq = 1.2, 1.0
    full = radial_geometry(spheroid_radial(SphericalGrid.full_s2(64, 128), c_axis, b_eq))
    axi = radial_geometry(spheroid_radial(SphericalGrid.axisym(2, 64), c_axis, b_eq))
    assert np.abs(axi.kappa - full.kappa[:, 0, :]).max() < 1e-10
    assert axi.total_area() == pytest.approx(full.total_area(), rel=1e-12)


def test_spheroid_support_against_closed_form():
    grid = SphericalGrid.axisym(2, 96)
    c_axis, b_eq = 1.2, 1.0
    geom = support_geometry(spheroid_support(grid, c_axis, b_eq))
    kap_m, kap_a = spheroid_curvatures_support(grid.theta, c_axis, b_eq)
    oracle = np.sort(np.stack([kap_m, kap_a], axis=-1), axis=-1)
    rel = np.abs(geom.kappa - oracle) / oracle
    assert rel.max() < 5e-3


def test_cross_parametrization_agreement_second_order():
    # same spheroid via r and via h: area, integral of support, curvature range
    c_axis, b_eq = 1.15, 1.0
    prev = None
    for nt in (48, 96):
        grid = SphericalGrid.axisym(2, nt)
        g_r = radial_geometry(spheroid_radial(grid, c_axis, b_eq))
        g_h = support_geometry(spheroid_support(grid, c_axis, b_eq))
        area_err = abs(g_r.total_area() - g_h.total_area()) / g_r.total_area()
        int_h_r = grid.integrate(g_r.support * g_r.area_factor)
        int_h_h = grid.integrate(g_h.support * g_h.area_factor)
        support_err = abs(int_h_r - int_h_h) / abs(int_h_r)
        kmin_err = abs(g_r.kappa.min() - g_h.kappa.min())
        kmax_err = abs(g_r.kappa.max() - g_h.kappa.max())
        err = max(area_err, support_err, kmin_err, kmax_err)
        if prev is not None:
            assert err < prev / 3.0  # order ~2 under doubling
        prev = err
    assert prev < 2e-3


def test_mean_curvature_direct_formula_consistency():
    # scalar log-radial formula vs eigenvalue sum, same discrete derivatives
    rng = np.random.default_rng(4)
    grid = SphericalGrid.full_s2(32, 64)
    vals = 1.0 + 0.25 * harmonic_mode(grid, 2, 1) + 0.15 * harmonic_mode(grid, 3, 2, "sin")
    field = ScalarField(grid, vals)
    geom = radial_geometry(field)
    h_direct = radial_mean_curvature_direct(field)
    assert np.abs(geom.H - h_direct).max() / np.abs(h_direct).max() < 1e-8

    axi = SphericalGrid.axisym(3, 80)
    vals = 1.0 + 0.2 * harmonic_mode(axi, 2) - 0.1 * harmonic_mode(axi, 4)
    field = ScalarField(axi, vals)
    assert np.abs(radial_geometry(field).H - radial_mean_curvature_direct(field)).max() < 1e-8


def test_minkowski_identity_on_convex_bodies():
    # int E_{k-1} dmu = int h E_k dmu at discretization order
    for nt, tol in ((48, 6e-3), (96, 2e-3)):
        grid = SphericalGrid.axisym(2, nt)
        geom = radial_geometry(spheroid_radial(grid, 1.2, 1.0))
        sig = sigma_all(geom.kappa)
        w = grid.weights * geom.area_factor
        for k in (1, 2):
            lhs = float(np.sum(w * sig[:, k - 1])) / math.comb(2, k - 1)
            rhs = float(np.sum(w * geom.support * sig[:, k])) / math.comb(2, k)
            assert abs(lhs - rhs) / abs(lhs) < tol


def test_support_gradient_position_identity():
    # grad h = <X, frame>: the tangential part of X equals grad h
    grid = SphericalGrid.full_s2(48, 96)
    h = 1.0 + 0.1 * harmonic_mode(grid, 2, 1) + 0.05 * harmonic_mode(grid, 3, 0)
    geom = support_geometry(ScalarField(grid, h))
    e_theta, e_phi = grid.frame()
    xt = np.sum(geom.position * e_theta, axis=-1)
    xp = np.sum(geom.position * e_phi, axis=-1)
    assert np.abs(xt - geom.grad[0]).max() < 1e-10
    assert np.abs(xp - geom.grad[1]).max() < 1e-10


def test_curvature_field_internal_invariants():
    # H = sum kappa_i and |A|^2 >= H^2/n with equality only at umbilic points
    grid = SphericalGrid.full_s2(32, 64)
    field = random_starshaped(grid, np.random.default_rng(6), amp=0.2)
    geom = radial_geometry(field)
    scale = 1.0 + np.abs(geom.H).max()
    assert np.abs(geom.H - geom.kappa.sum(axis=-1)).max() < 1e-9 * scale
    assert np.all(geom.A2 >= geom.H**2 / geom.n - 1e-12 * scale**2)
    # the closed pair form of sigma_j against the general recurrence, on
    # both grid modes and both parametrizations
    axi = SphericalGrid.axisym(5, 48)
    for g in (geom, support_geometry(random_convex_support(axi, np.random.default_rng(6), amp=0.1))):
        general = sigma_all(g.kappa)
        assert np.abs(np.stack(np.broadcast_arrays(*g.sigma), axis=-1) - general).max() < 1e-12 * np.abs(general).max()


# -- static convexity -----------------------------------------------------------


def test_static_convexity_sphere_margin_zero():
    for radius in (1.0, 2.0):
        grid = SphericalGrid.full_s2(32, 64)
        geom = radial_geometry(sphere_radial(grid, radius))
        report = static_convexity(geom)
        assert abs(report.margin) < 1e-9


def test_static_convexity_spheroid_margin_negative():
    # a prolate spheroid is strictly less curved than its comparison sphere
    # at the equator: kappa_merid = b/c^2 < 1/b = 1/h there, so the margin of
    # any non-spherical spheroid about the origin is strictly negative; the
    # closed form puts it at b/c^2 - 1/b.
    c_axis, b_eq = 1.05, 1.0
    grid = SphericalGrid.axisym(2, 128)
    geom = radial_geometry(spheroid_radial(grid, c_axis, b_eq))
    report = static_convexity(geom)
    expected = b_eq / c_axis**2 - 1.0 / b_eq
    assert expected < 0
    assert report.margin == pytest.approx(expected, abs=2e-4)


def test_static_convexity_translated_sphere_margin_closed_form():
    # kappa = 1/R but h_min = R - |c|: margin = 1/R - 1/(R - |c|) < 0
    grid = SphericalGrid.axisym(2, 96)
    geom = support_geometry(sphere_support(grid, 1.0, center=0.1))
    report = static_convexity(geom)
    assert report.margin == pytest.approx(1.0 - 1.0 / 0.9, abs=2e-4)


def test_static_convexity_requires_positive_support():
    grid = SphericalGrid.axisym(2, 64)
    h = 0.5 + 0.6 * np.cos(grid.theta)  # dips negative near the south pole
    with pytest.raises((NonpositiveSupport, ConvexityLost)):
        geom = support_geometry(ScalarField(grid, h))
        static_convexity(geom)


# -- sphericity and volume -------------------------------------------------------


def test_sphericity_values():
    grid = SphericalGrid.axisym(2, 128)
    assert sphericity(radial_geometry(sphere_radial(grid, 1.0))) < 1e-8
    spheroid = radial_geometry(spheroid_radial(grid, 1.2, 1.0))
    assert sphericity(spheroid) > 1e-3
    assert sphericity(spheroid) >= -1e-12


def test_curvature_field_volume():
    grid = SphericalGrid.full_s2(32, 64)
    assert radial_geometry(sphere_radial(grid, 2.0)).volume() == pytest.approx(4 / 3 * math.pi * 8, rel=1e-9)
    axi = SphericalGrid.axisym(3, 64)
    assert radial_geometry(sphere_radial(axi, 1.0)).volume() == pytest.approx(math.pi**2 / 2, rel=1e-9)
    bumped = ScalarField(axi, 1.0 + 0.1 * np.cos(axi.theta))
    vol = radial_geometry(bumped).volume()
    ball = lambda R: sphere_area(3) / 4 * R**4
    assert ball(0.9) < vol < ball(1.1)


def test_not_starshaped_raises():
    grid = SphericalGrid.axisym(2, 32)
    with pytest.raises(NotStarshaped):
        radial_geometry(ScalarField(grid, 0.5 - 1.0 * np.cos(grid.theta) ** 2))
    with pytest.raises(NotStarshaped):
        radial_geometry(ScalarField(grid, np.cos(grid.theta)))


def test_convexity_lost_raises():
    grid = SphericalGrid.axisym(2, 64)
    # strong ell=2 perturbation drives a curvature radius through zero
    h = 1.0 + 0.9 * harmonic_mode(grid, 2)
    with pytest.raises(ConvexityLost):
        support_geometry(ScalarField(grid, h))


# -- random generators -------------------------------------------------------------


def test_random_starshaped_reproducible_and_recentred():
    grid = SphericalGrid.full_s2(32, 64)
    f1 = random_starshaped(grid, np.random.default_rng(5), amp=0.25)
    f2 = random_starshaped(grid, np.random.default_rng(5), amp=0.25)
    assert np.array_equal(f1.values, f2.values)
    geom = radial_geometry(f1)
    assert np.abs(centroid(geom)).max() < 1e-4


def test_random_convex_support_is_convex():
    grid = SphericalGrid.full_s2(32, 64)
    for seed in range(4):
        field = random_convex_support(grid, np.random.default_rng(seed), amp=0.1)
        geom = support_geometry(field)  # would raise if not strictly convex
        assert geom.kappa.min() > 0
