"""Curvature pipelines against closed-form sphere/spheroid oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest

from curvelab import (
    ScalarField,
    SphericalGrid,
    michael_simon_deficit_H,
    radial_geometry,
    sphericity,
    static_convexity,
    support_geometry,
)
from curvelab.errors import ConvexityLost, NonpositiveSupport, NotStarshaped
from curvelab.geometry import _radial_field, centroid
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


def test_translated_sphere_radial_axisym_normal():
    # the normal of a sphere centred at c on the axis is (X - c) / R
    errs = []
    for nt in (64, 128):
        grid = SphericalGrid.axisym(2, nt)
        geom = radial_geometry(sphere_radial(grid, 1.3, center=0.25))
        oracle = (geom.position - np.array([0.0, 0.25])) / 1.3
        errs.append(np.abs(geom.normal - oracle).max())
    assert errs[0] < 2e-4
    assert math.log2(errs[0] / errs[1]) > 1.8


# -- inverse metric: the height-function oracle ----------------------------------

# max |error| at 64 rows on seed 1, amplitude 0.1 is 1.9e-3, 5.5e-3, 1.9e-3
# and 2.9e-3 in the order below; each tolerance is 1.5 times that
HEIGHT_CASES = [
    pytest.param(lambda nt: SphericalGrid.axisym(2, nt), random_starshaped, radial_geometry, 3e-3,
                 id="radial-axisym"),
    pytest.param(lambda nt: SphericalGrid.full_s2(nt, 2 * nt), random_starshaped, radial_geometry, 8e-3,
                 id="radial-s2"),
    pytest.param(lambda nt: SphericalGrid.axisym(2, nt), random_convex_support, support_geometry, 3e-3,
                 id="support-axisym"),
    pytest.param(lambda nt: SphericalGrid.full_s2(nt, 2 * nt), random_convex_support, support_geometry, 4.5e-3,
                 id="support-s2"),
]


@pytest.mark.parametrize("make_grid, body, geometry, tol", HEIGHT_CASES)
def test_height_function_tangential_gradient(make_grid, body, geometry, tol):
    # the axis coordinate z of X restricted to M has |grad^M z|^2 = 1 - nu_z^2,
    # so the inverse metric, the frame and the normal are checked together
    errs = []
    for nt in (32, 64, 128):
        grid = make_grid(nt)
        geom = geometry(body(grid, np.random.default_rng(1), amp=0.1))
        z = geom.position[..., -1]
        tgs = geom.tangential_grad_sq(grid.derivatives(z, hessian=False)[0])
        errs.append(np.abs(tgs - (1.0 - geom.normal[..., -1] ** 2)).max())
    assert errs[1] < tol
    assert math.log2(errs[0] / errs[1]) >= 1.8
    assert math.log2(errs[1] / errs[2]) >= 1.8


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


@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_tilted_spheroid_radial_against_closed_form(alpha):
    # off the grid axis the curvature needs the mixed derivative and the
    # antipodal pole ghosts; at alpha = pi/2 mirrored ghosts would agree
    c_axis, b_eq = 1.2, 1.0
    axis = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
    l2, worst = [], []
    for nt in (32, 64):
        grid = SphericalGrid.full_s2(nt, 2 * nt)
        theta = np.arccos(np.clip(grid.xi @ axis, -1.0, 1.0))  # colatitude from the axis
        r = 1.0 / np.sqrt(np.sin(theta) ** 2 / b_eq**2 + np.cos(theta) ** 2 / c_axis**2)
        geom = radial_geometry(ScalarField(grid, r))
        kap_m, kap_a = spheroid_curvatures_radial(theta, c_axis, b_eq)
        lo, hi = np.minimum(kap_m, kap_a), np.maximum(kap_m, kap_a)
        rel = np.maximum(np.abs(geom.kappa1 - lo) / lo, np.abs(geom.kappa2 - hi) / hi)
        l2.append(math.sqrt(grid.integrate(rel**2)))
        worst.append(rel.max())
    assert worst[0] < 3e-2
    assert math.log2(l2[0] / l2[1]) >= 1.7


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


def radial_mean_curvature_direct(field):
    """Mean curvature via the scalar log-radial formula.

    With omega = log r,

        H = (n - (e^{ij} - grad^i omega grad^j omega / (1 + |grad omega|^2))
             hess(omega)_ij) / (r sqrt(1 + |grad omega|^2)),

    an independent algebraic route to the eigenvalue sum of radial_geometry,
    from the same discrete derivatives.
    """
    grid = field.grid
    r = field.values
    n = grid.n
    grad_r, hess_r = grid.derivatives(r)
    if grid.mode == "axisym":
        o1 = grad_r[0] / r
        oo = o1 * o1
        vv = 1.0 + oo
        ho_m = hess_r[0] / r - o1 * o1
        ho_a = hess_r[1] / r
        contract = ho_m + (n - 1) * ho_a - (o1 * o1 * ho_m) / vv
        return (n - contract) / (r * np.sqrt(vv))
    o1, o2 = grad_r[0] / r, grad_r[1] / r
    oo = o1 * o1 + o2 * o2
    vv = 1.0 + oo
    ho11 = hess_r[0] / r - o1 * o1
    ho12 = hess_r[1] / r - o1 * o2
    ho22 = hess_r[2] / r - o2 * o2
    contract = (ho11 + ho22) - (o1 * o1 * ho11 + 2 * o1 * o2 * ho12 + o2 * o2 * ho22) / vv
    return (n - contract) / (r * np.sqrt(vv))


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


@pytest.mark.parametrize("shape", [(16, 32), (48, 96)])
def test_radial_pair_is_the_spectrum_of_the_shape_operator(shape):
    # the full-s2 pair against eig(g^-1 b) per node, with g = r^2 e + dr dr^T and
    # b = (r^2 e + 2 dr dr^T - r hess r) / rho from the same discrete derivatives
    grid = SphericalGrid.full_s2(*shape)
    for seed in range(4):
        r = random_starshaped(grid, np.random.default_rng(seed), amp=0.3).values
        geom = radial_geometry(ScalarField(grid, r))
        grad, (h11, h12, h22) = grid.derivatives(r)
        d = np.stack(grad, axis=-1)
        hess = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -1)
        dd, rr = d[..., :, None] * d[..., None, :], (r * r)[..., None, None]
        rho = np.sqrt(r * r + np.sum(d * d, axis=-1))[..., None, None]
        g, b = rr * np.eye(2) + dd, (rr * np.eye(2) + 2.0 * dd - r[..., None, None] * hess) / rho
        dense = np.sort(np.linalg.eigvals(np.linalg.solve(g, b)).real, axis=-1)
        pair = np.stack([geom.kappa1, geom.kappa2], axis=-1)
        assert np.abs(pair - dense).max() / np.abs(dense).max() < 1e-13


def _radial_reference(grid, r):
    """The full-s2 radial build written formula by formula, every product formed where it
    is named (r r six times, 2 d d beside d d) and the pair from the closed 2x2 form."""
    (d1, d2), (h11, h12, h22) = grid.derivatives(r)
    rho2 = r * r + (d1 * d1 + d2 * d2)
    rho = np.sqrt(rho2)
    b11 = (r * r + 2.0 * d1 * d1 - r * h11) / rho
    b12 = (2.0 * d1 * d2 - r * h12) / rho
    b22 = (r * r + 2.0 * d2 * d2 - r * h22) / rho
    w1 = (b11 * d1 + b12 * d2) / rho2
    w2 = (b12 * d1 + b22 * d2) / rho2
    a11, a12, a21, a22 = b11 - d1 * w1, b12 - d1 * w2, b12 - d2 * w1, b22 - d2 * w2
    mean = 0.5 * (a11 + a22)
    disc = np.sqrt(np.maximum(0.25 * (a11 - a22) ** 2 + a12 * a21, 0.0))
    kappa1, kappa2 = (mean - disc) / (r * r), (mean + disc) / (r * r)
    return {"kappa1": kappa1, "kappa2": kappa2, "area_factor": r ** (grid.n - 1) * rho,
            "support": r * r / rho, "metric_source": rho, "H": kappa1 + (grid.n - 1) * kappa2}


def _verify_draws(grid, seed, count):
    """count radial bodies drawn as curvelab verify draws its samples, amplitudes included."""
    rng = np.random.default_rng(seed)
    return [random_starshaped(grid, rng, amp=0.3 * float(rng.uniform(0.05, 1.0)) ** 2).values for _ in range(count)]


@pytest.mark.parametrize("seed", range(3))
def test_radial_build_keeps_the_bits_of_its_formula(seed):
    # the build shares r^2 and d_i d_j and writes over its own arrays; every output
    # keeps the bits of the formula written out, for one body and for a stack of three
    grid = SphericalGrid.full_s2(48, 96)
    bodies = _verify_draws(grid, seed, 3)
    single = _radial_field(grid, bodies[0])
    stacked = _radial_field(grid, np.stack(bodies))
    for i, r in enumerate(bodies):
        for name, want in _radial_reference(grid, r).items():
            if i == 0:
                assert np.array_equal(getattr(single, name), want), name
            assert np.array_equal(getattr(stacked, name)[i], want), (i, name)


@pytest.mark.parametrize("seed", range(3))
def test_deficit_without_a_density_keeps_the_bits_of_f_equal_to_one(seed):
    grid = SphericalGrid.full_s2(48, 96)
    geom = radial_geometry(ScalarField(grid, _verify_draws(grid, seed, 1)[0]))
    # repr gives each float's shortest round-trip digits, so equal reprs are equal bits
    ones = michael_simon_deficit_H(geom, np.ones(grid.node_shape))
    assert repr(michael_simon_deficit_H(geom)) == repr(ones)


def test_umbilic_nodes_raise_no_warning():
    # at an umbilic node the discriminant is ~0, and a12 a21 of the non-symmetric
    # g^-1 b is no square, so it can round below 0; the pair clamps it
    from curvelab.geometry import _eig2

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _eig2(1.0, 1e-8, -1e-8 * (1.0 + 1e-6), 1.0) == (1.0, 1.0)
        for shape in ((8, 16), (32, 64), (96, 192)):
            grid = SphericalGrid.full_s2(*shape)
            for center in ([0.15, 0.1, 0.2], [0.0, -0.3, 0.05]):
                geom = radial_geometry(sphere_radial(grid, 1.3, center))
                assert np.isfinite(geom.kappa).all()


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
    e_theta, e_phi = grid.frame
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


def degree_one_moment(field, amp):
    """max over the axes e of |sum w r <e, xi>| / (amp sum w r): the body's degree-1 part, which
    quadrature alone makes nonzero when the draw has none (the theta weights are not Gauss weights)."""
    grid, wr = field.grid, field.grid.weights * field.values
    axes = [1.0] if grid.mode == "axisym" else np.eye(3)
    return max(abs(np.sum(wr * grid.project(e))) for e in axes) / (amp * np.sum(wr))


@pytest.mark.parametrize("coarse, fine", [(SphericalGrid.axisym(2, 40), SphericalGrid.axisym(2, 80)),
                                          (SphericalGrid.full_s2(24, 48), SphericalGrid.full_s2(48, 96))],
                         ids=["axisym 40-80", "full-s2 24x48-48x96"])
def test_random_starshaped_draws_no_degree_one_term(coarse, fine):
    # the degree-1 coefficients are drawn and zeroed, so the moment is
    # quadrature error: below 1e-3 amp and about 4x smaller per doubling
    # (measured 2.96e-4 -> 7.36e-5 axisym, 8.55e-4 -> 2.10e-4 full-s2)
    worst = []
    for grid in (coarse, fine):
        fields = [(random_starshaped(grid, np.random.default_rng(seed), amp=amp), amp)
                  for amp in (0.1, 0.3) for seed in range(30)]
        worst.append(max(degree_one_moment(field, amp) for field, amp in fields))
    again = random_starshaped(fine, np.random.default_rng(29), amp=0.3)
    assert np.array_equal(again.values, fields[-1][0].values)  # reproducible from the seed
    assert worst[0] < 1e-3
    assert 3.5 < worst[0] / worst[1] < 4.5


@pytest.mark.parametrize("grid", [SphericalGrid.axisym(2, 40), SphericalGrid.full_s2(24, 48)],
                         ids=["axisym 40", "full-s2 24x48"])
def test_random_starshaped_is_centred_to_its_tolerance(grid):
    # the degree-1 moment stays quadrature error at every amp and base, and
    # base only scales the body drawn from the same seed
    for seed, amp, base in ((0, 0.1, 1.0), (1, 0.25, 1.0), (2, 0.3, 1.0), (0, 0.4, 1.0), (3, 0.3, 2.5)):
        field = random_starshaped(grid, np.random.default_rng(seed), amp=amp, base=base)
        unit = random_starshaped(grid, np.random.default_rng(seed), amp=amp)
        assert np.array_equal(field.values, base * unit.values)
        assert degree_one_moment(field, amp) < 1e-3


@pytest.mark.parametrize("grid, amp, bound", [(SphericalGrid.full_s2(16, 32), 0.3, 3e-3),
                                              (SphericalGrid.axisym(2, 64), 0.35, 2e-4)],
                         ids=["full-s2 16x32", "axisym 64"])
def test_random_starshaped_centres_rough_draws(grid, amp, bound):
    # the rough flow starts' grids and amps: min r dips to about 0.07 (full-s2)
    # or 0.18 (axisym), and the degree-1 moment is the coarse grid's quadrature
    # error (measured at most 1.98e-3 and 1.15e-4 over seeds 0-19)
    for seed in range(20):
        field = random_starshaped(grid, np.random.default_rng(seed), amp=amp)
        assert field.values.min() > 0.05
        assert degree_one_moment(field, amp) < bound, seed


def test_random_starshaped_redraws_below_its_radius_floor(monkeypatch):
    from curvelab import shapes

    # the first amp-0.3 draw of seed 0 on 16x32 dips to min r 0.031, under the 0.05 floor
    grid, rng, draws = SphericalGrid.full_s2(16, 32), np.random.default_rng(0), []

    class CountingRng:
        def uniform(self, *args, **kwargs):
            draws.append(1)
            return rng.uniform(*args, **kwargs)

    field = random_starshaped(grid, CountingRng(), amp=0.3)
    bodies = list(itertools.islice(shapes._draws(grid, np.random.default_rng(0), 0.3, 1.0, 4), len(draws)))
    assert len(draws) > 1 and all(r.min() <= 0.05 for r in bodies[:-1])
    assert np.array_equal(field.values, bodies[-1])  # the first draw above the floor
    monkeypatch.setattr(shapes, "_MAX_TRIES", 1)  # the thin first draw alone
    with pytest.raises(NotStarshaped, match="no valid starshaped sample after 1 tries"):
        random_starshaped(grid, np.random.default_rng(0), amp=0.3)


@pytest.mark.parametrize("grid", [SphericalGrid.axisym(2, 40), SphericalGrid.axisym(3, 24),
                                  SphericalGrid.full_s2(16, 32), SphericalGrid.full_s2(24, 48)], ids=repr)
def test_random_starshaped_of_degree_two_is_centrally_symmetric(grid):
    # with no degree-1 term a body of degree 2 is even, r(-x) = r(x), so its
    # centroid is 0 to round-off on every grid, n >= 3 included
    for seed in range(5):
        field = random_starshaped(grid, np.random.default_rng(seed), amp=0.3, lmax=2)
        r = field.values
        antipodal = r[::-1] if grid.mode == "axisym" else np.roll(r[::-1], grid.n_phi // 2, axis=1)
        assert r.max() - r.min() > 0.01  # not the base sphere
        assert np.abs(antipodal - r).max() <= 1e-14
        assert np.abs(centroid(radial_geometry(field))).max() <= 1e-14


@pytest.mark.parametrize("grid", [SphericalGrid.axisym(2, 40), SphericalGrid.full_s2(24, 48)], ids=repr)
def test_random_draws_leave_the_rng_where_a_full_draw_does(grid):
    # a radial draw spends a uniform on each degree-1 mode it zeroes, so a
    # radial and a convex draw both move the stream by one uniform per mode
    from curvelab import shapes

    modes = len(shapes._mode_tables(grid, 4)[0])
    for generator in (random_starshaped, random_convex_support):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        generator(grid, rng, amp=0.05)  # accepted at the first draw
        ref.uniform(size=modes)
        assert rng.uniform() == ref.uniform()


def test_random_starshaped_needs_a_positive_base():
    with pytest.raises(ValueError, match="base radius"):
        random_starshaped(SphericalGrid.axisym(2, 16), np.random.default_rng(0), amp=0.1, base=0.0)


@pytest.mark.parametrize("generator", [random_starshaped, random_convex_support])
@pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf, -0.1])
def test_random_generators_reject_a_bad_amplitude(generator, amp):
    with pytest.raises(ValueError, match="amp"):
        generator(SphericalGrid.axisym(2, 16), np.random.default_rng(0), amp=amp)


BAD_LMAX = [(generator, lmax) for lmax in (0, -1, 2.5, True) for generator in (random_starshaped, random_convex_support)]
BAD_LMAX.append((random_starshaped, 1))


@pytest.mark.parametrize("generator, lmax", BAD_LMAX, ids=[f"{lmax}-{g.__name__}" for g, lmax in BAD_LMAX])
def test_random_generators_reject_a_bad_lmax(generator, lmax):
    # 0 and -1 drew from an empty mode bank, 2.5 failed inside range() and True
    # drew as 1; a radial draw has no degree-1 term, so at lmax 1 it would be
    # the base sphere whatever the seed
    least = 2 if generator is random_starshaped else 1
    with pytest.raises(ValueError, match=f"lmax must be an integer >= {least}"):
        generator(SphericalGrid.axisym(2, 16), np.random.default_rng(0), amp=0.1, lmax=lmax)


@pytest.mark.parametrize("generator", [random_starshaped, random_convex_support])
@pytest.mark.parametrize("grid", [SphericalGrid.axisym(2, 16), SphericalGrid.full_s2(8, 16)], ids=repr)
def test_random_generators_draw_the_base_sphere_at_zero_amplitude(generator, grid):
    field = generator(grid, np.random.default_rng(0), amp=0.0, base=1.5)
    assert np.abs(field.values - 1.5).max() <= 1e-14  # a convex body is recentred on the sphere's round-off


def _mode_args(grid, lmax):
    """Every (ell, m, phase) of degree 1..lmax on the grid, in the mode tables' order."""
    return [(ell, m, phase) for ell in range(1, lmax + 1) for m in range((grid.mode != "axisym") * ell + 1)
            for phase in ("cos", "sin")[: 1 + (m > 0)]]


@pytest.mark.parametrize("grid", [SphericalGrid.full_s2(16, 32), SphericalGrid.full_s2(48, 96),
                                  SphericalGrid.full_s2(12, 24), SphericalGrid.axisym(2, 40),
                                  SphericalGrid.axisym(4, 12)], ids=repr)
def test_mode_tables_hold_the_harmonic_modes(grid):
    # full-s2: theta[i] (x) phi[i] rounds each unit-sup factor where
    # harmonic_mode rounds the product once, so they agree to 1 ulp of 1
    # (on 24 columns sin(4 phi) peaks at 0.866, so its row must be rescaled);
    # axisym: the theta rows are harmonic_mode's bits
    from curvelab import shapes

    theta, phi = shapes._mode_tables(grid, 4)
    args = _mode_args(grid, 4)
    assert theta.shape == (len(args), grid.n_theta)
    for i, arg in enumerate(args):
        want = harmonic_mode(grid, *arg)
        if phi is None:
            assert theta[i].tobytes() == want.tobytes()
        else:
            assert np.abs(np.outer(theta[i], phi[i]) - want).max() <= np.spacing(1.0)


@pytest.mark.parametrize("generator", [random_starshaped, random_convex_support])
@pytest.mark.parametrize("grid", [SphericalGrid.full_s2(48, 96), SphericalGrid.axisym(2, 40),
                                  SphericalGrid.axisym(4, 12)], ids=repr)
def test_random_draws_are_the_per_mode_sum_as_one_table_product(monkeypatch, generator, grid):
    # a radial draw is the body as drawn, with its degree-1 coefficients at 0;
    # it draws the uniforms of every mode all the same, so the rng stream is
    # that of a full draw
    from curvelab import shapes
    from curvelab.geometry import _principal_radii

    monkeypatch.setattr(shapes, "centroid", lambda geom: np.zeros_like(centroid(geom)))
    args = _mode_args(grid, 4)
    modes, draws = [harmonic_mode(grid, *arg) for arg in args], []
    scales = np.ones(len(modes))
    if generator is random_convex_support:
        # mode i's coefficient is divided by the sup of its curvature radii, at least 1
        scales = shapes._convexity_scales(grid, 4)
        bounds = [max(np.abs(rho).max() for rho in _principal_radii(grid, y)[:2]) for y in modes]
        assert np.allclose(scales, np.maximum(bounds, 1.0), rtol=1e-12, atol=0.0)
    kept = np.array([generator is random_convex_support or ell > 1 for ell, _, _ in args])

    class RecordingRng:
        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)

        def uniform(self, *args, **kwargs):
            draws.append(self.rng.uniform(*args, **kwargs))
            return draws[-1]

    for seed in range(5):
        body = generator(grid, RecordingRng(seed), amp=0.3, base=1.7).values
        assert len(draws[-1]) == len(modes)  # one uniform per mode, degree 1 included
        coeff = kept * draws[-1] / scales
        summed = 1.7 * (1.0 + sum(a * y for a, y in zip(coeff, modes)))
        # in ulp of the scale the sums round at, base (1 + sum |a_i Y_i|): a body
        # value near 0 is a cancellation, not a 4-ulp result of either sum
        scale = 1.7 * (1.0 + sum(abs(a * y) for a, y in zip(coeff, modes)))
        assert np.all(np.abs(body - summed) <= 4 * np.spacing(scale))


def test_random_convex_support_redraws_and_gives_up():
    # at amp 2.0 most axisym draws lose convexity and are drawn again; at
    # amp 1.0 on full-s2 12x24 none of the 100 draws is convex
    for seed in range(3):
        rng, draws = np.random.default_rng(seed), []

        class CountingRng:
            def uniform(self, *args, **kwargs):
                draws.append(1)
                return rng.uniform(*args, **kwargs)

        field = random_convex_support(SphericalGrid.axisym(2, 24), CountingRng(), amp=2.0)
        assert len(draws) > 1 and support_geometry(field).kappa.min() > 0
    with pytest.raises(ConvexityLost, match="no valid convex sample after 100 tries"):
        random_convex_support(SphericalGrid.full_s2(12, 24), np.random.default_rng(0), amp=1.0)


def test_random_convex_support_is_convex():
    grid = SphericalGrid.full_s2(32, 64)
    for seed in range(4):
        field = random_convex_support(grid, np.random.default_rng(seed), amp=0.1)
        geom = support_geometry(field)  # would raise if not strictly convex
        assert geom.kappa.min() > 0
