"""Quermassintegrals and sharp-inequality deficits against sphere closed forms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvelab import (
    ScalarField,
    SpeedProfile,
    SphericalGrid,
    ball_quermass,
    ball_quermass_inverse,
    michael_simon_deficit_H,
    michael_simon_deficit_k,
    monotone_quantities,
    quermassintegrals,
    radial_geometry,
    sphericity,
    static_convexity,
    support_geometry,
)
from curvelab.errors import ConeViolation, NonpositiveDensity, NonpositiveSupport, ZeroMeanCurvature
from curvelab.functionals import _mk_integral
from curvelab.geometry import _radial_field, _support_field
from curvelab.shapes import (
    random_convex_support,
    random_starshaped,
    sphere_radial,
    sphere_support,
    spheroid_radial,
)
from curvelab.sphere_grid import sphere_area


# -- quermassintegrals ---------------------------------------------------------


def test_ball_closed_forms_unit_sphere():
    grid = SphericalGrid.full_s2(48, 96)
    quermass = quermassintegrals(radial_geometry(sphere_radial(grid, 1.0)))
    for j in range(3 + 1):
        assert quermass[j] == pytest.approx(4 * math.pi, rel=1e-10)


def test_ball_closed_forms_radius_two():
    grid = SphericalGrid.full_s2(48, 96)
    quermass = quermassintegrals(radial_geometry(sphere_radial(grid, 2.0)))
    # (V_0, V_1, V_2) = (32pi, 16pi, 8pi), V_3 = 4pi
    assert quermass[0] == pytest.approx(32 * math.pi, rel=1e-10)
    assert quermass[1] == pytest.approx(16 * math.pi, rel=1e-10)
    assert quermass[2] == pytest.approx(8 * math.pi, rel=1e-10)
    assert quermass[3] == pytest.approx(4 * math.pi, rel=1e-10)


def test_ball_quermass_helpers():
    for n in (2, 3, 5):
        for j in range(n + 1):
            v = ball_quermass(j, 1.7, n)
            assert v == pytest.approx(sphere_area(n) * 1.7 ** (n + 1 - j))
            assert ball_quermass_inverse(j, v, n) == pytest.approx(1.7)


def test_quermass_support_parametrization_matches():
    grid = SphericalGrid.axisym(3, 96)
    qr = quermassintegrals(radial_geometry(sphere_radial(grid, 1.4)))
    qs = quermassintegrals(support_geometry(sphere_support(grid, 1.4)))
    assert np.allclose(qr, qs, rtol=1e-10)


def test_quermass_nested_balls_monotone():
    grid = SphericalGrid.axisym(2, 48)
    q1 = quermassintegrals(radial_geometry(sphere_radial(grid, 1.0)))
    q2 = quermassintegrals(radial_geometry(sphere_radial(grid, 1.5)))
    assert np.all(q2[:-1] > q1[:-1])
    # the top entry is the Gauss-curvature integral, scale invariant
    assert q2[3] == pytest.approx(q1[3], rel=1e-12)


def test_quermass_spheroid_between_inscribed_and_circumscribed():
    grid = SphericalGrid.axisym(2, 96)
    quermass = quermassintegrals(radial_geometry(spheroid_radial(grid, 1.2, 1.0)))
    lo = quermassintegrals(radial_geometry(sphere_radial(grid, 1.0)))
    hi = quermassintegrals(radial_geometry(sphere_radial(grid, 1.2)))
    for j in range(3):
        assert lo[j] < quermass[j] < hi[j]


ELLIPSOID_AXES = np.array([1.3, 1.0, 0.8])
ROTATION_GRIDS = [SphericalGrid.full_s2(24, 48), SphericalGrid.full_s2(48, 96)]


def tilted_ellipsoid_quermass(kind, grid, q):
    """quermassintegrals of the ellipsoid with ELLIPSOID_AXES along the columns of q."""
    u = grid.xi @ q  # each node's direction in the ellipsoid's frame
    if kind == "radial":
        r = np.sum(u**2 / ELLIPSOID_AXES**2, axis=-1) ** -0.5
        return quermassintegrals(radial_geometry(ScalarField(grid, r)))
    h = np.sum(u**2 * ELLIPSOID_AXES**2, axis=-1) ** 0.5
    return quermassintegrals(support_geometry(ScalarField(grid, h)))


@pytest.mark.parametrize("kind, c", [("radial", 0.11), ("support", 0.14)])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_quermassintegrals_are_rotation_invariant_to_second_order(kind, c, seed):
    # the relative spread of V_0..V_3 over the axis-aligned ellipsoid and
    # three rotations of it (QR of Gaussian matrices) is discretization error:
    # it stays below c dtheta^2 and falls at order 2 from 24x48 to 48x96;
    # over 200 draws of three rotations c read at most 0.087 (radial) and
    # 0.111 (support), and the order at least 1.88 and 1.95
    rng = np.random.default_rng(seed)
    rotations = [np.eye(3)] + [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(3)]
    spreads = []
    for grid in ROTATION_GRIDS:
        values = np.array([tilted_ellipsoid_quermass(kind, grid, q) for q in rotations])
        spread = float(np.max((values.max(axis=0) - values.min(axis=0)) / values.mean(axis=0)))
        assert spread <= c * (math.pi / grid.n_theta) ** 2
        spreads.append(spread)
    assert math.log2(spreads[0] / spreads[1]) >= 1.7


# -- mean-curvature deficit ------------------------------------------------------


def test_deficit_H_equality_sphere_f_matched():
    # radius R with f = R^-(n-1): lhs = rhs = n |S^n|
    for radius in (1.0, 1.7):
        grid = SphericalGrid.full_s2(48, 96)
        geom = radial_geometry(sphere_radial(grid, radius))
        rep = michael_simon_deficit_H(geom, radius ** (-1.0))
        assert rep.lhs == pytest.approx(2 * 4 * math.pi, rel=1e-10)
        assert abs(rep.rel_deficit) < 1e-10


def test_deficit_H_equality_sphere_constant_f():
    grid = SphericalGrid.full_s2(48, 96)
    geom = radial_geometry(sphere_radial(grid, 1.0))
    rep = michael_simon_deficit_H(geom, 1.0)
    assert rep.lhs == pytest.approx(8 * math.pi, rel=1e-10)
    assert rep.rhs == pytest.approx(8 * math.pi, rel=1e-10)


def test_deficit_H_spheroid_positive():
    grid = SphericalGrid.full_s2(48, 96)
    geom = radial_geometry(spheroid_radial(grid, 1.2, 1.0))
    rep = michael_simon_deficit_H(geom, 1.0)
    assert rep.deficit > 0
    assert rep.rel_deficit > 1e-4


def test_deficit_H_with_gradient_term():
    # f = r^(-1) exp((r-1)^2/2) via chain rule on a random starshaped body
    from curvelab.flows import SpeedProfile

    grid = SphericalGrid.full_s2(48, 96)
    field = random_starshaped(grid, np.random.default_rng(2), amp=0.2)
    geom = radial_geometry(field)
    prof = SpeedProfile.power_exp_pinned(2, 1.0)
    f = prof.f(field.values)
    grad_f = tuple(prof.df(field.values) * g for g in geom.grad)
    rep = michael_simon_deficit_H(geom, f, grad_f)
    assert rep.deficit > -1e-3 * rep.rhs


@pytest.mark.parametrize("k", [0, 2], ids=["k-0", "k-n"])
def test_deficit_k_rejects_a_k_out_of_range(k):
    geom = radial_geometry(sphere_radial(SphericalGrid.axisym(2, 16), 1.0))
    with pytest.raises(ValueError, match="need 1 <= k <= n - 1"):
        michael_simon_deficit_k(geom, k=k)


def test_deficit_H_rejects_nonpositive_density():
    grid = SphericalGrid.axisym(2, 32)
    geom = radial_geometry(sphere_radial(grid, 1.0))
    with pytest.raises(NonpositiveDensity):
        michael_simon_deficit_H(geom, 0.0)


@pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, "one-nan-node"])
def test_deficits_and_monotone_quantities_reject_non_finite_densities(f):
    # NaN fails every comparison, so "min > 0" alone lets a NaN density through as NaN rows
    grid = SphericalGrid.axisym(3, 32)
    geom = radial_geometry(sphere_radial(grid, 1.0))
    if f == "one-nan-node":
        f = np.ones(grid.node_shape)
        f[5] = math.nan
    for evaluate in (lambda: michael_simon_deficit_H(geom, f), lambda: michael_simon_deficit_k(geom, f, k=2),
                     lambda: monotone_quantities(geom, f, 1)):
        with pytest.raises(NonpositiveDensity, match="positive and finite"):
            evaluate()


def test_deficit_H_scaling_covariance():
    grid = SphericalGrid.full_s2(32, 64)
    rels = []
    for a in (1.0, 2.0, 0.5):
        geom = radial_geometry(sphere_radial(grid, a))
        rels.append(michael_simon_deficit_H(geom, 1.0).rel_deficit)
    assert abs(rels[0] - rels[1]) < 1e-6
    assert abs(rels[0] - rels[2]) < 1e-6


# -- k-th mean curvature deficit ---------------------------------------------------


def test_deficit_k_unit_sphere_idempotent():
    # |deficit| < 1e-10 on the unit sphere with f = 1, all n <= 6
    for n in range(3, 7):
        grid = SphericalGrid.axisym(n, 48)
        geom = radial_geometry(sphere_radial(grid, 1.0))
        for k in range(1, n):
            rep = michael_simon_deficit_k(geom, 1.0, k=k)
            assert abs(rep.rel_deficit) < 1e-10, (n, k)


def test_deficit_k_matched_family_all_radii():
    # every constant f is normalised to the matched R^-(n-k), which keeps the deficit at zero
    # for every radius; unnormalised, f = 0.5, 1 and 1.5 read +1, 0 and -1/3 on the unit sphere
    n, k = 3, 2
    grid = SphericalGrid.axisym(n, 48)
    for radius in (0.5, 1.0, 2.0):
        geom = radial_geometry(sphere_radial(grid, radius))
        for f in (radius ** (-(n - k)), 0.5, 1.0, 1.5):
            assert abs(michael_simon_deficit_k(geom, f, k=k).rel_deficit) < 1e-10, (radius, f)


def test_deficits_without_a_density_take_their_matched_constant():
    # no f: f = 1 for the H deficit, f = R^-(n-k) at the comparison radius R for the k deficit
    for n, grid_nodes in ((3, 96), (4, 48)):
        grid = SphericalGrid.axisym(n, grid_nodes)
        geom = support_geometry(random_convex_support(grid, np.random.default_rng(n), amp=0.1))
        assert michael_simon_deficit_H(geom) == michael_simon_deficit_H(geom, 1.0)
        for k in range(1, n):
            radius = ball_quermass_inverse(k - 1, float(quermassintegrals(geom)[k - 1]), n)
            assert michael_simon_deficit_k(geom, k=k) == michael_simon_deficit_k(geom, radius ** (k - n), k=k), (n, k)
        for radius in (0.5, 2.0):  # the sphere equality case at every radius
            sphere = radial_geometry(sphere_radial(grid, radius))
            assert all(abs(michael_simon_deficit_k(sphere, k=k).rel_deficit) < 1e-10 for k in range(1, n))


def test_deficit_k_positive_off_sphere():
    grid = SphericalGrid.axisym(3, 96)
    geom = radial_geometry(spheroid_radial(grid, 1.15, 1.0))
    quermass = quermassintegrals(geom)
    radius = ball_quermass_inverse(1, quermass[1], 3)
    rep = michael_simon_deficit_k(geom, radius ** (-1.0), k=2)
    assert rep.deficit > 0


def test_deficit_k_cone_violation():
    grid = SphericalGrid.axisym(3, 64)
    # deep starshaped dimple: some node leaves Gamma_2^+
    field = ScalarField(grid, 1.0 + 0.42 * np.cos(2 * grid.theta))
    geom = radial_geometry(field)
    with pytest.raises(ConeViolation):
        michael_simon_deficit_k(geom, 1.0, k=2)


def test_deficit_k_requires_f_of_R_for_varying_density():
    grid = SphericalGrid.axisym(3, 48)
    geom = radial_geometry(sphere_radial(grid, 1.0))
    f = 1.0 + 0.1 * np.cos(grid.theta) ** 2
    with pytest.raises(ValueError):
        michael_simon_deficit_k(geom, f, k=2)
    radii = []
    rep = michael_simon_deficit_k(geom, f, k=2, f_of_R=lambda radius: radii.append(radius) or 1.05)
    assert np.isfinite(rep.deficit)
    assert radii == [pytest.approx(1.0, rel=1e-3)]  # called once, at the comparison radius
    for f_at_r in (0.0, -1.0, math.nan, math.inf):  # 0.0 divided by zero in the normalisation
        with pytest.raises(NonpositiveDensity, match="at the comparison radius"):
            michael_simon_deficit_k(geom, f, k=2, f_of_R=lambda radius: f_at_r)


def _profile_density(profile, field, geom):
    return profile.f(field.values), tuple(profile.df(field.values) * g for g in geom.grad)


@pytest.mark.parametrize("grid", [SphericalGrid.full_s2(32, 64), SphericalGrid.axisym(3, 64)],
                         ids=lambda g: f"{g.mode}-{g.n}")
def test_deficit_k_at_k_1_is_the_mean_curvature_deficit(grid):
    # for a non-constant f the normalised k = 1 rhs is n |S^n|^(1/n) Q^((n-1)/n), the H
    # deficit's; read at R unnormalised, the two differed by up to 2e-2
    profile = SpeedProfile.affine_power(1.0, 0.5, grid.n, 1)
    for seed in range(3):
        field = random_starshaped(grid, np.random.default_rng(seed), amp=0.03)  # H > 0
        geom = radial_geometry(field)
        f, grad_f = _profile_density(profile, field, geom)
        rel_k = michael_simon_deficit_k(geom, f, grad_f, k=1, f_of_R=profile.f).rel_deficit
        rel_h = michael_simon_deficit_H(geom, f, grad_f).rel_deficit
        assert abs(rel_k - rel_h) < 1e-12, (seed, rel_k, rel_h)


_SUPPORT_BODY = random_convex_support(SphericalGrid.axisym(3, 48), np.random.default_rng(7), amp=0.1)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(scale=st.floats(1e-3, 1e3))
def test_deficit_k_relative_value_does_not_change_when_f_is_scaled(scale):
    profile = SpeedProfile.power(0.5)
    geom = support_geometry(_SUPPORT_BODY)
    f, grad_f = _profile_density(profile, _SUPPORT_BODY, geom)
    base = michael_simon_deficit_k(geom, f, grad_f, k=2, f_of_R=profile.f)
    scaled = michael_simon_deficit_k(geom, scale * f, tuple(scale * g for g in grad_f), k=2,
                                     f_of_R=lambda radius: scale * profile.f(radius))
    assert abs(scaled.rel_deficit - base.rel_deficit) < 1e-13, (scaled.rel_deficit, base.rel_deficit)


# -- monotone quantities -------------------------------------------------------------


def test_monotone_quantities_sphere_values():
    grid = SphericalGrid.full_s2(48, 96)
    geom = radial_geometry(sphere_radial(grid, 1.5))
    # Q with f = R^-(n-1) equals |S^2| = 4 pi
    q, _ = monotone_quantities(geom, 1.5 ** (-1.0), 1)
    assert q == pytest.approx(4 * math.pi, rel=1e-10)
    # Q with f = 1 equals the area
    q, _ = monotone_quantities(geom, 1.0, 1)
    assert q == pytest.approx(4 * math.pi * 1.5**2, rel=1e-10)


def test_monotone_quantities_mk_s3():
    # unit S^3, k = 2, f = 1: M_2 = sigma_1 |S^3| = 3 * 2 pi^2
    grid = SphericalGrid.axisym(3, 64)
    geom = radial_geometry(sphere_radial(grid, 1.0))
    _, mk = monotone_quantities(geom, 1.0, 2)
    assert mk == pytest.approx(6 * math.pi**2, rel=1e-10)


def test_monotone_quantities_k_equals_n():
    grid = SphericalGrid.full_s2(32, 64)
    geom = radial_geometry(sphere_radial(grid, 1.0))
    _, mk = monotone_quantities(geom, 1.0, 2)  # k = n = 2: constant-f regime
    assert mk == pytest.approx(2 * 4 * math.pi, rel=1e-10)
    with pytest.raises(ValueError):
        monotone_quantities(geom, 1.0 + 0.1 * np.cos(grid.theta)[:, None] ** 2, 2)


# -- stacks of surfaces ----------------------------------------------------------

STACK_GRIDS = [SphericalGrid.axisym(3, 32), SphericalGrid.full_s2(16, 32)]


def _stack(kind, grid, states):
    """One CurvatureField holding the stack of states, and each state's public field."""
    if kind == "radial":
        stacked, public = _radial_field(grid, states), radial_geometry
    else:
        stacked, public = _support_field(grid, states), support_geometry
    return stacked, [public(ScalarField(grid, u)) for u in states]


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=repr)
@pytest.mark.parametrize("kind", ["radial", "support"])
def test_functionals_of_a_stack_equal_their_per_state_calls(kind, grid):
    # each functional on a 3-state field gives, per state, the bits (and a
    # float's type) of its call on that state's own field
    rng = np.random.default_rng(7)
    draw = random_starshaped if kind == "radial" else random_convex_support
    states = np.stack([draw(grid, rng, amp=0.1).values for _ in range(3)])
    stacked, singles = _stack(kind, grid, states)
    densities = 1.0 + 0.1 * states
    constants = np.array([0.5, 1.0, 2.0]).reshape((3,) + (1,) * len(grid.node_shape)) + 0.0 * states
    calls = {
        "quermassintegrals": lambda g, i: quermassintegrals(g),
        "margin": lambda g, i: static_convexity(g).margin,
        "node_margins": lambda g, i: static_convexity(g).node_margins,
        "sphericity": lambda g, i: sphericity(g),
        "area": lambda g, i: g.total_area(),
        "volume": lambda g, i: g.volume,
        "radius_stats": lambda g, i: g.radius_stats(),
        **{f"monotone k={k}": (lambda g, i, k=k: monotone_quantities(g, densities[i], k))
           for k in range(1, grid.n)},
        "monotone k=n": lambda g, i: monotone_quantities(g, constants[i], grid.n),
    }
    for name, call in calls.items():
        whole = call(stacked, slice(None))
        for i, single in enumerate(singles):
            one = call(single, i)
            if name == "quermassintegrals":
                got = whole[:, i]
            elif isinstance(whole, tuple):
                got = tuple(part[i] for part in whole)
                assert all(type(v) is float for v in one), name
            else:
                got = whole[i]
                assert name == "node_margins" or type(one) is float, name
            assert _same_bits(got, one), (name, i)


def _off_centre(grid):
    """A sphere's support function with h < 0 on part of the sphere: convex, origin outside."""
    return sphere_support(grid, 0.5, center=0.8 if grid.mode == "axisym" else [0.0, 0.0, 0.8]).values


@pytest.mark.parametrize("grid", STACK_GRIDS, ids=repr)
def test_a_stack_with_one_bad_state_raises_that_states_error(grid):
    rng = np.random.default_rng(8)
    good = [random_convex_support(grid, rng, amp=0.1).values for _ in range(2)]
    states = np.stack([good[0], _off_centre(grid), good[1]])
    stacked, singles = _stack("support", grid, states)
    # h <= 0 somewhere: the margin raises on the stack as on that state alone
    for field in (stacked, singles[1]):
        with pytest.raises(NonpositiveSupport):
            static_convexity(field)

    stacked, singles = _stack("support", grid, np.stack(good + [good[0]]))
    kappa1 = stacked.kappa1.copy()
    kappa1[1].flat[5] = -(grid.n - 1) * stacked.kappa2[1].flat[5]  # H = 0 at one node
    with pytest.raises(ZeroMeanCurvature):
        sphericity(dataclasses.replace(stacked, kappa1=kappa1))

    densities = 1.0 + 0.1 * stacked.scalar
    densities[2].flat[3] = 0.0
    with pytest.raises(NonpositiveDensity):
        monotone_quantities(stacked, densities, 1)
    with pytest.raises(NonpositiveDensity):
        monotone_quantities(singles[2], densities[2], 1)
    # k = n needs a constant density on every state
    with pytest.raises(ValueError, match="constant density"):
        monotone_quantities(stacked, 1.0 + 0.1 * stacked.scalar, grid.n)
    assert np.isnan(_mk_integral(stacked, 1.0 + 0.0 * stacked.scalar, grid.n)).tolist() == [False] * 3
