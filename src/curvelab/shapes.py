"""Canonical test bodies and seeded random surface generators.

Spheroids (surfaces of revolution x_perp^2/b^2 + z^2/c^2 = 1) come with
closed-form principal curvatures, which makes them the workhorse oracle for
both parametrizations:

* at a point whose outward normal has colatitude t (support parametrization),
  the support value is h = sqrt(c^2 cos^2 t + b^2 sin^2 t) and the principal
  curvatures are kappa_merid = h^3 / (b^2 c^2), kappa_azim = h / b^2;
* at a point of position colatitude theta (radial parametrization) the same
  values follow after converting theta to the ellipse parameter.

Random surfaces are low-degree zonal/spherical-harmonic perturbations of the
unit sphere with coefficients drawn uniformly from [-amp, amp], rejection
sampled against the geometric validity predicate, and recentred at the
area-weighted centroid so that origin-dependent quantities are reproducible.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import eval_legendre, lpmv

from .errors import ConvexityLost, NotStarshaped
from .geometry import centroid, radial_geometry, support_geometry
from .sphere_grid import ScalarField, SphericalGrid

__all__ = [
    "sphere_radial",
    "sphere_support",
    "spheroid_radial",
    "spheroid_support",
    "spheroid_curvatures_radial",
    "spheroid_curvatures_support",
    "harmonic_mode",
    "random_starshaped",
    "random_convex_support",
]


def sphere_radial(grid: SphericalGrid, radius: float = 1.0, center=None) -> ScalarField:
    """Radial function of a sphere, optionally off-centre (|center| < radius).

    ``center`` is a 3-vector on full-s2 grids or an axis offset (scalar) on
    axisymmetric grids.
    """
    if center is None:
        return ScalarField(grid, np.full(grid.node_shape, float(radius)))
    xi = grid.xi()
    if grid.mode == "full-s2":
        c = np.asarray(center, float)
        proj = xi @ c
        c2 = float(c @ c)
    else:
        proj = grid.cos_t * float(center)
        c2 = float(center) ** 2
    if c2 >= radius**2:
        raise NotStarshaped("center must lie strictly inside the sphere")
    return ScalarField(grid, proj + np.sqrt(radius**2 - c2 + proj**2))


def sphere_support(grid: SphericalGrid, radius: float = 1.0, center=None) -> ScalarField:
    """Support function of a sphere: h = R + <center, nu>."""
    h = np.full(grid.node_shape, float(radius))
    if center is not None:
        if grid.mode == "full-s2":
            h = h + grid.xi() @ np.asarray(center, float)
        else:
            h = h + float(center) * grid.cos_t
    return ScalarField(grid, h)


def spheroid_radial(grid: SphericalGrid, c_axis: float, b_equator: float) -> ScalarField:
    """Radial function of the spheroid with polar semi-axis c, equatorial b."""
    theta = grid.theta if grid.mode == "axisym" else grid.theta[:, None]
    r = 1.0 / np.sqrt(np.sin(theta) ** 2 / b_equator**2 + np.cos(theta) ** 2 / c_axis**2)
    return ScalarField(grid, np.broadcast_to(r, grid.node_shape).copy())


def spheroid_support(grid: SphericalGrid, c_axis: float, b_equator: float) -> ScalarField:
    """Support function of the same spheroid, h(nu) = sqrt(c^2 nu_z^2 + b^2 |nu_perp|^2)."""
    theta = grid.theta if grid.mode == "axisym" else grid.theta[:, None]
    h = np.sqrt(c_axis**2 * np.cos(theta) ** 2 + b_equator**2 * np.sin(theta) ** 2)
    return ScalarField(grid, np.broadcast_to(h, grid.node_shape).copy())


def spheroid_curvatures_radial(theta, c_axis: float, b_equator: float):
    """Closed-form (kappa_merid, kappa_azim) at position colatitude theta."""
    theta = np.asarray(theta, float)
    r = 1.0 / np.sqrt(np.sin(theta) ** 2 / b_equator**2 + np.cos(theta) ** 2 / c_axis**2)
    sin_t = r * np.sin(theta) / b_equator
    cos_t = r * np.cos(theta) / c_axis
    w = c_axis**2 * sin_t**2 + b_equator**2 * cos_t**2
    kap_m = b_equator * c_axis / w**1.5
    kap_a = c_axis / (b_equator * np.sqrt(w))
    return kap_m, kap_a


def spheroid_curvatures_support(theta_nu, c_axis: float, b_equator: float):
    """Closed-form (kappa_merid, kappa_azim) at normal colatitude theta_nu."""
    theta_nu = np.asarray(theta_nu, float)
    h = np.sqrt(c_axis**2 * np.cos(theta_nu) ** 2 + b_equator**2 * np.sin(theta_nu) ** 2)
    return h**3 / (b_equator**2 * c_axis**2), h / b_equator**2


def harmonic_mode(grid: SphericalGrid, ell: int, m: int = 0, phase: str = "cos") -> np.ndarray:
    """Low-degree harmonic, normalized to unit sup norm on the grid.

    Axisymmetric grids use the Legendre polynomial P_ell(cos theta); full-s2
    grids use P_ell^m(cos theta) times cos(m phi) or sin(m phi).
    """
    if grid.mode == "axisym":
        if m != 0:
            raise ValueError("axisymmetric grids carry only m = 0 modes")
        y = eval_legendre(ell, grid.cos_t)
    else:
        base = lpmv(m, ell, grid.cos_t)[:, None]
        if m == 0:
            y = np.broadcast_to(base, grid.node_shape).copy()
        elif phase == "cos":
            y = base * np.cos(m * grid.phi)[None, :]
        else:
            y = base * np.sin(m * grid.phi)[None, :]
    top = np.abs(y).max()
    return y / top if top > 0 else y


def _mode_bank(grid: SphericalGrid, lmax: int):
    modes = []
    for ell in range(1, lmax + 1):
        if grid.mode == "axisym":
            modes.append(harmonic_mode(grid, ell))
        else:
            for m in range(0, ell + 1):
                modes.append(harmonic_mode(grid, ell, m, "cos"))
                if m > 0:
                    modes.append(harmonic_mode(grid, ell, m, "sin"))
    return modes


# rejection-sampling budget of the random generators
_MAX_TRIES = 100


@functools.lru_cache(maxsize=8)
def _convexity_normalized_modes(grid: SphericalGrid, lmax: int):
    """Modes scaled so a unit coefficient perturbs the curvature radii by <= 1.

    The radii of h = 1 + sum a_i Y_i are the eigenvalues of
    I + sum a_i (hess Y_i + Y_i I); normalizing each mode by the sup of the
    eigenvalue range of (hess Y + Y I) keeps coefficient budgets meaningful
    for convexity filtering.  Cached per (grid, lmax); equal grids share an
    entry.
    """
    scaled = []
    for y in _mode_bank(grid, lmax):
        hess = grid.hessian_components(y)
        if grid.mode == "axisym":
            bound = max(np.abs(hess[0] + y).max(), np.abs(hess[1] + y).max())
        else:
            mean = 0.5 * (hess[0] + hess[2]) + y
            disc = np.sqrt(0.25 * (hess[0] - hess[2]) ** 2 + hess[1] ** 2)
            bound = max(np.abs(mean + disc).max(), np.abs(mean - disc).max())
        scaled.append(y / max(bound, 1.0))
    return tuple(scaled)


def random_starshaped(
    grid: SphericalGrid,
    rng: np.random.Generator,
    amp: float,
    base: float = 1.0,
    lmax: int = 4,
) -> ScalarField:
    """Seeded random starshaped surface r = base (1 + sum a_i Y_i), a_i ~ U[-amp, amp].

    Rejection-resamples until the surface is starshaped (and its geometry
    builds); recentring subtracts the first-order translation <c, xi> of the
    area-weighted centroid twice, an O(amp^3) Steiner-point approximation.
    """
    modes = _mode_bank(grid, lmax)
    for _ in range(_MAX_TRIES):
        coeff = rng.uniform(-amp, amp, size=len(modes))
        r = base * (1.0 + sum(a * y for a, y in zip(coeff, modes)))
        if r.min() <= 0.05 * base:
            continue
        field = ScalarField(grid, r)
        try:
            geom = radial_geometry(field)
        except (NotStarshaped, ConvexityLost):
            continue
        for _ in range(12):
            c = centroid(geom)
            if float(np.max(np.abs(c))) < 1e-9 * base:
                break
            if grid.mode == "full-s2":
                shift = grid.xi() @ np.asarray(c)
            else:
                shift = c * grid.cos_t
            r = field.values - shift
            if r.min() <= 0.05 * base:
                break
            field = ScalarField(grid, r)
            geom = radial_geometry(field)
        if field.values.min() > 0.05 * base:
            return field
    raise NotStarshaped(f"no valid starshaped sample after {_MAX_TRIES} tries")


def random_convex_support(
    grid: SphericalGrid,
    rng: np.random.Generator,
    amp: float,
    base: float = 1.0,
    lmax: int = 4,
) -> ScalarField:
    """Seeded random strictly convex body via its support function.

    Modes are convexity-normalized (see _convexity_normalized_modes), so at
    amp < 1 most draws remain strictly convex; draws that still fail the
    convexity filter, before or after recentring at the centroid, are
    resampled.
    """
    modes = _convexity_normalized_modes(grid, lmax)
    for _ in range(_MAX_TRIES):
        coeff = rng.uniform(-amp, amp, size=len(modes))
        h = base * (1.0 + sum(a * y for a, y in zip(coeff, modes)))
        field = ScalarField(grid, h)
        try:
            geom = support_geometry(field)
        except ConvexityLost:
            continue
        c = centroid(geom)
        if grid.mode == "full-s2":
            h = h - grid.xi() @ np.asarray(c)
        else:
            h = h - c * grid.cos_t
        field = ScalarField(grid, h)
        try:
            support_geometry(field)
        except ConvexityLost:
            continue
        if h.min() <= 0.0:
            continue
        return field
    raise ConvexityLost(f"no valid convex sample after {_MAX_TRIES} tries")
