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
unit sphere with coefficients drawn uniformly from [-amp, amp] and rejection
sampled against the geometric validity predicate.  A draw is one product of
its coefficients with separable theta and phi tables.  Origin-dependent
quantities need one fixed centring rule: a radial body is centred by drawing
no degree-1 term (its degree-1 coefficients are drawn and set to 0, so the
rng stream is that of a full draw), and a convex body is recentred at its
area-weighted centroid by one Steiner step.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvexityLost, NotStarshaped
from .geometry import _principal_radii, centroid, support_geometry
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


def _check_positive(*sizes, amp=0.0, lmax=1, lmin=1):
    """ValueError unless each (name, size) is positive, since a negative axis would be squared
    into its mirror body, amp is finite and >= 0 (0 draws the sphere) and lmax an integer >= lmin."""
    for name, value in sizes:
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    if not 0.0 <= amp < np.inf:
        raise ValueError(f"amp must be finite and >= 0, got {amp!r}")
    if isinstance(lmax, bool) or not isinstance(lmax, (int, np.integer)) or lmax < lmin:
        raise ValueError(f"lmax must be an integer >= {lmin}, got {lmax!r}")


def _check_resolved(grid: SphericalGrid, name: str, degree: int):
    """ValueError when a harmonic degree exceeds n_theta: the grid cannot resolve it, and
    _legendre would take one pass per degree up to it."""
    if degree > grid.n_theta:
        raise ValueError(f"{name} = {degree} exceeds n_theta = {grid.n_theta}, the highest degree the grid resolves")


def sphere_radial(grid: SphericalGrid, radius: float = 1.0, center=None) -> ScalarField:
    """Radial function of a sphere, optionally off-centre (|center| < radius).

    ``center`` is a 3-vector on full-s2 grids or an axis offset (scalar) on
    axisymmetric grids (see SphericalGrid.project).
    """
    _check_positive(("radius", radius))
    if center is None:
        return ScalarField(grid, np.full(grid.node_shape, float(radius)))
    proj = grid.project(center)
    c = np.ravel(center).astype(float)
    c2 = float(c @ c)
    if c2 >= radius**2:
        raise NotStarshaped("center must lie strictly inside the sphere")
    return ScalarField(grid, proj + np.sqrt(radius**2 - c2 + proj**2))


def sphere_support(grid: SphericalGrid, radius: float = 1.0, center=None) -> ScalarField:
    """Support function of a sphere: h = R + <center, nu>."""
    _check_positive(("radius", radius))
    h = np.full(grid.node_shape, float(radius))
    if center is not None:
        h = h + grid.project(center)
    return ScalarField(grid, h)


def spheroid_radial(grid: SphericalGrid, c_axis: float, b_equator: float) -> ScalarField:
    """Radial function of the spheroid with polar semi-axis c, equatorial b."""
    _check_positive(("c_axis", c_axis), ("b_equator", b_equator))
    r = 1.0 / np.sqrt(grid.sin_t**2 / b_equator**2 + grid.cos_t**2 / c_axis**2)
    return ScalarField(grid, grid.zonal(r))


def spheroid_support(grid: SphericalGrid, c_axis: float, b_equator: float) -> ScalarField:
    """Support function of the same spheroid, h(nu) = sqrt(c^2 nu_z^2 + b^2 |nu_perp|^2)."""
    _check_positive(("c_axis", c_axis), ("b_equator", b_equator))
    h = np.sqrt(c_axis**2 * grid.cos_t**2 + b_equator**2 * grid.sin_t**2)
    return ScalarField(grid, grid.zonal(h))


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
    grids use P_ell^m(cos theta), with the Condon-Shortley phase (-1)^m, times
    cos(m phi) or sin(m phi) (see _legendre).
    A non-integer degree or order, a degree above grid.n_theta, an order m
    outside 0..ell or a phase other than "cos"/"sin" raises ValueError.
    """
    for name, value in (("degree ell", ell), ("order m", m)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"harmonic {name} must be an integer, got {value!r}")
    _check_resolved(grid, "harmonic degree ell", ell)
    if not 0 <= m <= ell:
        raise ValueError(f"harmonic order m = {m} must lie in 0..ell = {ell}")
    if phase not in ("cos", "sin"):
        raise ValueError(f"harmonic phase must be 'cos' or 'sin', got {phase!r}")
    if grid.mode == "axisym" and m != 0:
        raise ValueError("axisymmetric grids carry only m = 0 modes")
    y = _legendre(grid, ell, m)
    if grid.mode == "full-s2":
        trig = np.sin if m and phase == "sin" else np.cos  # m = 0 is zonal for either phase
        y = y[:, None] * trig(m * grid.phi)[None, :]
    return _unit_sup(y)


def _legendre(grid: SphericalGrid, ell: int, m: int) -> np.ndarray:
    """P_ell^m(cos theta) on the grid's rows: P_m^m = (-1)^m (2m - 1)!! sin^m theta, then upward in ell."""
    prev, y = 0.0, (-1.0) ** m * np.prod(np.arange(1.0, 2 * m, 2)) * grid.sin_t**m
    for k in range(m + 1, ell + 1):
        prev, y = y, ((2 * k - 1) * grid.cos_t * y - (k + m - 1) * prev) / (k - m)
    return y


def _unit_sup(y: np.ndarray) -> np.ndarray:
    top = np.abs(y).max()
    return y / top if top > 0 else y


@functools.lru_cache(maxsize=8)
def _mode_tables(grid: SphericalGrid, lmax: int):
    """Read-only (theta, phi) tables, cached per (grid, lmax): harmonic mode i of degree 1..lmax is
    unit-sup P_ell^m row theta[i] (x) unit-sup cos/sin(m phi) row phi[i] to round-off, or theta[i]
    with harmonic_mode's bits on axisymmetric grids, which carry m = 0 alone (phi is None)."""
    full = grid.mode != "axisym"
    args = [(ell, m, phase) for ell in range(1, lmax + 1) for m in range(full * ell + 1)
            for phase in ("cos", "sin")[: 1 + (m > 0)]]
    theta = np.empty((len(args), grid.n_theta))
    for row, (ell, m, _) in zip(theta, args):  # filled in place: no second copy of the table
        row[...] = _unit_sup(_legendre(grid, ell, m))
    theta.flags.writeable = False
    if not full:
        return theta, None
    phi = np.array([_unit_sup((np.sin if phase == "sin" else np.cos)(m * grid.phi)) for _, m, phase in args])
    phi.flags.writeable = False
    return theta, phi


@functools.lru_cache(maxsize=8)
def _convexity_scales(grid: SphericalGrid, lmax: int) -> np.ndarray:
    """Per-mode divisors max(1, sup |radii of hess Y + Y I|), read-only and cached like the tables: the
    radii of h = 1 + sum a_i Y_i are the eigenvalues of I + sum a_i (hess Y_i + Y_i I), so a unit
    scaled coefficient moves them by <= 1 and amp keeps its meaning for convexity filtering."""
    theta, phi = _mode_tables(grid, lmax)
    modes = theta if phi is None else map(np.outer, theta, phi)  # one mode at a time
    scales = np.maximum([max(np.abs(rho).max() for rho in _principal_radii(grid, y)[:2]) for y in modes], 1.0)
    scales.flags.writeable = False
    return scales


# rejection-sampling budget of the random generators
_MAX_TRIES = 100


def _draws(grid: SphericalGrid, rng: np.random.Generator, amp: float, base: float, lmax: int, convex=False):
    """_MAX_TRIES bodies base (1 + sum a_i Y_i), a_i ~ U[-amp, amp] over _convexity_scales if convex,
    each the coefficient-weighted theta table times the phi table: one (n_theta x L)(L x n_phi) product.
    A radial body is centred: its degree-1 coefficients, the tables' first 1 (axisym) or 3 rows, are
    drawn and then set to 0, so it needs lmax >= 2 to be other than the sphere.  On axisym grids with
    n >= 3 the odd Legendre rows of degree >= 3 are not harmonics of S^n and keep a degree-1 part."""
    _check_positive(("base radius", base), amp=amp, lmax=lmax, lmin=1 if convex else 2)
    _check_resolved(grid, "lmax", lmax)
    theta, phi = _mode_tables(grid, lmax)
    scales = _convexity_scales(grid, lmax) if convex else 1.0
    for _ in range(_MAX_TRIES):
        coeff = rng.uniform(-amp, amp, size=len(theta)) / scales
        if not convex:
            coeff[: 1 if phi is None else 3] = 0.0
        yield base * (1.0 + (coeff @ theta if phi is None else (theta.T * coeff) @ phi))


def random_starshaped(grid: SphericalGrid, rng: np.random.Generator, amp: float,
                      base: float = 1.0, lmax: int = 4) -> ScalarField:
    """Seeded random starshaped surface r = base (1 + sum a_i Y_i), a_i ~ U[-amp, amp].

    Centred: the degree-1 coefficients are drawn and set to 0 (see _draws).
    Rejection-resamples the coefficients until min r > 0.05 base.  base must
    be positive, amp finite and >= 0 and lmax an integer in 2..grid.n_theta,
    since a body of degree 1 alone would be the base sphere whatever the seed.
    """
    for r in _draws(grid, rng, amp, base, lmax):
        if r.min() > 0.05 * base:
            return ScalarField(grid, r)
    raise NotStarshaped(f"no valid starshaped sample after {_MAX_TRIES} tries")


def random_convex_support(grid: SphericalGrid, rng: np.random.Generator, amp: float,
                          base: float = 1.0, lmax: int = 4) -> ScalarField:
    """Seeded random strictly convex body via its support function.

    Coefficients are convexity-normalized (see _convexity_scales), so at
    amp < 1 most draws remain strictly convex; draws that still fail the
    convexity filter, before or after recentring at the centroid, are
    resampled.  base must be positive, amp finite and >= 0 and lmax an integer
    in 1..grid.n_theta.
    """
    for h in _draws(grid, rng, amp, base, lmax, convex=True):
        try:
            h = h - grid.project(centroid(support_geometry(ScalarField(grid, h))))
            field = ScalarField(grid, h)
            support_geometry(field)
        except ConvexityLost:
            continue
        if h.min() > 0.0:
            return field
    raise ConvexityLost(f"no valid convex sample after {_MAX_TRIES} tries")
