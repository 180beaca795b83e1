"""Extrinsic geometry of starshaped and strictly convex hypersurfaces.

Two parametrizations of a closed hypersurface M in R^(n+1) are supported:

* radial graph: M = {r(xi) xi : xi in S^n} with induced metric
  g_ij = r^2 e_ij + (grad r)_i (grad r)_j and second fundamental form
  h_ij = (r^2 e_ij + 2 (grad r)_i (grad r)_j - r hess(r)_ij) / sqrt(r^2 + |grad r|^2),

* inverse Gauss map: X(nu) = h(nu) nu + grad h(nu) for a support function h,
  with principal curvature radii the eigenvalues of b = hess(h) + h e.

Principal curvatures of the radial graph come from the symmetric matrix
lambda = g^(-1/2) h g^(-1/2), with the inverse square root in closed form

    g^(-1/2) = r^(-1) [e - grad r x grad r / (rho (rho + r))],  rho = sqrt(r^2 + |grad r|^2),

which squares exactly to g^(-1).  Everything is evaluated per node in the
orthonormal frame of the round metric, so e_ij = delta_ij throughout.

The inverse metric is kept as components g^ij that match the gradient tuple
of SphericalGrid.gradient, (g^11,) on axisymmetric grids and the symmetric
2x2 on full-s2 ones: (delta_ij - d_i d_j / rho^2) / r^2 for the radial graph
and b^(-2) for the support parametrization.  |grad^M f|^2 is then one
quadratic form for both parametrizations and both grid modes.  Ambient
vectors (position, normal) come from the grid's embedding, xi() and frame().

Every surface here has two distinct principal values per node, of
multiplicities 1 and n - 1 (the 2x2 eigenvalues on full-s2 grids, the
meridional and azimuthal values on axisymmetric ones).  _radial_pair and
_support_radii compute that pair once per parametrization for both grid
modes, from one derivative pass; _radial_field and _support_field finish a
CurvatureField from it, so the flow kernels can build the pair once and
reuse it for the speed, the assessment and the diagnostic row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    ConvexityLost,
    DegenerateMetric,
    NonpositiveSupport,
    NotStarshaped,
    ZeroMeanCurvature,
)
from .sphere_grid import ScalarField, SphericalGrid
from .symfunc import sigma_pair

__all__ = [
    "CurvatureField",
    "StaticConvexityReport",
    "radial_geometry",
    "support_geometry",
    "static_convexity",
    "sphericity",
    "centroid",
]


@dataclass(frozen=True)
class CurvatureField:
    """Per-node extrinsic geometry of a hypersurface.

    The principal curvatures are the pair ``kappa1`` (multiplicity 1) and
    ``kappa2`` (multiplicity n - 1); on full-s2 grids they are the two
    eigenvalues, on axisymmetric ones the meridional and azimuthal values.
    ``area_factor`` is the area element relative to the grid quadrature
    weight, so that surface integrals are ``grid.integrate(density *
    area_factor)``.  ``normal`` and ``position`` are ambient vectors: (..., 3)
    on full-s2 grids and (N, 2) meridian components (orbit direction,
    symmetry axis) on axisymmetric ones.  ``inverse_metric`` holds the rows
    of g^ij in the components of ``grad``.
    """

    grid: SphericalGrid
    kind: str  # 'radial' | 'support'
    n: int
    scalar: np.ndarray          # defining field (r or h) at the nodes
    grad: tuple                 # orthonormal-frame gradient of the scalar
    kappa1: np.ndarray
    kappa2: np.ndarray
    area_factor: np.ndarray
    support: np.ndarray         # <X, nu> per node
    normal: np.ndarray
    position: np.ndarray
    inverse_metric: tuple = dataclass_field(repr=False)

    @property
    def kappa(self) -> np.ndarray:
        """(..., n) principal curvatures, ascending."""
        parts = [self.kappa1] + [self.kappa2] * (self.n - 1)
        return np.sort(np.stack(parts, axis=-1), axis=-1)

    @property
    def H(self) -> np.ndarray:
        """Mean curvature, the sum of the principal curvatures."""
        return self.kappa1 + (self.n - 1) * self.kappa2

    @property
    def A2(self) -> np.ndarray:
        """|A|^2, the sum of the squared principal curvatures."""
        return self.kappa1**2 + (self.n - 1) * self.kappa2**2

    @property
    def sigma(self) -> list:
        """[sigma_0, ..., sigma_n] of the principal curvatures, per node."""
        return sigma_pair(self.kappa1, self.kappa2, self.n)

    def tangential_grad_sq(self, grad_f) -> np.ndarray:
        """|grad^M f|^2 = g^{ij} (grad f)_i (grad f)_j from frame components.

        ``grad_f`` are the parameter-sphere frame components of the gradient
        of f, as returned by ``SphericalGrid.gradient``.
        """
        out = 0.0
        for row, a_i in zip(self.inverse_metric, grad_f):
            for g_ij, a_j in zip(row, grad_f):
                out = out + g_ij * a_i * a_j
        return out

    def total_area(self) -> float:
        return self.grid.integrate(self.area_factor)

    def volume(self) -> float:
        """Volume of the enclosed domain.

        Radial bodies use the cone formula (1/(n+1)) int r^(n+1); support
        bodies the divergence identity (n+1) Vol = int <X, nu> dmu.
        """
        if self.kind == "radial":
            return self.grid.integrate(self.scalar ** (self.n + 1)) / (self.n + 1)
        return self.grid.integrate(self.support * self.area_factor) / (self.n + 1)

    def radius_stats(self) -> tuple[float, float]:
        """(min, max) of |X| over the surface."""
        rr = np.sqrt(np.sum(self.position**2, axis=-1))
        return float(rr.min()), float(rr.max())


@dataclass(frozen=True)
class StaticConvexityReport:
    """Pointwise margin of h_ij - h^(-1) g_ij >= 0 in a g-orthonormal frame.

    The eigenvalues of that tensor are kappa_i - 1/h, so the node margin is
    kappa_min - 1/h and the global margin its minimum.  margin >= 0 certifies
    static convexity; for any smooth body other than an origin-centred sphere
    the margin is strictly negative (take the g-trace and integrate: the
    Minkowski identity forces the trace integral to zero, so a nonnegative
    margin pins the body to the round equality case).
    """

    margin: float
    node_margins: np.ndarray


def _eig2(a11, a12, a22):
    """Eigenvalues (lower, upper) of symmetric 2x2 matrices, in closed form."""
    mean = 0.5 * (a11 + a22)
    disc = np.sqrt(0.25 * (a11 - a22) ** 2 + a12**2)
    return mean - disc, mean + disc


def _check_starshaped(r: np.ndarray):
    """Raise DegenerateMetric on non-finite and NotStarshaped on nonpositive radii."""
    lo, hi = float(r.min()), float(r.max())  # NaN when an entry is NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DegenerateMetric("radial function has non-finite entries")
    if lo <= 0.0:
        raise NotStarshaped(f"radial function must be positive; min r = {lo:.6g}")


def _radial_pair(grid: SphericalGrid, r: np.ndarray):
    """Principal curvature pair of the radial graph r(xi) xi.

    Returns (kappa1, kappa2, rho, grad) with rho = sqrt(r^2 + |grad r|^2) and
    grad the orthonormal-frame gradient of r.  Axisymmetric grids give the
    meridional curvature and the (n-1)-fold azimuthal one; full-s2 grids the
    eigenvalues of lambda = g^(-1/2) h g^(-1/2), ascending.  r may be a
    stack of radial functions along a leading axis, as for
    SphericalGrid._derivatives; a bad radius in any of them raises.
    """
    _check_starshaped(r)
    grad, hess = grid._derivatives(r)
    if grid.mode == "axisym":
        (r1,), (r2, _) = grad, hess
        q = r1 * r1
        rho2 = r * r + q
        rho = np.sqrt(rho2)
        kap_m = (r * r + 2.0 * q - r * r2) / (rho2 * rho)
        kap_a = (1.0 - (r1 / r) * grid.cot_t) / rho
        return kap_m, kap_a, rho, (r1,)

    d1, d2 = grad
    h11, h12, h22 = hess
    rho = np.sqrt(r * r + (d1 * d1 + d2 * d2))

    # second fundamental form (orthonormal frame of the round metric)
    b11 = (r * r + 2.0 * d1 * d1 - r * h11) / rho
    b12 = (2.0 * d1 * d2 - r * h12) / rho
    b22 = (r * r + 2.0 * d2 * d2 - r * h22) / rho

    # lambda = S b S with S = g^(-1/2) = a I + c (dr x dr)
    a = 1.0 / r
    c = -1.0 / (r * rho * (rho + r))
    w1 = b11 * d1 + b12 * d2
    w2 = b12 * d1 + b22 * d2
    dw = d1 * w1 + d2 * w2
    l11 = a * a * b11 + 2.0 * a * c * d1 * w1 + c * c * dw * d1 * d1
    l12 = a * a * b12 + a * c * (d1 * w2 + d2 * w1) + c * c * dw * d1 * d2
    l22 = a * a * b22 + 2.0 * a * c * d2 * w2 + c * c * dw * d2 * d2
    kap_lo, kap_hi = _eig2(l11, l12, l22)
    return kap_lo, kap_hi, rho, (d1, d2)


def _plus_ambient(start, grid: SphericalGrid, grad) -> np.ndarray:
    """start + sum_i d_i e_i for gradient components d_i and grid.frame() e_i.

    The terms are added one at a time in frame order; that order fixes the
    round-off of the positions the trace artefacts record.
    """
    for d, e in zip(grad, grid.frame()):
        start = start + d[..., None] * e
    return start


def _radial_first_order(grid: SphericalGrid, r: np.ndarray, rho: np.ndarray):
    """(area_factor, position) of the radial graph r(xi) xi.

    The area element r^(n-1) rho and the position r xi need only r and
    rho = sqrt(r^2 + |grad r|^2), no curvature.
    """
    return r ** (grid.n - 1) * rho, r[..., None] * grid.xi()


def _radial_field(grid: SphericalGrid, r: np.ndarray, pair) -> CurvatureField:
    """Full extrinsic geometry of r(xi) xi from its _radial_pair result."""
    n = grid.n
    kappa1, kappa2, rho, grad = pair
    area_factor, position = _radial_first_order(grid, r, rho)
    support = r * r / rho
    normal = (position - _plus_ambient(0.0, grid, grad)) / rho[..., None]
    rho2 = rho * rho
    inverse_metric = tuple(
        tuple((float(i == j) - d_i * d_j / rho2) / (r * r) for j, d_j in enumerate(grad))
        for i, d_i in enumerate(grad)
    )
    return CurvatureField(
        grid, "radial", n, r, grad, kappa1, kappa2, area_factor, support,
        normal, position, inverse_metric,
    )


def radial_geometry(field: ScalarField) -> CurvatureField:
    """Full extrinsic geometry of the starshaped graph r(xi) xi."""
    return _radial_field(field.grid, field.values, _radial_pair(field.grid, field.values))


def _support_radii(grid: SphericalGrid, h: np.ndarray):
    """Principal radii of curvature of the body with support function h.

    The radii are the eigenvalues of b = hess(h) + h e.  Returns
    (rho1, rho2, b, grad): rho1 has multiplicity 1 and rho2 multiplicity
    n - 1 (axisymmetric grids: meridional and azimuthal, b = (rho1, rho2));
    on full-s2 grids they are the eigenvalues ascending and b holds the
    frame components (b11, b12, b22).  grad is the orthonormal-frame
    gradient of h, from the same derivative pass as the Hessian.  h may be
    a stack of support functions along a leading axis, as for
    SphericalGrid._derivatives; each is checked against its own scale.
    """
    # one scale per support function; NaN or inf when an entry is not finite
    scale = np.abs(h).reshape(-1, math.prod(grid.node_shape)).max(axis=1)
    if not np.isfinite(scale).all():
        raise DegenerateMetric("support function has non-finite entries")
    grad, hess = grid._derivatives(h)
    if grid.mode == "axisym":
        b = (hess[0] + h, hess[1] + h)
        rho1, rho2 = b
    else:
        b = (hess[0] + h, hess[1], hess[2] + h)
        rho1, rho2 = _eig2(*b)
    rho_min = np.minimum(*(rho.reshape(scale.shape + (-1,)).min(axis=1) for rho in (rho1, rho2)))
    if (rho_min <= 1e-10 * (1.0 + scale)).any():
        raise ConvexityLost(
            f"support Hessian b lost positivity (min radius {rho_min.min():.6g})"
        )
    return rho1, rho2, b, grad


def _support_field(grid: SphericalGrid, h: np.ndarray, radii) -> CurvatureField:
    """Extrinsic geometry of the body with support function h from its _support_radii result."""
    n = grid.n
    rho1, rho2, b, grad = radii
    area_factor = rho1 * rho2 ** (n - 1)
    normal = grid.xi()
    position = _plus_ambient(h[..., None] * normal, grid, grad)
    # g^(-1) = b^(-2); b is diagonal with entry rho1 on axisymmetric grids
    if grid.mode == "axisym":
        inverse_metric = ((1.0 / rho1**2,),)
    else:
        b11, b12, b22 = b
        det2 = area_factor * area_factor
        off = -b12 * (b11 + b22) / det2
        inverse_metric = ((b22 * b22 + b12 * b12) / det2, off), (off, (b11 * b11 + b12 * b12) / det2)
    return CurvatureField(
        grid, "support", n, h, grad, 1.0 / rho1, 1.0 / rho2, area_factor, h,
        normal, position, inverse_metric,
    )


def support_geometry(field: ScalarField) -> CurvatureField:
    """Extrinsic geometry of a strictly convex body from its support function."""
    return _support_field(field.grid, field.values, _support_radii(field.grid, field.values))


def static_convexity(field: CurvatureField) -> StaticConvexityReport:
    """Margin of the static-convexity tensor h_ij - h^(-1) g_ij.

    In a g-orthonormal frame the tensor has eigenvalues kappa_i - 1/h, so the
    report carries min_i kappa_i - 1/h per node and the global minimum.
    """
    h = field.support
    if h.min() <= 0.0:
        raise NonpositiveSupport(
            f"support value must be positive everywhere (min {h.min():.6g})"
        )
    node_margins = np.minimum(field.kappa1, field.kappa2) - 1.0 / h
    return StaticConvexityReport(margin=float(node_margins.min()), node_margins=node_margins)


def sphericity(field: CurvatureField) -> float:
    """Umbilicity defect max(n |A|^2 / H^2 - 1); zero exactly on round spheres."""
    scale = 1.0 + float(np.maximum(np.abs(field.kappa1).max(), np.abs(field.kappa2).max()))
    H = field.H
    if np.any(np.abs(H) <= 1e-15 * scale):
        raise ZeroMeanCurvature("mean curvature vanishes at a node")
    return float(np.max(field.n * field.A2 / H**2 - 1.0))


def centroid(field: CurvatureField | ScalarField):
    """Area-weighted centroid of the surface (Steiner point approximation).

    ``field`` is a CurvatureField, or a ScalarField read as a radial function
    r, whose centroid is formed from r and one gradient without curvature.
    Returns a 3-vector on full-s2 grids.  On axisymmetric grids the orbit
    components vanish by symmetry and the axis component is returned alone.
    """
    grid = field.grid
    if isinstance(field, ScalarField):
        r = field.values
        rho = np.sqrt(r * r + sum(d * d for d in grid.gradient(r)))
        area_factor, position = _radial_first_order(grid, r, rho)
    else:
        area_factor, position = field.area_factor, field.position
    w = grid.weights * area_factor
    area = np.sum(w)
    if grid.mode == "full-s2":
        return np.asarray([float(np.sum(w * position[..., i])) for i in range(3)]) / area
    return float(np.sum(w * position[..., 1]) / area)
