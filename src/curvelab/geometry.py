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

Every surface here has two distinct principal values per node, of
multiplicities 1 and n - 1 (the 2x2 eigenvalues on full-s2 grids, the
meridional and azimuthal values on axisymmetric ones).  _radial_pair and
_support_radii compute that pair once per parametrization for both grid
modes; the geometry pipelines and the flow kernels build on them.
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
    "radial_mean_curvature_direct",
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
    symmetry axis) on axisymmetric ones.
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
    _metric_data: tuple = dataclass_field(repr=False, default=())

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
        if self.kind == "radial":
            if self.grid.mode == "axisym":
                (rho,) = self._metric_data
                return grad_f[0] ** 2 / rho**2
            i11, i12, i22 = self._metric_data
            g1, g2 = grad_f
            return i11 * g1**2 + 2.0 * i12 * g1 * g2 + i22 * g2**2
        # support parametrization: g^{-1} = b^{-1} e b^{-1}
        if self.grid.mode == "axisym":
            rho_m, rho_a = self._metric_data
            out = (grad_f[0] / rho_m) ** 2
            if len(grad_f) > 1:
                out = out + (grad_f[1] / rho_a) ** 2
            return out
        b11, b12, b22, det = self._metric_data
        g1, g2 = grad_f
        w1 = (b22 * g1 - b12 * g2) / det
        w2 = (-b12 * g1 + b11 * g2) / det
        return w1**2 + w2**2

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

    def radius_stats(self) -> tuple[float, float, float]:
        """(min, max, area-weighted mean) of |X| over the surface."""
        rr = np.sqrt(np.sum(self.position**2, axis=-1))
        w = self.grid.weights * self.area_factor
        return float(rr.min()), float(rr.max()), float(np.sum(w * rr) / np.sum(w))

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "kappa_min": float(self.kappa.min()),
            "kappa_max": float(self.kappa.max()),
            "H_min": float(self.H.min()),
            "H_max": float(self.H.max()),
            "support_min": float(self.support.min()),
            "support_max": float(self.support.max()),
            "area": self.total_area(),
            "volume": self.volume(),
        }


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
    worst_node: tuple
    node_margins: np.ndarray


def _eig2(a11, a12, a22):
    """Eigenvalues (lower, upper) of symmetric 2x2 matrices, in closed form."""
    mean = 0.5 * (a11 + a22)
    disc = np.sqrt(0.25 * (a11 - a22) ** 2 + a12**2)
    return mean - disc, mean + disc


def _radial_pair(grid: SphericalGrid, r: np.ndarray):
    """Principal curvature pair of the radial graph r(xi) xi.

    Returns (kappa1, kappa2, rho, grad) with rho = sqrt(r^2 + |grad r|^2) and
    grad the orthonormal-frame gradient of r.  Axisymmetric grids give the
    meridional curvature and the (n-1)-fold azimuthal one; full-s2 grids the
    eigenvalues of lambda = g^(-1/2) h g^(-1/2), ascending.
    """
    if not np.all(np.isfinite(r)):
        raise DegenerateMetric("radial function has non-finite entries")
    if r.min() <= 0.0:
        raise NotStarshaped(
            f"radial function must be positive; min r = {r.min():.6g}"
        )
    if grid.mode == "axisym":
        r1 = grid.d_theta(r)
        r2 = grid.d2_theta(r)
        q = r1 * r1
        rho2 = r * r + q
        rho = np.sqrt(rho2)
        kap_m = (r * r + 2.0 * q - r * r2) / (rho2 * rho)
        kap_a = (1.0 - (r1 / r) * grid.cot_t) / rho
        return kap_m, kap_a, rho, (r1,)

    d1, d2 = grid.gradient(r)
    h11, h12, h22 = grid.hessian_components(r)
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


def radial_geometry(field: ScalarField) -> CurvatureField:
    """Full extrinsic geometry of the starshaped graph r(xi) xi."""
    grid = field.grid
    r = field.values
    n = grid.n
    kappa1, kappa2, rho, grad = _radial_pair(grid, r)
    area_factor = r ** (n - 1) * rho
    support = r * r / rho
    position = r[..., None] * grid.xi()

    if grid.mode == "axisym":
        (r1,) = grad
        normal = np.stack(
            [(r * grid.sin_t - r1 * grid.cos_t) / rho, (r * grid.cos_t + r1 * grid.sin_t) / rho],
            axis=-1,
        )
        metric = (rho,)
    else:
        d1, d2 = grad
        e_theta, e_phi = grid.frame()
        grad_ambient = d1[..., None] * e_theta + d2[..., None] * e_phi
        normal = (position - grad_ambient) / rho[..., None]
        # inverse metric components for tangential gradients
        rho2 = rho * rho
        metric = (
            (1.0 - d1 * d1 / rho2) / (r * r),
            (-d1 * d2 / rho2) / (r * r),
            (1.0 - d2 * d2 / rho2) / (r * r),
        )
    return CurvatureField(
        grid, "radial", n, r, grad, kappa1, kappa2, area_factor, support,
        normal, position, _metric_data=metric,
    )


def radial_mean_curvature_direct(field: ScalarField) -> np.ndarray:
    """Mean curvature via the scalar log-radial formula.

    With omega = log r,

        H = (n - (e^{ij} - grad^i omega grad^j omega / (1 + |grad omega|^2))
             hess(omega)_ij) / (r sqrt(1 + |grad omega|^2)),

    an independent algebraic route to the eigenvalue sum of radial_geometry.
    """
    grid = field.grid
    r = field.values
    n = grid.n
    if r.min() <= 0.0:
        raise NotStarshaped("radial function must be positive")
    grad_r = grid.gradient(r)
    hess_r = grid.hessian_components(r)
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


def _support_radii(grid: SphericalGrid, h: np.ndarray):
    """Principal radii of curvature of the body with support function h.

    The radii are the eigenvalues of b = hess(h) + h e.  Returns
    (rho1, rho2, b): rho1 has multiplicity 1 and rho2 multiplicity n - 1
    (axisymmetric grids: meridional and azimuthal, b = (rho1, rho2));
    on full-s2 grids they are the eigenvalues ascending and b holds the
    frame components (b11, b12, b22).
    """
    scale = float(np.abs(h).max())  # NaN or inf when an entry is not finite
    if not math.isfinite(scale):
        raise DegenerateMetric("support function has non-finite entries")
    hess = grid.hessian_components(h)
    if grid.mode == "axisym":
        b = (hess[0] + h, hess[1] + h)
        rho1, rho2 = b
    else:
        b = (hess[0] + h, hess[1], hess[2] + h)
        rho1, rho2 = _eig2(*b)
    eps = 1e-10 * (1.0 + scale)
    rho_min = min(float(rho1.min()), float(rho2.min()))
    if rho_min <= eps:
        raise ConvexityLost(
            f"support Hessian b lost positivity (min radius {rho_min:.6g})"
        )
    return rho1, rho2, b


def support_geometry(field: ScalarField) -> CurvatureField:
    """Extrinsic geometry of a strictly convex body from its support function."""
    grid = field.grid
    h = field.values
    n = grid.n
    rho1, rho2, b = _support_radii(grid, h)
    grad = grid.gradient(h)
    area_factor = rho1 * rho2 ** (n - 1)
    normal = grid.xi()
    if grid.mode == "axisym":
        (h1,) = grad
        position = np.stack(
            [h * grid.sin_t + h1 * grid.cos_t, h * grid.cos_t - h1 * grid.sin_t], axis=-1
        )
        metric = b
    else:
        d1, d2 = grad
        e_theta, e_phi = grid.frame()
        position = h[..., None] * normal + d1[..., None] * e_theta + d2[..., None] * e_phi
        metric = b + (area_factor,)
    return CurvatureField(
        grid, "support", n, h, grad, 1.0 / rho1, 1.0 / rho2, area_factor, h,
        normal, position, _metric_data=metric,
    )


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
    worst = np.unravel_index(int(np.argmin(node_margins)), node_margins.shape)
    return StaticConvexityReport(
        margin=float(node_margins.min()),
        worst_node=worst,
        node_margins=node_margins,
    )


def sphericity(field: CurvatureField) -> float:
    """Umbilicity defect max(n |A|^2 / H^2 - 1); zero exactly on round spheres."""
    scale = 1.0 + float(np.abs((field.kappa1, field.kappa2)).max())
    H = field.H
    if np.any(np.abs(H) <= 1e-15 * scale):
        raise ZeroMeanCurvature("mean curvature vanishes at a node")
    return float(np.max(field.n * field.A2 / H**2 - 1.0))


def centroid(field: CurvatureField):
    """Area-weighted centroid of the surface (Steiner point approximation).

    Returns a 3-vector on full-s2 grids.  On axisymmetric grids the orbit
    components vanish by symmetry and the axis component is returned alone.
    """
    w = field.grid.weights * field.area_factor
    area = np.sum(w)
    if field.grid.mode == "full-s2":
        return np.asarray(
            [float(np.sum(w * field.position[..., i])) for i in range(3)]
        ) / area
    return float(np.sum(w * field.position[..., 1]) / area)
