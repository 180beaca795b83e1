"""Extrinsic geometry of starshaped and strictly convex hypersurfaces.

Two parametrizations of a closed hypersurface M in R^(n+1) are supported:

* radial graph: M = {r(xi) xi : xi in S^n} with induced metric
  g_ij = r^2 e_ij + (grad r)_i (grad r)_j and second fundamental form
  h_ij = (r^2 e_ij + 2 (grad r)_i (grad r)_j - r hess(r)_ij) / sqrt(r^2 + |grad r|^2),

* inverse Gauss map: X(nu) = h(nu) nu + grad h(nu) for a support function h,
  with principal curvature radii the eigenvalues of b = hess(h) + h e.

Principal curvatures of the radial graph are the eigenvalues of the shape
operator g^(-1) h.  With d = grad r and rho = sqrt(r^2 + |d|^2),
g^(-1) = (e - d x d / rho^2) / r^2, so g^(-1) h = a / r^2 with

    a = h - d (h d)^T / rho^2,

whose eigenvalues are real (g^(-1) h is similar to the symmetric
g^(-1/2) h g^(-1/2)) and closed-form in its trace and determinant.
Everything is evaluated per node in the orthonormal frame of the round
metric, so e_ij = delta_ij throughout.

The inverse metric is kept as components g^ij that match the gradient tuple
of SphericalGrid.derivatives, (g^11,) on axisymmetric grids and the symmetric
2x2 on full-s2 ones: (delta_ij - d_i d_j / rho^2) / r^2 for the radial graph
and b^(-2) for the support parametrization.  |grad^M f|^2 is then one
quadratic form for both parametrizations and both grid modes.  Ambient
vectors (position, normal) come from the grid's embedding, xi and frame.

Every surface here has two distinct principal values per node, of
multiplicities 1 and n - 1 (the 2x2 eigenvalues on full-s2 grids, the
meridional and azimuthal values on axisymmetric ones), and the field's
sigma_j are symfunc's recurrence on them; H, sigma and volume are cached
properties, computed on first read and read-only.  _radial_field and
_support_field build a CurvatureField, that pair included, from one
derivative pass for both grid modes (_principal_radii is the support one's
algebra, unchecked); it is a flow kernel's build of a state, read by its
assessment, speed and diagnostic row.  A field may hold a stack of
surfaces, and static_convexity, sphericity and the field's integrals then
give one value per surface, or raise as on the surface at fault (h <= 0 at a
node, H = 0): the diagnostic rows and substep speeds each read one field of
a stack of states.
"""

from __future__ import annotations

import functools
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
from .symfunc import _sigmas

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
    """Per-node extrinsic geometry of a hypersurface, or of a stack of them.

    The principal curvatures are the pair ``kappa1`` (multiplicity 1) and
    ``kappa2`` (multiplicity n - 1); on full-s2 grids they are the two
    eigenvalues, on axisymmetric ones the meridional and azimuthal values.
    ``area_factor`` is the area element relative to the grid quadrature
    weight, so that surface integrals are ``grid.integrate(density *
    area_factor)``.  ``normal`` and ``position`` are ambient vectors: (..., 3)
    on full-s2 grids and (N, 2) meridian components (orbit direction,
    symmetry axis) on axisymmetric ones.  ``inverse_metric`` holds the rows
    of g^ij in the components of ``grad``.

    The node arrays may carry leading stack axes, one surface per index, and
    each method then gives one value per surface (a float for one surface)
    with the bits of that surface alone.  ``normal``, ``position`` and
    ``inverse_metric`` are formed on first read from ``metric_source`` (rho
    radial, b support); ``sigma``, ``H``, ``area_weights`` and the volume once.
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
    metric_source: object = dataclass_field(repr=False)

    @property
    def kappa(self) -> np.ndarray:
        """(..., n) principal curvatures, ascending."""
        parts = [self.kappa1] + [self.kappa2] * (self.n - 1)
        return np.sort(np.stack(parts, axis=-1), axis=-1)

    @functools.cached_property
    def H(self) -> np.ndarray:
        """Mean curvature, the sum of the principal curvatures; read-only."""
        return self.kappa1 + (self.n - 1) * self.kappa2

    @property
    def A2(self) -> np.ndarray:
        """|A|^2, the sum of the squared principal curvatures."""
        return self.kappa1**2 + (self.n - 1) * self.kappa2**2

    @functools.cached_property
    def sigma(self) -> list:
        """[sigma_0, ..., sigma_n] per node: symfunc's recurrence on the pair vector; read-only."""
        return _sigmas([self.kappa1] + [self.kappa2] * (self.n - 1))

    @functools.cached_property
    def area_weights(self) -> np.ndarray:
        """grid.weights * area_factor: the surface measure's node weights."""
        return self.grid.weights * self.area_factor

    def _position_components(self):
        """The ambient components of X = u xi (+ sum_i (grad u)_i e_i, support), one at a time;
        the terms are added in frame order, which fixes the round-off the artefacts record."""
        xi, frame = self.grid.xi, self.grid.frame
        for c in range(xi.shape[-1]):
            x = self.scalar * xi[..., c]
            for d, e in zip(() if self.kind == "radial" else self.grad, frame):
                x = x + d * e[..., c]
            yield x

    @functools.cached_property
    def position(self) -> np.ndarray:
        return np.stack(list(self._position_components()), axis=-1)

    @functools.cached_property
    def normal(self) -> np.ndarray:
        if self.kind == "support":
            return self.grid.xi
        tangential = sum(d[..., None] * e for d, e in zip(self.grad, self.grid.frame))
        return (self.position - tangential) / self.metric_source[..., None]

    @functools.cached_property
    def inverse_metric(self) -> tuple:
        """g^(-1): (delta_ij - d_i d_j / rho^2) / r^2 radial, b^(-2) support."""
        if self.kind == "radial":
            r, rho2 = self.scalar, self.metric_source * self.metric_source
            return tuple(
                tuple((float(i == j) - d_i * d_j / rho2) / (r * r) for j, d_j in enumerate(self.grad))
                for i, d_i in enumerate(self.grad)
            )
        if self.grid.mode == "axisym":  # b is diagonal with entry rho1
            return ((1.0 / self.metric_source[0] ** 2,),)
        b11, b12, b22 = self.metric_source
        det2 = self.area_factor * self.area_factor
        off = -b12 * (b11 + b22) / det2
        return ((b22 * b22 + b12 * b12) / det2, off), (off, (b11 * b11 + b12 * b12) / det2)

    def tangential_grad_sq(self, grad_f) -> np.ndarray:
        """|grad^M f|^2 = g^{ij} (grad f)_i (grad f)_j from frame components.

        ``grad_f`` are the parameter-sphere frame components of the gradient
        of f, as returned by ``SphericalGrid.derivatives``.
        """
        out = 0.0
        for row, a_i in zip(self.inverse_metric, grad_f):
            for g_ij, a_j in zip(row, grad_f):
                out = out + g_ij * a_i * a_j
        return out

    def total_area(self):
        return self.grid.reduce(self.area_weights)

    @functools.cached_property
    def volume(self):
        """Volume of the enclosed domain: the cone formula (1/(n+1)) int r^(n+1) for
        radial bodies, the divergence identity (n+1) Vol = int <X, nu> dmu for support ones."""
        cone = self.scalar ** (self.n + 1) if self.kind == "radial" else self.support * self.area_factor
        return self.grid.integrate(cone) / (self.n + 1)

    def radius_stats(self):
        """(min, max) of |X| over the surface; |X|^2 adds the squared
        components one at a time, the order np.sum(X**2, axis=-1) adds in."""
        rr = np.sqrt(sum(x * x for x in self._position_components()))
        return self.grid.reduce(rr, "min"), self.grid.reduce(rr, "max")


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


def _eig2(a11, a12, a21, a22):
    """Eigenvalues (lower, upper) of 2x2 matrices with a real spectrum, in closed form;
    the discriminant, ~0 at umbilic nodes, is clamped at 0 against rounding."""
    mean = 0.5 * (a11 + a22)
    disc = np.sqrt(np.maximum(0.25 * (a11 - a22) ** 2 + a12 * a21, 0.0))
    return mean - disc, mean + disc


def _check_starshaped(r: np.ndarray):
    """Raise DegenerateMetric on non-finite and NotStarshaped on nonpositive radii."""
    lo, hi = float(r.min()), float(r.max())  # NaN when an entry is NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DegenerateMetric("radial function has non-finite entries")
    if lo <= 0.0:
        raise NotStarshaped(f"radial function must be positive; min r = {lo:.6g}")


def _radial_field(grid: SphericalGrid, r: np.ndarray) -> CurvatureField:
    """Extrinsic geometry of the radial graph r(xi) xi, or of a stack r.

    Axisymmetric grids give the meridional curvature and the (n-1)-fold
    azimuthal one; full-s2 grids the eigenvalues of g^(-1) b, ascending.  r
    may be a stack of radial functions along a leading axis, as for
    SphericalGrid.derivatives; a bad radius in any of them raises.
    """
    _check_starshaped(r)
    grad, hess = grid.derivatives(r)
    r2 = r * r
    if grid.mode == "axisym":
        (r1,), (r11, _) = grad, hess
        q = r1 * r1
        rho2 = r2 + q
        rho = np.sqrt(rho2)
        kappa1 = (r2 + 2.0 * q - r * r11) / (rho2 * rho)
        kappa2 = (1.0 - (r1 / r) * grid.cot_t) / rho
        area_factor = r ** (grid.n - 1) * rho
    else:
        (d1, d2), (b11, b12, b22) = grad, hess
        q11, q12, q22 = d1 * d1, d1 * d2, d2 * d2
        rho2 = r2 + (q11 + q22)
        rho = np.sqrt(rho2)
        # Every operation below keeps the order of its formula, and writes over arrays the
        # build owns: the Hessian, then the products d_i d_j once read.  The second
        # fundamental form b_ij = (r^2 e_ij + 2 d_i d_j - r hess_ij) / rho (orthonormal frame
        # of the round metric) takes the Hessian's place; 2 d_i d_j is q_ij + q_ij, exactly.
        for b, q, diagonal in ((b11, q11, True), (b12, q12, False), (b22, q22, True)):
            np.add(q, q, out=q)
            if diagonal:
                np.add(r2, q, out=q)
            np.subtract(q, np.multiply(r, b, out=b), out=b)
            np.divide(b, rho, out=b)
        # g^(-1) b = a / r^2 with a = b - d w^T, w = b d / rho^2 (in q11, q22; q12 a scratch)
        w1 = np.add(np.multiply(b11, d1, out=q11), np.multiply(b12, d2, out=q12), out=q11)
        w2 = np.add(np.multiply(b12, d1, out=q22), np.multiply(b22, d2, out=q12), out=q22)
        np.divide(w1, rho2, out=w1)
        np.divide(w2, rho2, out=w2)
        a21 = np.subtract(b12, np.multiply(d2, w1, out=q12), out=q12)
        a11 = np.subtract(b11, np.multiply(d1, w1, out=w1), out=b11)
        a12 = np.subtract(b12, np.multiply(d1, w2, out=w1), out=b12)
        a22 = np.subtract(b22, np.multiply(d2, w2, out=w2), out=b22)
        kappa1, kappa2 = _eig2(a11, a12, a21, a22)
        np.divide(kappa1, r2, out=kappa1)
        np.divide(kappa2, r2, out=kappa2)
        area_factor = r * rho  # n = 2: r ** (n - 1) is r
    return CurvatureField(grid, "radial", grid.n, r, grad, kappa1, kappa2, area_factor, r2 / rho, rho)


def radial_geometry(field: ScalarField) -> CurvatureField:
    """Full extrinsic geometry of the starshaped graph r(xi) xi."""
    return _radial_field(field.grid, field.values)


def _principal_radii(grid: SphericalGrid, h: np.ndarray):
    """Principal radii of curvature of the body with support function h, unchecked.

    The radii are the eigenvalues of b = hess(h) + h e.  Returns
    (rho1, rho2, b, grad): rho1 has multiplicity 1 and rho2 multiplicity
    n - 1 (axisymmetric grids: meridional and azimuthal, b = (rho1, rho2));
    on full-s2 grids they are the eigenvalues ascending and b holds the
    frame components (b11, b12, b22).  grad is the orthonormal-frame
    gradient of h, from the same derivative pass as the Hessian.
    """
    grad, hess = grid.derivatives(h)
    if grid.mode == "axisym":
        b = (hess[0] + h, hess[1] + h)
        return (*b, b, grad)
    b = (hess[0] + h, hess[1], hess[2] + h)
    return (*_eig2(b[0], b[1], b[1], b[2]), b, grad)


def _support_field(grid: SphericalGrid, h: np.ndarray) -> CurvatureField:
    """Extrinsic geometry of the body with support function h, or of a stack h.

    h may be a stack of support functions along a leading axis, as for
    SphericalGrid.derivatives; each is checked against its own scale.
    """
    # one scale per support function; NaN or inf when an entry is not finite
    scale = np.abs(h).reshape(-1, math.prod(grid.node_shape)).max(axis=1)
    if not np.isfinite(scale).all():
        raise DegenerateMetric("support function has non-finite entries")
    rho1, rho2, b, grad = _principal_radii(grid, h)
    rho_min = np.minimum(*(rho.reshape(scale.shape + (-1,)).min(axis=1) for rho in (rho1, rho2)))
    if (rho_min <= 1e-10 * (1.0 + scale)).any():
        raise ConvexityLost(
            f"support Hessian b lost positivity (min radius {rho_min.min():.6g})"
        )
    return CurvatureField(
        grid, "support", grid.n, h, grad, 1.0 / rho1, 1.0 / rho2, rho1 * rho2 ** (grid.n - 1), h, b,
    )


def support_geometry(field: ScalarField) -> CurvatureField:
    """Extrinsic geometry of a strictly convex body from its support function."""
    return _support_field(field.grid, field.values)


def static_convexity(field: CurvatureField) -> StaticConvexityReport:
    """Margin of the static-convexity tensor h_ij - h^(-1) g_ij.

    In a g-orthonormal frame the tensor has eigenvalues kappa_i - 1/h, so the
    report carries min_i kappa_i - 1/h per node and its minimum per surface.
    A surface with some h <= 0 raises NonpositiveSupport.
    """
    grid, h = field.grid, field.support
    if np.any(grid.reduce(h, "min") <= 0.0):
        raise NonpositiveSupport(f"support value must be positive everywhere (min {h.min():.6g})")
    node_margins = np.minimum(field.kappa1, field.kappa2) - 1.0 / h
    return StaticConvexityReport(margin=grid.reduce(node_margins, "min"), node_margins=node_margins)


def sphericity(field: CurvatureField):
    """Umbilicity defect max(n |A|^2 / H^2 - 1) per surface; zero exactly on round spheres."""
    grid, H = field.grid, field.H
    k_max = (grid.reduce(np.abs(kappa), "max") for kappa in (field.kappa1, field.kappa2))
    scale = 1.0 + np.maximum(*k_max)
    if np.any(grid.reduce(np.abs(H), "min") <= 1e-15 * scale):
        raise ZeroMeanCurvature("mean curvature vanishes at a node")
    return grid.reduce(field.n * field.A2 / H**2 - 1.0, "max")


def centroid(field: CurvatureField):
    """Area-weighted centroid of the surface (Steiner point approximation).

    Returns a 3-vector on full-s2 grids.  On axisymmetric grids the orbit
    components vanish by symmetry and the axis component is returned alone.
    """
    grid, w, position = field.grid, field.area_weights, field.position
    area = np.sum(w)
    if grid.mode == "full-s2":
        return np.asarray([float(np.sum(w * position[..., i])) for i in range(3)]) / area
    return float(np.sum(w * position[..., 1]) / area)

