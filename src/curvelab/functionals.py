"""Global functionals: quermassintegrals, monotone integrals, inequality deficits.

quermassintegrals and monotone_quantities take a CurvatureField holding one
surface or a stack of them and give one value per surface; the flows'
diagnostic rows call them on a stack of states.  The deficits take one surface.

Quermassintegral convention.  V_0 = (n+1) Vol(Omega) and V_j = int_M E_{j-1} dmu
for j >= 1, so that on the ball of radius R every entry is
V_j(B_R) = |S^n| R^(n+1-j).  Under the support flow with parameter k the entry
V_{k-1} is conserved and V_k decreases.

Mean-curvature deficit (k = 1 inequality).  For positive f on a closed M,

    lhs = int_M sqrt(|grad^M f|^2 + f^2 H^2) dmu
    rhs = n |S^n|^(1/n) (int_M f^(n/(n-1)) dmu)^((n-1)/n)

For constant f, lhs - rhs >= 0 with equality exactly for round spheres: the
equality case on the unit sphere with f = 1 fixes the area of the unit
n-sphere in the constant.  For non-constant f that constant is not a bound:
on a unit sphere translated by eps with f = r^-1 exp((r-1)^2/2) the relative
deficit is -eps^2/12 + O(eps^4).  The proven bound for every positive f is
Brendle's (J. Amer. Math. Soc. 34 (2021) 595-603), which has the constant
n |B^n|^(1/n) in place of n |S^n|^(1/n), so the relative deficit is at least
(|B^n| / |S^n|)^(1/n) - 1 (-1/2 for n = 2).

k-th mean curvature deficit.  With sigma_k = geom.sigma[k] (read-only), the k-th
elementary symmetric function of the principal curvatures, and p = (n+1-k)/(n-k),

    lhs = int_M sqrt(sigma_k^2 f^2 + sigma_{k-1}^2 |grad^M f|^2) dmu
    rhs = C * n * (B * f(R)^p * z_k(R))^(1/(n+1-k)) * (int_M sigma_{k-1} f^p dmu)^((n-k)/(n+1-k))

where R solves z_{k-1}(R) = V_{k-1}(Omega), z_j(R) = |S^n| R^(n+1-j), B = C(n, k-1)
and C = C(n, k) / (n C(n, k-1)), so that the unit sphere with f = 1 is an
equality case.  The density is normalised at R: f and grad f are scaled by
s = R^-(n-k) / f(R) first, which makes f(R) the matched constant R^-(n-k).
So every centred sphere is an equality case under a constant density, as
under a profile of h or r (constant there), the relative deficit does not
change when f is scaled, and at k = 1 it is the mean-curvature deficit's.
For constant f the inequality is equivalent to the classical
quermassintegral inequality V_{k+1}^(n+1-k) >= |S^n| V_k^(n-k), sharp on
balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveDensity
from .geometry import CurvatureField
from .sphere_grid import sphere_area
from .symfunc import require_cone

__all__ = [
    "DeficitReport",
    "sphere_area",
    "ball_quermass",
    "ball_quermass_inverse",
    "quermassintegrals",
    "michael_simon_deficit_H",
    "michael_simon_deficit_k",
    "monotone_quantities",
]


def ball_quermass(j: int, radius: float, n: int) -> float:
    """z_j(R) = V_j of the ball of given radius: |S^n| R^(n+1-j)."""
    return sphere_area(n) * radius ** (n + 1 - j)


def ball_quermass_inverse(j: int, value: float, n: int) -> float:
    """Radius of the ball whose j-th quermassintegral equals ``value``."""
    return (value / sphere_area(n)) ** (1.0 / (n + 1 - j))


@dataclass(frozen=True)
class DeficitReport:
    """Two sides of a sharp inequality plus their gap.

    A negative deficit is recorded as data (violation evidence), never an
    error.
    """

    lhs: float
    rhs: float
    deficit: float
    rel_deficit: float
    k: int


def quermassintegrals(geom: CurvatureField) -> np.ndarray:
    """V_0..V_{n+1} of the enclosed domain, shape (n + 2, *stack), from one curvature field;
    V_{n+1} = int E_n dmu is the Gauss-curvature integral, |S^n| on convex bodies."""
    n, sig = geom.n, geom.sigma
    values = [(n + 1) * geom.volume]
    values += [geom.grid.reduce(geom.area_weights * sig[j - 1]) / math.comb(n, j - 1)
               for j in range(1, n + 2)]
    return np.array(values)


def _density_values(geom: CurvatureField, f) -> np.ndarray:
    f = np.asarray(f, float)
    if f.ndim == 0:
        f = np.full(geom.grid.node_shape, float(f))
    if not 0.0 < f.min() <= f.max() < math.inf:  # NaN fails every comparison
        raise NonpositiveDensity(f"density must be positive and finite (range {f.min():.6g} to {f.max():.6g})")
    return f


def _q_integral(geom: CurvatureField, f: np.ndarray):
    """Q = int f^(n/(n-1)) dmu per surface, of positive density values f."""
    n = geom.n
    return geom.grid.reduce(geom.area_weights * f ** (n / (n - 1.0)))


def _mk_integral(geom: CurvatureField, f: np.ndarray, k: int):
    """M_k = int sigma_{k-1} f^((n-k+1)/(n-k)) dmu per surface, of positive density values f;
    M_n = int sigma_{n-1} dmu where f is constant (see monotone_quantities), NaN elsewhere."""
    n, grid = geom.n, geom.grid
    weighted = geom.area_weights * geom.sigma[k - 1]
    if k < n:
        return grid.reduce(weighted * f ** ((n - k + 1.0) / (n - k)))
    f_lo, f_hi = grid.reduce(f, "min"), grid.reduce(f, "max")
    mk = np.where(f_hi - f_lo > 1e-12 * (1.0 + f_hi), np.nan, grid.reduce(weighted))
    return float(mk) if mk.ndim == 0 else mk


def michael_simon_deficit_H(geom: CurvatureField, f=None, grad_f=None) -> DeficitReport:
    """Mean-curvature Sobolev deficit on a closed hypersurface.

    The rhs uses the sphere-area constant n |S^n|^(1/n): for constant f the
    deficit is >= 0 with equality exactly on round spheres.  For non-constant
    f it can be negative (a unit sphere translated by eps with
    f = r^-1 exp((r-1)^2/2) gives rel_deficit -eps^2/12 + O(eps^4)); Brendle's
    proven bound is rel_deficit >= (|B^n| / |S^n|)^(1/n) - 1.

    No ``f`` means f = 1.  ``grad_f`` holds the parameter-sphere frame
    components of grad f (None means f is constant); the tangential gradient
    is formed with the induced metric of ``geom``.
    """
    n = geom.n
    if f is None:  # f = 1 adds no pass: 1 x = x, w 1 = w and 0 + x = x for the square x
        integrand, quantity = geom.H**2, geom.total_area()
    else:
        f = _density_values(geom, f)
        integrand, quantity = f**2 * geom.H**2, _q_integral(geom, f)
    if grad_f is not None:  # else f is constant: grad f = 0
        integrand = geom.tangential_grad_sq(grad_f) + integrand
    lhs = float(np.sum(geom.area_weights * np.sqrt(integrand)))
    rhs = n * sphere_area(n) ** (1.0 / n) * quantity ** ((n - 1.0) / n)
    deficit = lhs - rhs
    return DeficitReport(lhs, rhs, deficit, deficit / abs(rhs), 1)


def michael_simon_deficit_k(geom: CurvatureField, f=None, grad_f=None, k: int = 1, f_of_R=None) -> DeficitReport:
    """Sharp k-th mean curvature deficit (1 <= k <= n-1) on a closed hypersurface.

    f and grad_f are normalised at the comparison radius R (module
    docstring), so no ``f`` and every constant f give the matched constant
    density R^-(n-k).  ``f_of_R`` gives f(R) as a callable of R; it defaults
    to the constant value of f and must be given for non-constant densities.
    """
    n = geom.n
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n - 1")
    radius = ball_quermass_inverse(k - 1, float(quermassintegrals(geom)[k - 1]), n)
    f_r = radius ** (k - n)
    f = _density_values(geom, f_r if f is None else f)
    if f_of_R is None and float(f.max() - f.min()) > 1e-12 * (1.0 + float(f.max())):
        raise ValueError("f_of_R must be supplied for non-constant densities")
    f_at_r = float(f.flat[0] if f_of_R is None else f_of_R(radius))
    if not 0.0 < f_at_r < math.inf:
        raise NonpositiveDensity(f"density at the comparison radius must be positive and finite, got {f_at_r:.6g}")
    scale = f_r / f_at_r  # exactly 1.0 without f
    f = scale * f

    sig = geom.sigma
    require_cone(sig, float(np.maximum(np.abs(geom.kappa1).max(), np.abs(geom.kappa2).max())), k)

    sk, skm1 = sig[k], sig[k - 1]
    tgs = 0.0 if grad_f is None else scale**2 * geom.tangential_grad_sq(grad_f)  # constant f: grad f = 0
    lhs = float(np.sum(geom.area_weights * np.sqrt(sk**2 * f**2 + skm1**2 * tgs)))

    p = (n + 1.0 - k) / (n - k)
    mk = _mk_integral(geom, f, k)
    # the unit sphere, f = 1, has lhs C(n, k) |S^n| and rhs C n C(n, k-1) |S^n|
    b_coef = math.comb(n, k - 1)
    cal = math.comb(n, k) / (n * math.comb(n, k - 1))
    zk = ball_quermass(k, radius, n)
    rhs = cal * (
        n
        * (b_coef * f_r**p * zk) ** (1.0 / (n + 1 - k))
        * mk ** ((n - k) / (n + 1.0 - k))
    )
    deficit = lhs - rhs
    return DeficitReport(lhs, rhs, deficit, deficit / abs(rhs), k)


def monotone_quantities(geom: CurvatureField, f, k: int):
    """The two flow-monitored integrals (Q, M_k), per surface of ``geom``.

    Q = int f^(n/(n-1)) dmu cannot increase along the radial flow while
    f' H >= 0 (its rate is in the flows docstring), and a search over 15,000
    axisymmetric bodies found none on which it rises.
    M_k = int sigma_{k-1} f^((n-k+1)/(n-k)) dmu decreases along the support
    flow with parameter k.  At k = n the exponent degenerates; the density
    must then be constant and M_n = int sigma_{n-1} dmu is returned
    (monotone for any constant factor).
    """
    f = _density_values(geom, f)
    mk = _mk_integral(geom, f, k)
    if k == geom.n and np.isnan(mk).any():
        raise ValueError("k = n requires a constant density")
    return _q_integral(geom, f), mk
