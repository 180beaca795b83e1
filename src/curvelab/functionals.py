"""Global functionals: quermassintegrals, monotone integrals, inequality deficits.

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

k-th mean curvature deficit.  With sigma_k the k-th elementary symmetric
function of the principal curvatures and p = (n+1-k)/(n-k),

    lhs = int_M sqrt(sigma_k^2 f^2 + sigma_{k-1}^2 |grad^M f|^2) dmu
    rhs = C * n * (B * f(R)^p * z_k(R))^(1/(n+1-k)) * (int_M sigma_{k-1} f^p dmu)^((n-k)/(n+1-k))

where R solves z_{k-1}(R) = V_{k-1}(Omega) and z_j(R) = |S^n| R^(n+1-j).
Two calibration modes are exposed because the printed binomial prefactors of
the source inequality are mutually inconsistent for k >= 2:

* "paper-literal": B = C(n, k), C = 1 (reproduces the printed constant);
* "sphere-calibrated" (default): B = C(n, k-1) and C chosen by
  calibrate_sharp_constant so the deficit vanishes identically on every
  sphere paired with its matched constant f = R^-(n-k).  In that mode the
  deficit inequality is equivalent to the classical quermassintegral
  inequality V_{k+1}^(n+1-k) >= |S^n| V_k^(n-k), sharp on balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveDensity
from .geometry import CurvatureField
from .sphere_grid import ScalarField, sphere_area
from .symfunc import require_cone, sigma_all

__all__ = [
    "QuermassVector",
    "DeficitReport",
    "sphere_area",
    "ball_quermass",
    "ball_quermass_inverse",
    "quermassintegrals",
    "michael_simon_deficit_H",
    "michael_simon_deficit_k",
    "monotone_quantities",
    "calibrate_sharp_constant",
]


def ball_quermass(j: int, radius: float, n: int) -> float:
    """z_j(R) = V_j of the ball of given radius: |S^n| R^(n+1-j)."""
    return sphere_area(n) * radius ** (n + 1 - j)


def ball_quermass_inverse(j: int, value: float, n: int) -> float:
    """Radius of the ball whose j-th quermassintegral equals ``value``."""
    return (value / sphere_area(n)) ** (1.0 / (n + 1 - j))


@dataclass(frozen=True)
class QuermassVector:
    """V_0..V_{n+1} under the boundary-integral convention V_j = int E_{j-1} dmu.

    The top entry V_{n+1} = int E_n dmu is the Gauss-curvature integral,
    constant |S^n| on convex bodies.
    """

    values: np.ndarray
    n: int

    def __getitem__(self, j: int) -> float:
        return float(self.values[j])

    def to_dict(self) -> dict:
        return {f"V_{j}": float(self.values[j]) for j in range(self.n + 2)}


@dataclass(frozen=True)
class DeficitReport:
    """Two sides of a sharp inequality plus their gap.

    A negative deficit is recorded as data (violation evidence), never an
    error; ``mode`` stamps which constant calibration produced the rhs.
    """

    lhs: float
    rhs: float
    deficit: float
    rel_deficit: float
    k: int
    mode: str

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deficit": self.deficit,
            "rel_deficit": self.rel_deficit,
            "k": self.k,
            "mode": self.mode,
        }


def quermassintegrals(geom: CurvatureField) -> QuermassVector:
    """All quermassintegrals of the enclosed domain from one curvature field."""
    n = geom.n
    w = geom.grid.weights * geom.area_factor
    sig = geom.sigma
    values = np.empty(n + 2)
    values[0] = (n + 1) * geom.volume()
    for j in range(1, n + 2):
        values[j] = float(np.sum(w * sig[j - 1])) / math.comb(n, j - 1)
    return QuermassVector(values, n)


def _density_values(geom: CurvatureField, f) -> np.ndarray:
    if isinstance(f, ScalarField):
        f = f.values
    f = np.asarray(f, float)
    if f.ndim == 0:
        f = np.full(geom.grid.node_shape, float(f))
    if f.min() <= 0.0:
        raise NonpositiveDensity(f"density must be positive (min {f.min():.6g})")
    return f


def _grad_components(geom: CurvatureField, grad_f):
    if grad_f is None:
        zero = np.zeros(geom.grid.node_shape)
        return (zero,) if geom.grid.mode == "axisym" else (zero, zero)
    return tuple(np.asarray(g, float) for g in grad_f)


def michael_simon_deficit_H(geom: CurvatureField, f, grad_f=None) -> DeficitReport:
    """Mean-curvature Sobolev deficit on a closed hypersurface.

    The rhs uses the sphere-area constant n |S^n|^(1/n): for constant f the
    deficit is >= 0 with equality exactly on round spheres.  For non-constant
    f it can be negative (a unit sphere translated by eps with
    f = r^-1 exp((r-1)^2/2) gives rel_deficit -eps^2/12 + O(eps^4)); Brendle's
    proven bound is rel_deficit >= (|B^n| / |S^n|)^(1/n) - 1.

    ``grad_f`` holds the parameter-sphere frame components of grad f (None
    means f is constant); the tangential gradient is formed with the induced
    metric of ``geom``.
    """
    f = _density_values(geom, f)
    grads = _grad_components(geom, grad_f)
    n = geom.n
    w = geom.grid.weights * geom.area_factor
    tgs = geom.tangential_grad_sq(grads)
    lhs = float(np.sum(w * np.sqrt(tgs + f**2 * geom.H**2)))
    quantity = float(np.sum(w * f ** (n / (n - 1.0))))
    rhs = n * sphere_area(n) ** (1.0 / n) * quantity ** ((n - 1.0) / n)
    deficit = lhs - rhs
    return DeficitReport(lhs, rhs, deficit, deficit / abs(rhs), 1, "mean-curvature")


_CALIBRATION_CACHE: dict = {}


def calibrate_sharp_constant(n: int, k: int) -> float:
    """Constant making the k-deficit vanish exactly on the unit sphere, f = 1.

    Evaluates both sides analytically on the unit sphere (kappa = 1, area
    |S^n|, matched density f = 1) against the rhs built with the B = C(n, k-1)
    prefactor, and returns lhs / rhs.  Cached per (n, k).
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n - 1")
    key = (n, k)
    if key not in _CALIBRATION_CACHE:
        area = sphere_area(n)
        sig = sigma_all(np.ones(n))
        lhs = float(sig[k]) * area
        mk = float(sig[k - 1]) * area
        zk = ball_quermass(k, 1.0, n)
        rhs = (
            n
            * (math.comb(n, k - 1) * zk) ** (1.0 / (n + 1 - k))
            * mk ** ((n - k) / (n + 1.0 - k))
        )
        _CALIBRATION_CACHE[key] = lhs / rhs
    return _CALIBRATION_CACHE[key]


def michael_simon_deficit_k(
    geom: CurvatureField,
    f,
    grad_f=None,
    k: int = 1,
    calibration: str = "sphere-calibrated",
    f_of_R=None,
    quermass: QuermassVector | None = None,
) -> DeficitReport:
    """Sharp k-th mean curvature deficit (1 <= k <= n-1) on a closed hypersurface.

    ``f_of_R`` supplies the density's value at the comparison radius R
    (a float or a callable of R); it defaults to the constant value of f and
    must be given explicitly for non-constant densities.
    """
    n = geom.n
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n - 1")
    if calibration not in ("sphere-calibrated", "paper-literal"):
        raise ValueError(f"unknown calibration mode {calibration!r}")
    f = _density_values(geom, f)
    grads = _grad_components(geom, grad_f)

    sig = geom.sigma
    require_cone(sig, float(np.abs((geom.kappa1, geom.kappa2)).max()), k)

    w = geom.grid.weights * geom.area_factor
    sk = sig[k]
    skm1 = sig[k - 1]
    tgs = geom.tangential_grad_sq(grads)
    lhs = float(np.sum(w * np.sqrt(sk**2 * f**2 + skm1**2 * tgs)))

    p = (n + 1.0 - k) / (n - k)
    mk = float(np.sum(w * skm1 * f**p))
    if quermass is None:
        quermass = quermassintegrals(geom)
    radius = ball_quermass_inverse(k - 1, quermass[k - 1], n)
    if f_of_R is None:
        if float(f.max() - f.min()) > 1e-12 * (1.0 + float(f.max())):
            raise ValueError("f_of_R must be supplied for non-constant densities")
        f_r = float(f.flat[0])
    elif callable(f_of_R):
        f_r = float(f_of_R(radius))
    else:
        f_r = float(f_of_R)

    if calibration == "paper-literal":
        b_coef = math.comb(n, k)
        cal = 1.0
    else:
        b_coef = math.comb(n, k - 1)
        cal = calibrate_sharp_constant(n, k)
    zk = ball_quermass(k, radius, n)
    rhs = cal * (
        n
        * (b_coef * f_r**p * zk) ** (1.0 / (n + 1 - k))
        * mk ** ((n - k) / (n + 1.0 - k))
    )
    deficit = lhs - rhs
    return DeficitReport(lhs, rhs, deficit, deficit / abs(rhs), k, calibration)


def monotone_quantities(geom: CurvatureField, f, k: int):
    """The two flow-monitored integrals (Q, M_k).

    Q = int f^(n/(n-1)) dmu decreases along the radial flow for every positive
    smooth f.  M_k = int sigma_{k-1} f^((n-k+1)/(n-k)) dmu decreases along the
    support flow with parameter k.  At k = n the exponent degenerates; the
    density must then be constant and M_n = int sigma_{n-1} dmu is returned
    (monotone for any constant factor).
    """
    n = geom.n
    f = _density_values(geom, f)
    w = geom.grid.weights * geom.area_factor
    q = float(np.sum(w * f ** (n / (n - 1.0))))
    skm1 = geom.sigma[k - 1]
    if k == n:
        if float(f.max() - f.min()) > 1e-12 * (1.0 + float(f.max())):
            raise ValueError("k = n requires a constant density")
        mk = float(np.sum(w * skm1))
    else:
        p = (n - k + 1.0) / (n - k)
        mk = float(np.sum(w * skm1 * f**p))
    return q, mk
