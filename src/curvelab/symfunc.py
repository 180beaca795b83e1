"""Normalized elementary symmetric functions of curvature data.

For kappa = (kappa_1, ..., kappa_n) the normalized k-th elementary symmetric
function is E_k = sigma_k / C(n, k), where sigma_k sums the products of all
k-element subsets; E_0 = 1 and E_k = 0 for k > n.  The degree-one quotient
F = E_k / E_{k-1} drives the curvature flows and is well behaved only inside
the Garding cone Gamma_k^+ = {E_1 > 0, ..., E_k > 0}.

Matrix arguments are handled through their eigenvalues: a symmetric operator
is diagonalized with LAPACK ``eigh`` and derivative tensors are rotated back
to the original frame.  Evaluation uses the product-expansion recurrence over
entries, which is exact at the small dimensions (n <= 8) this package targets.
It runs on Python floats for one vector and on numpy columns for a batch, with
the same IEEE rounding, so a vector and its row in a batch agree bit for bit.

Every surface the package builds has two distinct principal values per node,
k1 of multiplicity 1 and k2 of multiplicity n - 1 (the two eigenvalues on
S^2 grids, the meridional and azimuthal values on axisymmetric ones);
sigma_pair gives their symmetric functions in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConeViolation

__all__ = [
    "sigma_all",
    "sigma_pair",
    "sigma_quotient",
    "require_cone",
    "elementary_symmetric",
    "ek_derivative_eigen",
    "ek_derivative_tensor",
    "curvature_quotient",
    "curvature_quotient_gradient",
    "gamma_cone_member",
    "newton_maclaurin_gap",
]


def sigma_all(kappa) -> np.ndarray:
    """All sigma_j, j = 0..n, computed along the trailing axis.

    Accepts batched input of shape (..., n) and returns shape (..., n + 1),
    so per-node curvature data can be reduced in one call.  One vector runs
    on Python floats, where numpy's per-call cost would dominate.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    sig = [1.0] + [0.0] * n
    for i, x in enumerate(kappa.tolist() if kappa.ndim == 1 else np.moveaxis(kappa, -1, 0)):
        for j in range(i + 1, 0, -1):
            sig[j] = sig[j] + x * sig[j - 1]
    out = np.empty(kappa.shape[:-1] + (n + 1,))
    for j, s in enumerate(sig):
        out[..., j] = s
    return out


def sigma_pair(k1, k2, n: int) -> list:
    """[sigma_0, ..., sigma_n] of the multiset {k1, k2 x (n-1)}, entrywise.

    Splitting the j-subsets by whether they contain k1:
    sigma_j = (C(n-1, j-1) k1 + C(n-1, j) k2) k2^(j-1).  Entry j is sigma_j,
    as in the output of sigma_all for one curvature vector.  Unit and zero
    factors are skipped, so n = 2 takes two array operations (the flow
    kernels call this at every stage).
    """
    sig = [1.0]
    for j in range(1, n + 1):
        a, b = math.comb(n - 1, j - 1), math.comb(n - 1, j)
        s = k1 if a == 1 else a * k1
        if b:
            s = s + (k2 if b == 1 else b * k2)
        if j > 1:
            s = s * (k2 if j == 2 else k2 ** (j - 1))
        sig.append(s)
    return sig


def sigma_quotient(sig, k: int):
    """F = E_k / E_{k-1} from sig[j] = sigma_j, j = 0..n."""
    n = len(sig) - 1
    return sig[k] / sig[k - 1] * (math.comb(n, k - 1) / math.comb(n, k))


def require_cone(sig, scale: float, k: int) -> None:
    """Raise ConeViolation unless E_i > 1e-12 (1 + scale^i) for i = 1..k everywhere.

    ``sig[j]`` holds sigma_j, j = 0..n, at one node or over many; ``scale``
    is max |kappa|, which makes the strictness floor of the Garding cone
    Gamma_k^+ scale-aware.
    """
    n = len(sig) - 1
    for i in range(1, k + 1):
        floor = 1e-12 * (1.0 + scale**i)
        if np.minimum.reduce(sig[i], axis=None) / math.comb(n, i) <= floor:
            raise ConeViolation(f"E_{i} <= {floor:.3g}; kappa leaves Gamma_{k}^+")


def _sigma_in_cone(kappa, k: int):
    """(kappa, [sigma_0, ..., sigma_n] as floats) for one vector that must lie in Gamma_k^+."""
    kappa = np.asarray(kappa, dtype=float)
    if not 1 <= k <= kappa.size:
        raise ValueError("k must satisfy 1 <= k <= n")
    sig = sigma_all(kappa).tolist()
    require_cone(sig, max(map(abs, kappa.tolist())), k)
    return kappa, sig


def elementary_symmetric(kappa, k: int):
    """Normalized E_k along the trailing axis; E_0 = 1, E_k = 0 for k > n."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > n:
        return np.zeros(kappa.shape[:-1])[()] if kappa.ndim > 1 else 0.0
    value = sigma_all(kappa)[..., k] / math.comb(n, k)
    return value[()] if value.ndim == 0 else value


def ek_derivative_eigen(kappa, k: int) -> np.ndarray:
    """Eigenvalue derivatives dE_k / dkappa_p, batched over leading axes.

    Equals C(n,k)^-1 * sigma_{k-1} of the remaining n-1 entries.  Row p of
    the (n, n-1) index, the off-diagonal columns of an n x n grid, skips
    entry p, so one sigma_all call covers every p.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    rest = kappa[..., np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)]
    return sigma_all(rest)[..., k - 1] / math.comb(n, k)


def ek_derivative_tensor(a, k: int) -> np.ndarray:
    """Matrix derivative dE_k / dA_ij of a symmetric operator A.

    Diagonalizes A, applies the eigenvalue calculus and rotates back, so the
    result satisfies the trace identities

        tr(dE_k)          = k E_{k-1}
        tr(dE_k . A)      = k E_k
        tr(dE_k . A^2)    = n E_1 E_k - (n - k) E_{k+1}

    to round-off.
    """
    w, q = np.linalg.eigh(np.asarray(a, dtype=float))
    return (q * ek_derivative_eigen(w, k)) @ q.T


def gamma_cone_member(kappa, k: int) -> bool:
    """True iff E_i(kappa) > 0 for every i = 1..k (scale-aware strict)."""
    try:
        _sigma_in_cone(kappa, k)
    except ConeViolation:
        return False
    return True


def curvature_quotient(kappa, k: int) -> float:
    """F = E_k / E_{k-1}, normalized so F(1, ..., 1) = 1.

    Degree-one homogeneous and strictly increasing on Gamma_k^+.  Raises
    ConeViolation outside the cone, where the quotient is undefined or
    numerically unstable.
    """
    _, sig = _sigma_in_cone(kappa, k)
    return float(sigma_quotient(sig, k))


def curvature_quotient_gradient(kappa, k: int) -> np.ndarray:
    """Per-eigenvalue gradient dF/dkappa_p of F = E_k / E_{k-1}."""
    kappa, sig = _sigma_in_cone(kappa, k)
    n = kappa.size
    dk = ek_derivative_eigen(kappa, k)
    if k == 1:
        return dk
    ek, ekm1 = sig[k] / math.comb(n, k), sig[k - 1] / math.comb(n, k - 1)
    return (dk * ekm1 - ek * ek_derivative_eigen(kappa, k - 1)) / ekm1**2


def newton_maclaurin_gap(kappa, k: int, m: int) -> float:
    """Gap E_k E_m - E_{m+1} E_{k-1} of the Newton-MacLaurin inequality.

    Nonnegative on Gamma_k^+ for 1 <= k <= m, vanishing exactly when all
    entries of kappa coincide.
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    kappa, sig = _sigma_in_cone(kappa, k)
    n = kappa.size

    def e(j):
        return sig[j] / math.comb(n, j) if j <= n else 0.0

    return float(e(k) * e(m) - e(m + 1) * e(k - 1))
