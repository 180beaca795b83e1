"""Normalized elementary symmetric functions of curvature data.

For kappa = (kappa_1, ..., kappa_n) the normalized k-th elementary symmetric
function is E_k = sigma_k / C(n, k), where sigma_k sums the products of all
k-element subsets; E_0 = 1 and E_k = 0 for k > n.  The degree-one quotient
F = E_k / E_{k-1} drives the curvature flows and is well behaved only inside
the Garding cone Gamma_k^+ = {E_1 > 0, ..., E_k > 0}.

Matrix arguments are handled through their eigenvalues: a symmetric operator
is diagonalized with LAPACK ``eigh`` and derivative tensors are rotated back
to the original frame.  The algebra exists once: one product-expansion
recurrence (exact at the small dimensions n <= 8 this package targets), one
leave-one-out over it and one dF/dkappa on that, which the support flow's
c_max shares, and every CurvatureField's sigma_j; sigma entries are read-only.
The input's ndim picks the path.  One vector stays on Python floats from its
entries to the answer, through the cone check, E_k, the eigenvalue derivatives
and the Newton-MacLaurin gaps, since numpy's per-call cost would dominate
there; only a returned array is packed.  One vector is also evaluated once:
a one-entry memo keyed by its float64 bytes holds its entries, sigma list,
max |kappa| and cone depth (the first i at which E_i fails its floor), so
the calls a battery makes on it, every k and every (k, m) gap, share one
recurrence and one cone check.  Bytes keep -0.0 apart from 0.0, and only a
1-D input enters the memo.  A batch runs the same recurrence on numpy columns,
with the same IEEE rounding, so a vector and its row in a batch agree bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConeViolation

__all__ = [
    "sigma_all",
    "sigma_quotient",
    "require_cone",
    "elementary_symmetric",
    "ek_derivative_tensor",
    "curvature_quotient",
    "curvature_quotient_gradient",
    "gamma_cone_member",
    "newton_maclaurin_gap",
]


def _sigmas(entries) -> list:
    """[sigma_0, ..., sigma_n] of n entries by the product-expansion recurrence.

    The entries are Python floats for one vector or numpy arrays (the columns
    of a batch); both take the same IEEE operations in the same order.  Adding
    to 0 and multiplying by sigma_0 = 1 are skipped, which keeps every bit but
    a zero's sign; sigma_1 of one entry is that entry, so entries are read-only.
    """
    sig = [1.0] + list(entries[:1])
    for x in entries[1:]:
        sig.append(x * sig[-1])
        for j in range(len(sig) - 2, 1, -1):
            sig[j] = sig[j] + x * sig[j - 1]
        sig[1] = sig[1] + x
    return sig


def _leave_one_out(values: list) -> list:
    """For each p, [sigma_0, ..., sigma_{n-1}] of the n - 1 values other than values[p]."""
    return [_sigmas(values[:p] + values[p + 1:]) for p in range(len(values))]


def _quotient_gradient(sig, rests, k: int, weights) -> list:
    """weights[p] dF/dkappa_p of F = E_k / E_{k-1}, with rests[p] the leave-one-out list of p:
    C(n, k-1) / C(n, k) (rests[p][k-1] sigma_{k-1} - sigma_k rests[p][k-2]) / sigma_{k-1}^2,
    no sigma_k term at k = 1; floats at one vector, arrays over a field's nodes."""
    n = len(sig) - 1
    scale = math.comb(n, k - 1) / math.comb(n, k) / sig[k - 1] ** 2
    return [w * scale * (rest[k - 1] * sig[k - 1] - sig[k] * (rest[k - 2] if k > 1 else 0.0))
            for rest, w in zip(rests, weights)]


def sigma_all(kappa) -> np.ndarray:
    """All sigma_j, j = 0..n, computed along the trailing axis.

    Accepts batched input of shape (..., n) and returns shape (..., n + 1),
    so per-node curvature data can be reduced in one call.  One vector runs
    the recurrence on Python floats and is packed once; a batch runs it on
    the numpy columns of its trailing axis.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.ndim == 1:
        return np.array(_vector(kappa)[1])
    sig = _sigmas(np.moveaxis(kappa, -1, 0))
    out = np.empty(kappa.shape[:-1] + (len(sig),))
    for j, s in enumerate(sig):
        out[..., j] = s
    return out


def sigma_quotient(sig, k: int):
    """F = E_k / E_{k-1} from sig[j] = sigma_j, j = 0..n."""
    n = len(sig) - 1
    quotient = sig[k] / sig[k - 1]
    quotient *= math.comb(n, k - 1) / math.comb(n, k)  # in place, as in the support speed
    return quotient


def _floor(scale, i: int) -> float:
    """1e-12 (1 + scale^i), the strictness floor of E_i; +inf past the float range."""
    try:
        return 1e-12 * (1.0 + float(scale) ** i)
    except OverflowError:
        return math.inf


def _cone_depth(sig, scale, k: int) -> int:
    """The first i <= k at which E_i is not above its floor anywhere, else k + 1."""
    n = len(sig) - 1
    for i in range(1, k + 1):
        low = sig[i]
        if isinstance(low, np.ndarray):
            low = np.minimum.reduce(low, axis=None)
        if not low / math.comb(n, i) > _floor(scale, i):
            return i
    return k + 1


def _refuse_depth(depth: int, scale, k: int) -> None:
    """Raise ConeViolation if the cone depth is within k, naming the E_i that failed."""
    if depth <= k:
        raise ConeViolation(f"E_{depth} is not above {_floor(scale, depth):.3g}; kappa leaves Gamma_{k}^+")


def require_cone(sig, scale: float, k: int) -> None:
    """Raise ConeViolation unless E_i > 1e-12 (1 + scale^i) for i = 1..k everywhere.

    ``sig[j]`` holds sigma_j, j = 0..n, as a float at one node or an array
    over many; ``scale`` is max |kappa|, which makes the strictness floor of
    the Garding cone Gamma_k^+ scale-aware.  A NaN E_i is not clear of its
    floor, and a floor past the float range is +inf, so both are rejected.
    """
    _refuse_depth(_cone_depth(sig, scale, k), scale, k)


# the last vector's float64 bytes -> its _vector entry; one entry
_MEMO: dict = {}


def _vector(kappa: np.ndarray) -> tuple:
    """(entries, (sigma_0, ..., sigma_n), max |kappa|, cone depth) of one float64 vector, as Python floats.

    Only a 1-D input is evaluated, through the one-entry memo; bytes keep -0.0
    apart from 0.0.  The entry is shared with every later call on the same
    bytes, so it holds tuples.
    """
    if kappa.ndim != 1:
        raise TypeError(f"expected one vector, got an array of shape {kappa.shape}")
    key = kappa.tobytes()
    entry = _MEMO.get(key)
    if entry is None:
        values = tuple(kappa.tolist())
        sig = tuple(_sigmas(values))
        scale = max(map(abs, values), default=0.0)
        entry = values, sig, scale, _cone_depth(sig, scale, len(values))
        _MEMO.clear()
        _MEMO[key] = entry
    return entry


def _sigma_in_cone(kappa, k: int):
    """(entries, (sigma_0, ..., sigma_n)) as Python floats for one vector that must lie in Gamma_k^+."""
    kappa = np.asarray(kappa, dtype=float)
    if not 1 <= k <= len(kappa):  # a 0-d array has no len: TypeError, as for any non-vector
        raise ValueError("k must satisfy 1 <= k <= n")
    values, sig, scale, depth = _vector(kappa)
    _refuse_depth(depth, scale, k)
    return values, sig


def elementary_symmetric(kappa, k: int):
    """Normalized E_k along the trailing axis; E_0 = 1, E_k = 0 for k > n."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > n:
        return np.zeros(kappa.shape[:-1])[()] if kappa.ndim > 1 else 0.0
    if kappa.ndim == 1:
        return np.float64(_vector(kappa)[1][k] / math.comb(n, k))
    return sigma_all(kappa)[..., k] / math.comb(n, k)


def _ek_derivative_eigen(kappa, k: int) -> np.ndarray:
    """Eigenvalue derivatives dE_k / dkappa_p, batched over leading axes.

    Equals C(n,k)^-1 * sigma_{k-1} of the remaining n-1 entries, read from
    the leave-one-out lists of one vector's Python floats or of a batch's
    numpy columns.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    c = math.comb(n, k)
    cols = kappa.tolist() if kappa.ndim == 1 else list(np.moveaxis(kappa, -1, 0))
    out = np.empty(kappa.shape)
    for p, rest in enumerate(_leave_one_out(cols)):
        out[..., p] = rest[k - 1] / c
    return out


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
    return (q * _ek_derivative_eigen(w, k)) @ q.T


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
    """Per-eigenvalue gradient dF/dkappa_p of F = E_k / E_{k-1}, from one leave-one-out pass."""
    values, sig = _sigma_in_cone(kappa, k)
    return np.array(_quotient_gradient(sig, _leave_one_out(values), k, [1.0] * len(values)))


def newton_maclaurin_gap(kappa, k: int, m: int) -> float:
    """Gap E_k E_m - E_{m+1} E_{k-1} of the Newton-MacLaurin inequality.

    Nonnegative on Gamma_k^+ for 1 <= k <= m, vanishing exactly when all
    entries of kappa coincide.
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    values, sig = _sigma_in_cone(kappa, k)
    n = len(values)

    def e(j):
        return sig[j] / math.comb(n, j) if j <= n else 0.0

    return float(e(k) * e(m) - e(m + 1) * e(k - 1))
