"""Speed profiles f and their admissibility checks.

The radial flow reads a profile at the radius r, the support flow at the
support value h; ``validate_radial_profile`` and ``validate_support_profile``
check the conditions that each flow's monotone integral needs (see flows).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolated
from .sphere_grid import _tridiagonal_solve

__all__ = ["SpeedProfile", "SupportProfileReport", "validate_radial_profile", "validate_support_profile"]


class SpeedProfile:
    """Positive speed profile with closed-form first and second derivatives.

    The argument is the radial distance r for the radial flow and the support
    value h for the support flow; the class is agnostic.  ``domain`` is the
    declared working interval on which positivity and the admissibility
    conditions are checked.  ``f_df``, when given, returns (f, f') from one
    evaluation, with the bits of f and df.
    """

    def __init__(self, fns, domain, f_df=None):
        self._f, self._df, self._d2f = fns
        self._f_df = f_df
        self.domain = tuple(map(float, domain))
        if len(self.domain) != 2 or not -math.inf < self.domain[0] < self.domain[1] < math.inf:
            raise ValueError(f"profile domain must be two finite numbers lo < hi, got {domain!r}")

    def f(self, x):
        return self._f(np.asarray(x, float))

    def df(self, x):
        return self._df(np.asarray(x, float))

    def f_df(self, x):
        """(f(x), f'(x)), sharing the evaluation of f where the profile can."""
        x = np.asarray(x, float)
        return self._f_df(x) if self._f_df else (self._f(x), self._df(x))

    def d2f(self, x):
        return self._d2f(np.asarray(x, float))

    def hat(self, x, n: int):
        """fhat(x) = (n-1) f / x^2 + f' / x, the sphere-family forcing."""
        x = np.asarray(x, float)
        f, df = self.f_df(x)
        return (n - 1) * f / x**2 + df / x

    @classmethod
    def _power_law(cls, a: float, b: float, e: float, domain) -> "SpeedProfile":
        """f(x) = (a x + b)^e: constant, power and affine_power are its members."""

        def f(x):
            return (a * x + b) ** e

        def df(x):
            return a * e * (a * x + b) ** (e - 1.0)

        def d2f(x):
            return a * a * e * (e - 1.0) * (a * x + b) ** (e - 2.0)

        return cls((f, df, d2f), domain)

    @classmethod
    def constant(cls, value: float, domain=(1e-2, 100.0)) -> "SpeedProfile":
        if value <= 0:
            raise ValueError("constant profile must be positive")
        return cls._power_law(0.0, float(value), 1.0, domain)

    @classmethod
    def power_exp_pinned(cls, n: int, r_star: float = 1.0, domain=None) -> "SpeedProfile":
        """f(r) = r^(1-n) exp((r - r*)^2 / 2); then fhat = f (r - r*) / r.

        fhat vanishes exactly at r*, so the flow pins the limit sphere there.
        """
        if not (isinstance(n, numbers.Integral) and n >= 2):
            raise ValueError(f"power_exp_pinned needs an integer n >= 2, got n = {n!r}")
        rs = float(r_star)
        if domain is None:
            domain = (0.5 * rs, 1.8 * rs)

        def f(x):
            return x ** (1.0 - n) * np.exp(0.5 * (x - rs) ** 2)

        def f_df(x):
            fx = f(x)
            return fx, fx * ((1.0 - n) / x + (x - rs))

        def d2f(x):
            u = (1.0 - n) / x + (x - rs)
            return f(x) * (u * u + (n - 1.0) / x**2 + 1.0)

        return cls((f, lambda x: f_df(x)[1], d2f), domain, f_df)

    @classmethod
    def power(cls, exponent: float, domain=(1e-2, 100.0)) -> "SpeedProfile":
        """f(x) = x^exponent.  At exponent 1 - n the sphere forcing fhat
        vanishes identically and every centred sphere is stationary."""
        return cls._power_law(1.0, 0.0, float(exponent), domain)

    @classmethod
    def affine_power(cls, a: float, b: float, n: int, k: int, domain=(1e-2, 100.0)) -> "SpeedProfile":
        """f(h) = (a h + b)^((n-k)/(n-k+1)); its admissibility transform is linear."""
        if a <= 0 or b <= 0:
            raise ValueError("affine_power needs a, b > 0")
        if not (isinstance(k, numbers.Integral) and 1 <= k <= n):
            raise ValueError(f"affine_power needs an integer 1 <= k <= n, got k = {k!r} with n = {n!r}")
        return cls._power_law(a, b, (n - k) / (n - k + 1.0), domain)

    @classmethod
    def tabulated(cls, x, f, domain=None) -> "SpeedProfile":
        """Not-a-knot cubic-spline profile through (x, f) samples.

        Beyond the table the end cubics extend it; f' and f'' are the
        derivatives of the same cubics.
        """
        x = np.asarray(x, float)
        f = np.asarray(f, float)
        if x.ndim != 1 or x.size < 4 or f.shape != x.shape or not np.isfinite([x, f]).all():
            raise ValueError("tabulated profile needs >= 4 aligned, finite samples")
        if np.any(np.diff(x) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        if domain is None:
            domain = (float(x[0]), float(x[-1]))
        return cls(_not_a_knot_spline(x, f), domain)


def _not_a_knot_spline(x, y):
    """(f, f', f'') of the not-a-knot cubic spline through (x, y) (de Boor, A
    Practical Guide to Splines, ch. IV): f = ((c3 t + c2) t + s) t + y at
    t = x - x_i, with the end cubics beyond the table.  The knot slopes s solve
    one tridiagonal system; its first and last rows make f''' continuous at
    x[1] and x[-2].  The grid's Thomas sweep solves it."""
    h, size = np.diff(x), x.size
    delta = np.diff(y) / h
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    diag = np.r_[h[1], 2.0 * (h[:-1] + h[1:]), h[-2]]
    upper, lower = np.r_[d0, h[:-1]], np.r_[h[1:], d1]
    rhs = np.r_[((h[0] + 2.0 * d0) * h[1] * delta[0] + h[0] ** 2 * delta[1]) / d0,
                3.0 * (h[1:] * delta[:-1] + h[:-1] * delta[1:]),
                (h[-1] ** 2 * delta[-2] + (2.0 * d1 + h[-1]) * h[-2] * delta[-1]) / d1]
    s = _tridiagonal_solve(lower[None], diag[None], upper[None], rhs[None, :, None])[0, :, 0]
    c3 = (s[:-1] + s[1:] - 2.0 * delta) / h
    coeffs = np.stack([c3 / h, (delta - s[:-1]) / h - c3, s[:-1], y[:-1]])

    def horner(c):
        def evaluate(xq):
            j = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, size - 2)
            t, out = xq - x[j], c[0][j]
            for row in c[1:]:
                out = out * t + row[j]
            return out
        return evaluate

    df, d2f = coeffs[:3] * [[3.0], [2.0], [1.0]], coeffs[:2] * [[6.0], [2.0]]
    return horner(coeffs), horner(df), horner(d2f)


@dataclass(frozen=True)
class SupportProfileReport:
    """Outcome of the support-flow admissibility check on g = f^((n-k+1)/(n-k))."""

    ok: bool
    detail: str


def _sampled(profile: SpeedProfile, g, n: int, k: int):
    """(xs, f, g) at 2001 points of the domain, f, g and f's powers under one errstate (an
    overflow reads as inf); raises AssumptionViolated "not-positive" unless f is positive and
    finite, and g and the powers of f that Q and M_k integrate finite."""
    xs = np.linspace(*profile.domain, 2001)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fv, gv = profile.f(xs), g(xs)
        # Q takes f^(n/(n-1)) and M_k f^((n-k+1)/(n-k)): the same power at k = 1, none at k = n
        powers = [fv ** (n / (n - 1.0))] + ([fv ** ((n - k + 1.0) / (n - k))] if 1 < k < n else [])
    if not (0.0 < fv.min() <= fv.max() < math.inf and all(np.isfinite(v).all() for v in (gv, *powers))):
        raise AssumptionViolated(  # NaN fails every comparison
            "not-positive", "profile and the powers of it that Q and M_k integrate must be positive "
            "and finite on the interval")
    return xs, fv, gv


def validate_radial_profile(profile: SpeedProfile, n: int, k: int = 1) -> float:
    """Check that fhat is strictly increasing with a sign change; return its zero.

    f and fhat are sampled by ``_sampled``, with the powers of f that a run
    of this k integrates.  Raises AssumptionViolated with
    kind "not-positive" (f or fhat leaves the domain check), "not-increasing"
    (monotonicity fails, ``where`` holds the offending subinterval) or
    "no-zero" (no strict sign change, including the degenerate profile with
    fhat identically zero).  The zero is bracketed there and bisected to 1e-10.
    """
    lo, hi = profile.domain
    xs, fv, fh = _sampled(profile, lambda x: profile.hat(x, n), n, k)
    scale = float(np.abs(fh).max())
    if scale <= 1e-14 * (1.0 + float(np.abs(fv).max())):
        raise AssumptionViolated(
            "no-zero", "fhat vanishes identically; no strict zero crossing", where=(lo, hi)
        )
    diffs = np.diff(fh)
    bad = np.nonzero(diffs <= -1e-12 * (1.0 + scale))[0]
    if bad.size:
        i = int(bad[0])
        raise AssumptionViolated(
            "not-increasing",
            f"fhat is not increasing on [{xs[i]:.6g}, {xs[i+1]:.6g}]",
            where=(float(xs[i]), float(xs[i + 1])),
        )
    if not (fh[0] < 0.0 < fh[-1]):
        raise AssumptionViolated(
            "no-zero",
            f"fhat does not change sign on [{lo:.6g}, {hi:.6g}] "
            f"(endpoints {fh[0]:.3g}, {fh[-1]:.3g})",
            where=(lo, hi),
        )
    i = int(np.nonzero(fh > 0)[0][0])
    a, b = xs[i - 1], xs[i]
    fa = float(profile.hat(a, n))
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = float(profile.hat(mid, n))
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-10:
            break
    return 0.5 * (a + b)


def validate_support_profile(profile: SpeedProfile, n: int, k: int) -> SupportProfileReport:
    """Check that g = f^((n-k+1)/(n-k)) is nondecreasing and convex in h.

    f and f' are sampled by ``_sampled``, which raises on a profile that is not
    positive and finite, or whose power in Q or M_k (g itself) overflows.
    Where f' vanishes at every sample, f is constant and passes for every k
    (the non-strict case); for k = n the exponent is undefined, so only these
    pass.
    """
    xs, fv, f1 = _sampled(profile, profile.df, n, k)
    if float(np.abs(f1).max()) <= 1e-14 * (1.0 + float(fv.max())):
        return SupportProfileReport(True, "constant profile: g constant (non-strict pass)")
    if k >= n:
        return SupportProfileReport(
            False, f"k = {k} with n = {n}: the exponent (n-k+1)/(n-k) is undefined "
            "for non-constant profiles"
        )
    p = (n - k + 1.0) / (n - k)
    f2 = profile.d2f(xs)
    g1 = p * fv ** (p - 1.0) * f1
    g2 = p * (p - 1.0) * fv ** (p - 2.0) * f1**2 + p * fv ** (p - 1.0) * f2
    tol1 = 1e-12 * (1.0 + float(np.abs(g1).max()))
    tol2 = 1e-12 * (1.0 + float(np.abs(g2).max()))
    if g1.min() < -tol1:
        return SupportProfileReport(False, f"g is decreasing near h = {xs[np.argmin(g1)]:.6g}")
    if g2.min() < -tol2:
        return SupportProfileReport(False, f"g is concave near h = {xs[np.argmin(g2)]:.6g}")
    return SupportProfileReport(True, "g nondecreasing and convex")

