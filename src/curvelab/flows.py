"""Time integration of the two locally constrained curvature flows.

Radial flow (starshaped graphs).  With v = sqrt(1 + |grad r|^2 / r^2) the
radial function obeys

    dr/dt = -(f(r) H + n/(n-1) f'(r) v) v,

so every sphere r = R moves by dR/dt = -(n/(n-1)) R fhat(R) where
fhat(r) = (n-1) f / r^2 + f' / r.  A profile is admissible when fhat is
strictly increasing with a zero r*; the zero is then the attracting round
sphere.  Along the flow Q = int f^(n/(n-1)) dmu changes at the rate

    dQ/dt = -int f^(1/(n-1)) [(f H + c f')^2 + c f f' H (v-1)^2 / v] dmu,

c = n/(n-1), so Q cannot increase while f' H >= 0; elsewhere the rate is
not signed, though a search over 15,000 axisymmetric bodies found no rise.
The neighbouring speed dr/dt = -(f H v + c f') agrees with this one on
spheres and to first order about them, and only it makes the rate a
negative square, -int f^(1/(n-1)) (f H + c f'/v)^2 dmu; AC-5, AC-9 and
AC-11 cannot tell the two apart.  PAPER.md holds only the paper's
abstract, so which of the two is the paper's flow (1.5) cannot be settled
until that equation is in the repository.

Support flow (strictly convex bodies).  The support function obeys

    dh/dt = 1 - h E_k / E_{k-1}

evaluated on the principal curvatures; every origin-centred sphere is
stationary, the (k-1)-th quermassintegral is conserved, and
M_k = int sigma_{k-1} f^((n-k+1)/(n-k)) dmu never increases when
g = f^((n-k+1)/(n-k)) is convex and nondecreasing in h.

Stepping.  c_max is the largest principal coefficient of the linearized
speed (f / r^2 radial, h kappa_i^2 dF/dkappa_i support).  Both flows take
linearly implicit Euler steps u += (I - s a Delta)^-1 (s speed(u)),
extrapolated over the substeps h/1, ..., h/L to order L (Deuflhard, SIAM
Rev. 27 (1985)): L = 4 for both flows.  The levels run in lockstep on
one stack of states, so a step makes L speed calls and L solves, each on
the levels it moves.  Delta is the grid's Laplacian.
An adaptive step is h = min(step, spread / c_max) for the kernel's caps =
(step, spread), (0.035, 0.04) radial and (0.2, 0.1) support, whatever the
output interval; one below 1e-12 max(1, t) raises StepCollapse.  The spread
sets the time error, about C spread^L; the step cap guards the round mode
(the sphere ODE).  The keys are s a = spread / j, so every adaptive run
solves on one key set: a = spread / h is c_max where the spread cap sets the
step and spread / step (1.14 radial, 0.5 support) where the step cap does.
Steps of dt_fixed, and one clipped at t_end, key at a h with a = c_max of the
state they start from: the tableau needs a fixed across a step only.  A
step is clipped only where t_end - t falls short of it by more than 1e-9 of
t_end; a smaller shortfall is t's round-off.
The Laplacian term stabilizes the stiff part (Smereka, J. Sci. Comput. 19
(2003)), so no Delta theta^2 bound applies, nor one from the pole rows'
phi spacing, whose zonal modes are the stiffest; on a sphere Delta
vanishes, the step is extrapolated explicit Euler on the radius ODE and
the surface stays round.  A diagnostic row is written for the start state
and at the first accepted state at or past each output time, and its dt
column is the step that reached it; a row's keys, in order, are trace.csv's
columns, and the start's margin is row 0's.  Each candidate state is
assessed from one build, a CurvatureField: its monitored integral (Q or
M_k, the functional its trace column reads), its c_max and the convergence
test; once the state is accepted, that field also gives the next step's
start speed, and each round of substeps reads one build of its levels'
stacked states, so a kernel's speed reads nothing but a field.  Rows are
computed in batches: the public functionals on one CurvatureField, the
build of a state that fills a batch alone or one build of the held states'
stack, so a row error surfaces once its batch is.  Each step is taken once:
a geometry error raises StepCollapse, with the partial trace and every row
queued before it.  A rise of the monitored integral is recorded: each rise
above 1e-8 relative as an event, and their sum relative to the start as
meta["mono_rise"].  A rise that a smaller step
does not remove is spatial error; on S^2 the summation-by-parts weights
(sphere_grid) make the grid's int Delta h vanish, so the k = 2 support
flow's M_2 = int (Delta h + 2 h) dmu does not rise.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ._artifacts import write_csv
from .errors import (
    AssumptionViolated,
    ConvexityLost,
    DegenerateMetric,
    InsufficientData,
    NonpositiveSupport,
    NotStarshaped,
    StepCollapse,
)
from .functionals import _density_values, _mk_integral, _q_integral, quermassintegrals
from .geometry import (
    CurvatureField,
    _radial_field,
    _support_field,
    sphericity,
    static_convexity,
)
from .sphere_grid import ScalarField, SphericalGrid, _tridiagonal_solve
from .symfunc import _quotient_gradient, _sigmas, sigma_quotient

__all__ = [
    "SpeedProfile",
    "FlowConfig",
    "FlowTrace",
    "BreachEvent",
    "DecayFit",
    "validate_radial_profile",
    "validate_support_profile",
    "run_flow",
    "estimate_decay_rate",
    "area_evolution_consistency",
]


# ---------------------------------------------------------------------------
# speed profiles


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
    def tabulated(cls, x, values, domain=None) -> "SpeedProfile":
        """Not-a-knot cubic-spline profile through (x, values) samples.

        Beyond the table the end cubics extend it; f' and f'' are the
        derivatives of the same cubics.
        """
        x = np.asarray(x, float)
        values = np.asarray(values, float)
        if x.ndim != 1 or x.size < 4 or values.shape != x.shape or not np.isfinite([x, values]).all():
            raise ValueError("tabulated profile needs >= 4 aligned, finite samples")
        if np.any(np.diff(x) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        if domain is None:
            domain = (float(x[0]), float(x[-1]))
        return cls(_not_a_knot_spline(x, values), domain)


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


# ---------------------------------------------------------------------------
# stepper kernels
#
# A kernel evaluates one flow on one grid: ``build`` makes the
# CurvatureField of a state or of a stack of states, ``speed`` is the
# right-hand side of the stepper at the states of one such field, and
# ``assess`` builds a candidate state once and returns (monotone integral,
# c_max at that state, converged, field), so an accepted state is built
# only once.

_GEOM_ERRORS = (NotStarshaped, ConvexityLost, DegenerateMetric, NonpositiveSupport)


class _Kernel:
    """One flow on one grid: its profile and config, with n = grid.n and k = config.k."""

    # the extrapolated step's depth and order in h: AC-11's sphere ODE needs
    # order 4, and the support flow's time error, about C spread^L, lets
    # its spread grow about 2.9x over 3 levels' (see _SupportKernel.caps)
    levels = 4

    def __init__(self, grid: SphericalGrid, profile: SpeedProfile, config: "FlowConfig"):
        self.grid, self.profile, self.config = grid, profile, config
        self.n, self.k = grid.n, config.k


class _RadialKernel(_Kernel):
    """Fused radial-flow evaluations: dr/dt = -(f H + n/(n-1) f' v) v."""

    # (step, spread) caps of the adaptive step (see _DT_FLOOR): the step cap
    # guards the round mode (the sphere ODE, gate 1e-8).  Measured over the
    # radial-axisym inputs (seeds 1-3, 39 units, all Converged, no breach):
    #   step cap  median steps  max |r - r*|  sphere-ODE error
    #   0.025     66            5.09e-4       1.35e-9
    #   0.035     48            5.06e-4       5.12e-9
    #   0.04      42            5.05e-4       8.58e-9
    # at 0.04, spread / step = 1 is power_exp_pinned's c_max at its attractor,
    # which c_max nears from above (1.0014 at convergence), so the caps tie
    # and the step cap never binds; the sphere ODE errs by 2.2e-8 at 0.05, and
    # the amp-0.3 full-s2 16x32 rough start first leaves the flow's range at
    # a spread cap of 0.07
    caps = (0.035, 0.04)

    def build(self, r: np.ndarray) -> CurvatureField:
        """The CurvatureField of r, or of a stack r."""
        return _radial_field(self.grid, r)

    def speed(self, geom: CurvatureField) -> np.ndarray:
        """dr/dt at the state, or at each state of the stack, that geom was built from."""
        n, r = self.n, geom.scalar
        v = geom.metric_source / r  # rho / r = sqrt(1 + |grad r|^2 / r^2)
        f, fp = self.profile.f_df(r)
        return -(f * geom.H + n / (n - 1.0) * fp * v) * v

    def assess(self, r: np.ndarray):
        """(Q, c_max = max f / r^2, converged, field) from one build of r.

        Q = int f^(n/(n-1)) dmu; the run has converged once max |grad r| <
        grad_tol and |fhat(mean r)| < hatf_tol.  A state with a nonpositive
        or non-finite radius raises NotStarshaped or DegenerateMetric.
        """
        g, n, config = self.grid, self.n, self.config
        geom = self.build(r)
        f = self.profile.f(r)
        c_max = float(np.max(f / (r * r)))
        rmean = float(np.sum(g.weights * r) / np.sum(g.weights))
        hat = abs(float(self.profile.hat(rmean, n)))
        grad_max = float(np.sqrt(sum(d * d for d in geom.grad)).max())
        converged = grad_max < config.grad_tol and hat < config.hatf_tol
        return _q_integral(geom, f), c_max, converged, geom


class _SupportKernel(_Kernel):
    """Fused support-flow evaluations: dh/dt = 1 - h E_k / E_{k-1}."""

    # (step, spread) caps (see _DT_FLOOR); with the summation-by-parts weights
    # M_2 does not rise on S^2 grids, so the radial round-mode cap 0.035 is
    # not needed here.  Measured over the support-s2 inputs (k = 2, seeds
    # 1-2, units 0-9), the amp-0.3 full-s2 24x48 rough starts (seeds 0-7,
    # k = 1, 2) and the translated sphere's spatial order (gate 1.9):
    #   levels, caps     median steps  max V_1 drift  rough max drift  order k = 1, 2
    #   3, (0.1, 0.035)  36            3.75e-4        3.19e-3          1.960, 1.961
    #   3, (0.1, 0.05)   25            3.80e-4        3.31e-3          1.877, 1.878
    #   4, (0.1, 0.05)   25            3.70e-4        3.12e-3          1.994, 1.995
    #   4, (0.15, 0.07)  18            3.70e-4        3.16e-3          1.990, 1.990
    #   4, (0.2, 0.1)    13            3.70e-4        3.24e-3          1.967, 1.967
    # with no breach in any run: a larger spread fails the order gate at 3
    # levels, and at 4 it takes 13 steps where 3 levels took 36; (0.3, 0.14)
    # reads an order of 1.919, 0.02 above the gate
    caps = (0.2, 0.1)

    def build(self, h: np.ndarray) -> CurvatureField:
        """The CurvatureField of h, or of a stack h."""
        return _support_field(self.grid, h)

    def speed(self, geom: CurvatureField) -> np.ndarray:
        """dh/dt at the state, or at each state of the stack, that geom was built from."""
        speed = sigma_quotient(geom.sigma, self.k)
        speed *= geom.scalar  # in place: a temporary beside the live field raised support-s2's peak memory
        return np.subtract(1.0, speed, out=speed)

    def assess(self, h: np.ndarray):
        """(M_k, c_max, converged, field) from one build of h.

        M_k = int sigma_{k-1} g(h) dmu with g = f^((n-k+1)/(n-k)), and g = 1
        at k = n, which admits constant profiles only; the run has converged
        once (max h - min h) / mean h < osc_tol.  The principal coefficients
        h kappa_i^2 dF/dkappa_i of kappa1 and of one kappa2 weight symfunc's
        quotient derivative, on the leave-one-out lists of those two (the other
        n - 2 equal the second), by kappa_i^2.
        """
        g, n, k, config = self.grid, self.n, self.k, self.config
        geom = self.build(h)
        if not h.min() > 0.0:  # before the profile reads h; the continuous flow keeps h > 0
            raise NonpositiveSupport(f"support value must be positive everywhere (min {h.min():.6g})")
        value = _mk_integral(geom, np.ones_like(h) if k == n else self.profile.f(h), k)
        kap1, kap2 = geom.kappa1, geom.kappa2
        rests = (_sigmas([kap2] * (n - 1)), _sigmas([kap1] + [kap2] * (n - 2)))
        c1, c2 = _quotient_gradient(geom.sigma, rests, k, (kap1**2, kap2**2))
        c_max = float(np.max(h * np.maximum(c1, c2)))
        hmean = float(np.sum(g.weights * h) / np.sum(g.weights))
        return value, c_max, float((h.max() - h.min()) / hmean) < config.osc_tol, geom


_KERNELS = {"radial": _RadialKernel, "support": _SupportKernel}


def _kernel(grid: SphericalGrid, profile: SpeedProfile | None, config: "FlowConfig"):
    """The stepper kernel of ``config.kind``; no profile means f = 1."""
    if not 1 <= config.k <= grid.n:
        raise ValueError(f"{config.kind} flow needs 1 <= k <= n, got k = {config.k}")
    return _KERNELS[config.kind](grid, profile or SpeedProfile.constant(1.0), config)


# The adaptive step's floor, relative to max(1, t): below it c_max has blown
# up and t would stall.  Beside the time error (cutting the step cap 8x alone
# made it 2-3x worse), the spread cap h a keeps the solve from spreading a
# node's speed over about sqrt(h a) rad (0.2 radial, 0.32 support; rough
# starts, where c_max falls by 1e4, left the flow's range without it).
_DT_FLOOR = 1e-12


def _extrapolated_step(kernel, u: np.ndarray, h: float, spread: float, start: np.ndarray) -> np.ndarray:
    """One linearly implicit Euler step of du/dt = speed(u), extrapolated.

    Level j takes j substeps y += R(s a)(s speed(y)) of s = h / j, with
    R(s a) = (I - s a Delta)^-1 the grid's resolvent and the key
    s a = spread / j for the step's spread a h, so steps of one spread share
    their keys bit for bit; the levels share start = speed(u), which the
    caller has from u's build.  The levels run in lockstep on one stack of
    states: round 1 moves every level from u, and round i moves levels
    i..L with one build and speed of their stacked states and one resolvent
    call, whose keys are the trailing part of round 1's.  Each level sees
    the arithmetic of a level-by-level loop, so the result has its bits.
    At a fixed a the Aitken-Neville tableau over the kernel's L levels has
    order L in h; an adaptive step holds the spread a h instead, and its
    error goes as C spread^L.
    """
    levels = kernel.levels
    substeps = [h / j for j in range(1, levels + 1)]
    keys = [spread / j for j in range(1, levels + 1)]
    s = np.reshape(substeps, (levels,) + (1,) * u.ndim)
    y = kernel.grid.resolvent(s * start, keys)
    y += u
    for i in range(1, levels):  # round i + 1 moves levels i + 1..L
        y[i:] += kernel.grid.resolvent(s[i:] * kernel.speed(kernel.build(y[i:])), keys[i:])
    row = []
    for j in range(1, levels + 1):
        new = [y[j - 1]]
        for k in range(1, j):  # T[j, k+1] = T[j, k] + (T[j, k] - T[j-1, k]) / (j / (j - k) - 1)
            new.append(new[-1] + (new[-1] - row[k - 1]) * ((j - k) / k))
        row = new
    return row[-1]


# ---------------------------------------------------------------------------
# run configuration, trace, main loop


# The relative growth of the monitored integral in one step that is
# recorded as a breach.
_MONO_REL_TOL = 1e-8

# a run of more steps of dt_fixed, or of its kind's step cap, would not finish
_MAX_STEPS = 10**6


@dataclass
class FlowConfig:
    """Run parameters for either flow; the dimension n is the grid's."""

    kind: str                     # 'radial' | 'support'
    t_end: float
    k: int = 1                    # the M_k column; the support flow's E_k too
    cfl: float = 0.2              # accepted and validated; no step is sized by it
    grad_tol: float = 1e-5        # radial convergence: max |grad r|
    hatf_tol: float = 5e-4        # radial convergence: |fhat(r_mean)|
    osc_tol: float = 1e-4         # support convergence: (h_max - h_min)/h_mean
    output_interval: float | None = None
    dt_fixed: float | None = None
    force: bool = False

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        for name in ("t_end", "cfl", "grad_tol", "hatf_tol", "osc_tol", "output_interval", "dt_fixed"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0 < value < math.inf or value is None and name in ("output_interval", "dt_fixed")):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if self.t_end < sys.float_info.min:  # run_flow's 1e-9 t_end and t_end / 400 would be 0
            raise ValueError(f"t_end must be at least {sys.float_info.min!r}, got {self.t_end!r}")
        if not self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")
        dt, name = (self.dt_fixed, "dt_fixed") if self.dt_fixed else (_KERNELS[self.kind].caps[0], "step cap")
        if not self.t_end / dt <= _MAX_STEPS:
            raise ValueError(f"{name} {dt!r} takes more than {_MAX_STEPS} steps to t_end {self.t_end!r}")


@dataclass(frozen=True)
class BreachEvent:
    """A recorded violation of a monitored discrete inequality."""

    t: float
    kind: str       # 'monotone' | 'range'
    size: float
    rel: float


@dataclass
class FlowTrace:
    """Diagnostics time series of one flow run."""

    kind: str
    n: int
    k: int
    rows: list = dataclass_field(default_factory=list)
    breaches: list = dataclass_field(default_factory=list)
    status: str = "Running"
    t_final: float = 0.0
    meta: dict = dataclass_field(default_factory=dict)

    def values(self, key: str) -> np.ndarray:
        return np.asarray([row[key] for row in self.rows])

    def write_csv(self, path):
        columns = list(self.rows[0])  # the header; every row is read by it
        write_csv(path, columns, ([float(row[c]) for c in columns] for row in self.rows))

    def summary(self) -> dict:
        """The run's facts that trace.csv does not hold: its rows' values stay there."""
        out = {
            "schema": "curvelab.flow-summary/2",
            "status": self.status,
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "t_final": self.t_final,
            "breach_count": len(self.breaches),
        }
        out.update((key, value) for key, value in self.meta.items() if key != "final_state")
        return out


# Queued rows are computed in batches of this many nodes: 7 states of 40, 1 of 24x48.
_ROW_BATCH_NODES = 256


def _diagnostic_row(kernel, states, builds, ts, dts) -> list:
    """The diagnostic rows of accepted states: the public functionals on one stacked field.

    A state that fills a batch alone brings its build; states that share a
    batch bring no build, and kernel.build makes one field of their stack.
    Each column has the bits, and each error the type, of a call on its
    state alone; M_n under a non-constant density is NaN.  A row's keys, in
    order, are trace.csv's columns."""
    grid = kernel.grid
    geom = builds[0] if builds[0] is not None else kernel.build(np.stack(states))
    u = geom.scalar
    f = _density_values(geom, kernel.profile.f(u))
    r_min, r_max = geom.radius_stats()
    columns = {
        "Q": _q_integral(geom, f), **{f"V_{j}": v for j, v in enumerate(quermassintegrals(geom)[:-1])},
        "M_k": _mk_integral(geom, f, kernel.config.k),
        "grad_max": np.sqrt(grid.reduce(sum(c * c for c in geom.grad), "max")),  # sqrt is monotone
        "oscillation": (grid.reduce(u, "max") - grid.reduce(u, "min"))
        / (grid.integrate(u) / np.sum(grid.weights)),
        "margin": static_convexity(geom).margin, "sphericity": sphericity(geom),
        "r_min": r_min, "r_max": r_max, "area": geom.total_area(), "volume": geom.volume,
    }
    values = zip(ts, dts, *(np.atleast_1d(column).tolist() for column in columns.values()))
    return [dict(zip(["t", "dt", *columns], row)) for row in values]


def run_flow(initial: ScalarField, profile: SpeedProfile | None, config: FlowConfig) -> FlowTrace:
    """Integrate a flow from ``initial`` until convergence or t_end.

    Radial runs require a starshaped start and an admissible pinned profile;
    support runs require a strictly convex start (the static-convexity margin
    is recorded but cannot be demanded positive: only origin-centred spheres
    achieve it).  ``config.force`` downgrades profile admissibility failures
    to recorded warnings for monotonicity-only studies, but not a profile
    that is not positive and finite ("not-positive") nor a start whose Q or
    M_k sum overflows ("not-finite").  Row 0, the start's, is in every trace,
    the partial one a StepCollapse carries too.
    """
    grid = initial.grid
    n = grid.n
    kernel = _kernel(grid, profile, config)
    profile = kernel.profile

    trace = FlowTrace(kind=config.kind, n=n, k=config.k)
    trace.meta["config"] = {  # kind, n and k are the trace's own fields
        "t_end": config.t_end, "grad_tol": config.grad_tol,
        "osc_tol": config.osc_tol, "hatf_tol": config.hatf_tol,
    }

    if config.kind == "radial":
        r0 = initial.values
        r_star = float(r0.min())  # a forced run without a zero bands the start alone
        try:
            r_star = validate_radial_profile(profile, n, config.k)
            trace.meta["r_star"] = r_star
        except AssumptionViolated as exc:
            if not config.force or exc.kind == "not-positive":
                raise
            trace.meta["profile_violation"] = f"{exc.kind}: {exc}"
        lo = min(r_star, float(r0.min()))
        hi = max(r_star, float(r0.max()))
        range_band = (lo - 1e-6 * hi, hi + 1e-6 * hi)
    else:
        report = validate_support_profile(profile, n, config.k)
        trace.meta["profile_report"] = report.detail
        if not report.ok and not config.force:
            raise AssumptionViolated("support-profile", report.detail)
        range_band = None

    state = initial.values.copy()  # final_state is never the caller's array
    t = 0.0
    steps = 0
    with np.errstate(over="ignore"):  # a sum past the float range reads as inf
        mono_prev, c_max, _, build = kernel.assess(state)  # raises on bad input, before any step
        f = _density_values(build, profile.f(state))  # row 0's density, and its error
        sums = _q_integral(build, f), _mk_integral(build, f, config.k)
    if math.inf in sums:  # the domain check bounds f's powers at a node, not their sum over the surface
        raise AssumptionViolated("not-finite", f"the start's Q or M_k sum overflows (Q = {sums[0]:.3g}, "
                                 f"M_k = {sums[1]:.3g}); scale the profile down")
    mono_scale = max(abs(mono_prev), 1e-300)
    rise = 0.0  # the monitored integral's cumulative positive variation
    row_tol = 1e-9 * config.t_end  # t += dt drifts off the output times and t_end
    output_interval = max(config.output_interval or config.t_end / 400.0, row_tol)
    next_output = output_interval

    def queue_row(state, build, t, dt):  # states that share a batch are built there, as one stack
        queue.append((state, build if state.size >= _ROW_BATCH_NODES else None, t, dt))

    def flush(at_nodes=0):
        if queue and len(queue) * state.size >= at_nodes:
            trace.rows.extend(_diagnostic_row(kernel, *zip(*queue)))
            queue.clear()

    def finish(status):  # every queued row first
        flush()
        trace.status, trace.t_final = status, t
        trace.meta.update(steps=steps, mono_rise=rise / mono_scale)

    def collapse(message, cause=None):
        finish("error:StepCollapse")
        raise StepCollapse(message, trace) from cause

    queue = []  # (state, build or None, t, dt) of the states awaiting their rows
    queue_row(state, build, 0.0, 0.0)
    status = "TimeExhausted"
    while t < config.t_end - row_tol:
        flush(_ROW_BATCH_NODES)
        if config.dt_fixed:
            dt = config.dt_fixed
        else:
            dt = min(kernel.caps[0], kernel.caps[1] / c_max)
            if dt < _DT_FLOOR * max(1.0, t):  # at least 4e3 ulps of t, so t + dt > t too
                collapse(f"adaptive step {dt:.3g} at t = {t:.6g} is below the floor")
        clip = dt > config.t_end - t + row_tol
        if clip:
            dt = config.t_end - t
        spread = c_max * dt if config.dt_fixed or clip else kernel.caps[1]
        # the state's build gives the start speed and is dropped: holding it
        # across the step or taking the speed inside assess raised peak RSS by
        # 0.1-0.2 MB, and queueing the builds of 40-node states (radial-axisym)
        # raised it by about 0.19 MB in 10 of 10 pairs, where holding the
        # states and building each batch once did not
        start, build = kernel.speed(build), None
        try:
            new_state = _extrapolated_step(kernel, state, dt, spread, start)
            mono_new, c_max, converged, build = kernel.assess(new_state)
        except _GEOM_ERRORS as exc:
            collapse(f"step from t = {t:.6g} failed at dt = {dt:.3g}: {exc}", exc)
        breach = mono_new - mono_prev
        if breach > _MONO_REL_TOL * abs(mono_prev):
            trace.breaches.append(BreachEvent(t + dt, "monotone", breach, breach / max(abs(mono_prev), 1e-300)))
        rise += max(breach, 0.0)
        state, mono_prev = new_state, mono_new
        t += dt
        steps += 1

        if range_band is not None:
            rmin, rmax = float(state.min()), float(state.max())
            if rmin < range_band[0] or rmax > range_band[1]:
                trace.breaches.append(
                    BreachEvent(t, "range", max(range_band[0] - rmin, rmax - range_band[1]), 0.0)
                )

        if converged or t >= min(next_output, config.t_end) - row_tol:  # the last state too
            queue_row(state, build, t, dt)  # then the first output time past t, in closed form
            # (an interval of at least row_tol keeps the quotient below about 1e9)
            next_output = ((t + row_tol) // output_interval + 1) * output_interval
        if converged:
            status = "Converged"
            break

    finish(status)
    if config.kind == "support":  # V_{k-1} is conserved
        v0, v1 = trace.rows[0][f"V_{config.k - 1}"], trace.rows[-1][f"V_{config.k - 1}"]
        trace.meta["conserved_drift"] = abs(v1 - v0) / abs(v0)
    trace.meta["final_state"] = state
    return trace


# ---------------------------------------------------------------------------
# post-run estimates and consistency diagnostics


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential decay rate of the gradient norm."""

    gamma: float
    r_squared: float
    n_samples: int


def estimate_decay_rate(trace: FlowTrace) -> DecayFit:
    """Fit log(max |grad r|) against t over the final half of a run with >= 10 positive samples.

    The line is least squares in closed form on centred data, slope =
    sum u (g - mean g) / sum u^2 with u = (t - mean t) / span in units of the
    window's span, so that no sum of squares under- or overflows at any t_end;
    R^2 is 1 - ss_res / ss_tot, and 1 when log g is constant.  A flow run
    thus never calls LAPACK (np.polyfit solves by lstsq), whose first call
    maps its pages into the process.
    """
    t = trace.values("t")
    g = trace.values("grad_max")
    mask = np.isfinite(g) & (g > 0.0)
    t, g = t[mask], g[mask]
    if t.size < 10:
        raise InsufficientData(
            f"need at least 10 positive gradient samples, have {t.size}"
        )
    half = t.size // 2
    t, g = t[half:], np.log(g[half:])
    span = float(t[-1] - t[0])
    if span <= 0:
        raise InsufficientData("the final-half window spans no time")
    u, gc = (t - t.mean()) / span, g - g.mean()
    slope = np.dot(u, gc) / np.dot(u, u)
    ss_res = float(np.sum((gc - slope * u) ** 2))
    ss_tot = float(np.sum(gc**2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DecayFit(gamma=-float(slope) / span, r_squared=r2, n_samples=t.size)


def area_evolution_consistency(
    initial: ScalarField, profile: SpeedProfile | None, config: FlowConfig
) -> dict:
    """Compare finite-difference d(area)/dt with the first-variation integral.

    The surface measure evolves by d(dmu)/dt = n E_1 Phi dmu = H Phi dmu for
    normal speed Phi.  One extrapolated step at 1e-3 of the kernel's
    adaptive step min(step, spread / c_max) is taken; the finite difference
    of the total area is matched against the average of int H Phi dmu at
    the two endpoints.
    """
    grid = initial.grid
    kernel = _kernel(grid, profile, config)

    def rate(geom):
        phi = kernel.speed(geom) / (geom.scalar / geom.support)  # v = r / <X, nu>; 1 for support, h = <X, nu>
        return float(np.sum(geom.area_weights * geom.H * phi)), geom.total_area()

    _, c_max, _, build = kernel.assess(initial.values)
    dt = min(kernel.caps[0], kernel.caps[1] / c_max) / 1000.0
    new_state = _extrapolated_step(kernel, initial.values, dt, c_max * dt, kernel.speed(build))

    rate0, area0 = rate(build)
    rate1, area1 = rate(kernel.build(new_state))
    fd = (area1 - area0) / dt
    integral = 0.5 * (rate0 + rate1)
    return {
        "dt": dt,
        "fd_rate": fd,
        "integral_rate": integral,
        "rel_error": abs(fd - integral) / max(abs(integral), 1e-300),
    }
