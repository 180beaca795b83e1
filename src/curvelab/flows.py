"""Time integration of the two locally constrained curvature flows.

Radial flow (starshaped graphs).  With v = sqrt(1 + |grad r|^2 / r^2) the
radial function obeys

    dr/dt = -(f(r) H + n/(n-1) f'(r) v) v,

so every sphere r = R moves by dR/dt = -(n/(n-1)) R fhat(R) where
fhat(r) = (n-1) f / r^2 + f' / r.  A profile is admissible when fhat is
strictly increasing with a zero r*; the zero is then the attracting round
sphere.  Along the flow Q = int f^(n/(n-1)) dmu never increases, for every
positive smooth profile.

Support flow (strictly convex bodies).  The support function obeys

    dh/dt = 1 - h E_k / E_{k-1}

evaluated on the principal curvatures; every origin-centred sphere is
stationary, the (k-1)-th quermassintegral is conserved, and
M_k = int sigma_{k-1} f^((n-k+1)/(n-k)) dmu never increases when
g = f^((n-k+1)/(n-k)) is convex and nondecreasing in h.

Stepping is explicit RK4 with a parabolic step size
dt = cfl * (min spacing)^2 * (min scale)^2 / (n * max coefficient); on any
geometry error or monotonicity breach the step halves and retries, and
breaches that survive the retry budget are recorded as events rather than
aborting the run (transient discrete violations are diagnostics, not
failures).  Full-s2 runs pass the state through the grid's zonal filter each
step so the pole-convergent phi columns do not force their own step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    AssumptionViolated,
    ConeViolation,
    ConvexityLost,
    CurveLabError,
    DegenerateMetric,
    InsufficientData,
    NotStarshaped,
    StepCollapse,
)
from .functionals import monotone_quantities, quermassintegrals
from .geometry import (
    CurvatureField,
    _radial_pair,
    _support_radii,
    radial_geometry,
    sphericity,
    static_convexity,
    support_geometry,
)
from .sphere_grid import ScalarField, SphericalGrid
from .symfunc import sigma_pair, sigma_quotient

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
    conditions are checked.
    """

    def __init__(self, kind, fns, domain, params=None):
        self.kind = kind
        self._f, self._df, self._d2f = fns
        self.domain = (float(domain[0]), float(domain[1]))
        self.params = dict(params or {})

    def f(self, x):
        return self._f(np.asarray(x, float))

    def df(self, x):
        return self._df(np.asarray(x, float))

    def d2f(self, x):
        return self._d2f(np.asarray(x, float))

    def hat(self, x, n: int):
        """fhat(x) = (n-1) f / x^2 + f' / x, the sphere-family forcing."""
        x = np.asarray(x, float)
        return (n - 1) * self.f(x) / x**2 + self.df(x) / x

    @property
    def is_constant(self) -> bool:
        lo, hi = self.domain
        xs = np.linspace(lo, hi, 17)
        return float(np.abs(self.df(xs)).max()) <= 1e-14 * (1.0 + float(np.abs(self.f(xs)).max()))

    @classmethod
    def constant(cls, value: float, domain=(1e-2, 100.0)) -> "SpeedProfile":
        if value <= 0:
            raise ValueError("constant profile must be positive")
        v = float(value)
        return cls(
            "constant",
            (lambda x: np.full_like(x, v), np.zeros_like, np.zeros_like),
            domain,
            {"value": v},
        )

    @classmethod
    def power_exp_pinned(cls, n: int, r_star: float = 1.0, domain=None) -> "SpeedProfile":
        """f(r) = r^(1-n) exp((r - r*)^2 / 2); then fhat = f (r - r*) / r.

        fhat vanishes exactly at r*, so the flow pins the limit sphere there.
        """
        rs = float(r_star)
        if domain is None:
            domain = (0.5 * rs, 1.8 * rs)

        def f(x):
            return x ** (1.0 - n) * np.exp(0.5 * (x - rs) ** 2)

        def df(x):
            return f(x) * ((1.0 - n) / x + (x - rs))

        def d2f(x):
            u = (1.0 - n) / x + (x - rs)
            return f(x) * (u * u + (n - 1.0) / x**2 + 1.0)

        return cls("power-exp-pinned", (f, df, d2f), domain, {"n": n, "r_star": rs})

    @classmethod
    def power(cls, exponent: float, domain=(1e-2, 100.0)) -> "SpeedProfile":
        """f(x) = x^exponent.  At exponent 1 - n the sphere forcing fhat
        vanishes identically and every centred sphere is stationary."""
        p = float(exponent)

        def f(x):
            return x**p

        def df(x):
            return p * x ** (p - 1.0)

        def d2f(x):
            return p * (p - 1.0) * x ** (p - 2.0)

        return cls("power", (f, df, d2f), domain, {"exponent": p})

    @classmethod
    def affine_power(cls, a: float, b: float, n: int, k: int, domain=(1e-2, 100.0)) -> "SpeedProfile":
        """f(h) = (a h + b)^((n-k)/(n-k+1)); its admissibility transform is linear."""
        if a <= 0 or b <= 0:
            raise ValueError("affine_power needs a, b > 0")
        e = (n - k) / (n - k + 1.0)

        def f(x):
            return (a * x + b) ** e

        def df(x):
            return a * e * (a * x + b) ** (e - 1.0)

        def d2f(x):
            return a * a * e * (e - 1.0) * (a * x + b) ** (e - 2.0)

        return cls("affine-power", (f, df, d2f), domain, {"a": a, "b": b, "n": n, "k": k})

    @classmethod
    def tabulated(cls, x, values, domain=None) -> "SpeedProfile":
        """Cubic-spline profile through (x, values) samples.

        The analytic spline derivative is checked against central finite
        differences of the interpolant at load; a mismatch indicates a
        corrupt table.
        """
        x = np.asarray(x, float)
        values = np.asarray(values, float)
        if x.ndim != 1 or x.size < 4 or values.shape != x.shape:
            raise ValueError("tabulated profile needs >= 4 aligned samples")
        if np.any(np.diff(x) <= 0):
            raise ValueError("sample abscissae must be strictly increasing")
        spline = CubicSpline(x, values)
        d1 = spline.derivative(1)
        d2 = spline.derivative(2)
        if domain is None:
            domain = (float(x[0]), float(x[-1]))
        prof = cls("tabulated", (spline, d1, d2), domain, {"points": x.size})
        xs = np.linspace(domain[0], domain[1], 101)[1:-1]
        eps = 1e-5 * (domain[1] - domain[0])
        fd = (prof.f(xs + eps) - prof.f(xs - eps)) / (2 * eps)
        scale = 1.0 + np.abs(fd).max()
        if np.abs(fd - prof.df(xs)).max() > 1e-6 * scale:
            raise ValueError("tabulated profile failed the derivative consistency check")
        return prof


@dataclass(frozen=True)
class SupportProfileReport:
    """Outcome of the support-flow admissibility check on g = f^((n-k+1)/(n-k))."""

    ok: bool
    detail: str
    worst_x: float | None = None
    min_slope: float | None = None
    min_convexity: float | None = None


def validate_radial_profile(profile: SpeedProfile, n: int, interval=None, samples: int = 2001) -> float:
    """Check that fhat is strictly increasing with a sign change; return its zero.

    Raises AssumptionViolated with kind "not-increasing" (monotonicity fails,
    ``where`` holds the offending subinterval) or "no-zero" (no strict sign
    change, including the degenerate profile with fhat identically zero).
    The zero is bracketed and bisected to 1e-10.
    """
    lo, hi = interval if interval is not None else profile.domain
    xs = np.linspace(lo, hi, samples)
    fv = profile.f(xs)
    if fv.min() <= 0:
        raise AssumptionViolated("not-positive", "profile must be positive on the interval")
    fh = profile.hat(xs, n)
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


def validate_support_profile(
    profile: SpeedProfile, n: int, k: int, interval=None, samples: int = 2001
) -> SupportProfileReport:
    """Check that g = f^((n-k+1)/(n-k)) is nondecreasing and convex in h.

    Constant profiles pass for every k (g is then constant, the non-strict
    case).  For k = n the exponent is undefined, so only constant profiles
    are admissible.
    """
    lo, hi = interval if interval is not None else profile.domain
    xs = np.linspace(lo, hi, samples)
    fv = profile.f(xs)
    if fv.min() <= 0:
        return SupportProfileReport(False, "profile must be positive on the interval")
    if profile.is_constant:
        return SupportProfileReport(True, "constant profile: g constant (non-strict pass)")
    if k >= n:
        return SupportProfileReport(
            False, f"k = {k} with n = {n}: the exponent (n-k+1)/(n-k) is undefined "
            "for non-constant profiles"
        )
    p = (n - k + 1.0) / (n - k)
    f1 = profile.df(xs)
    f2 = profile.d2f(xs)
    g1 = p * fv ** (p - 1.0) * f1
    g2 = p * (p - 1.0) * fv ** (p - 2.0) * f1**2 + p * fv ** (p - 1.0) * f2
    tol1 = 1e-12 * (1.0 + float(np.abs(g1).max()))
    tol2 = 1e-12 * (1.0 + float(np.abs(g2).max()))
    if g1.min() < -tol1:
        i = int(np.argmin(g1))
        return SupportProfileReport(
            False, f"g is decreasing near h = {xs[i]:.6g}", float(xs[i]),
            float(g1.min()), float(g2.min()),
        )
    if g2.min() < -tol2:
        i = int(np.argmin(g2))
        return SupportProfileReport(
            False, f"g is concave near h = {xs[i]:.6g}", float(xs[i]),
            float(g1.min()), float(g2.min()),
        )
    return SupportProfileReport(True, "g nondecreasing and convex", None,
                                float(g1.min()), float(g2.min()))


# ---------------------------------------------------------------------------
# stepper kernels

_GEOM_ERRORS = (NotStarshaped, ConvexityLost, ConeViolation, DegenerateMetric)


class _RadialKernel:
    """Fused radial-flow evaluations: dr/dt = -(f H + n/(n-1) f' v) v."""

    monotone_name = "Q"

    def __init__(self, grid: SphericalGrid, profile: SpeedProfile, n: int):
        self.grid = grid
        self.profile = profile
        self.n = n

    def speed(self, r: np.ndarray) -> np.ndarray:
        n = self.n
        kappa1, kappa2, rho, _ = _radial_pair(self.grid, r)
        H = kappa1 + (n - 1) * kappa2
        v = rho / r  # sqrt(1 + |grad r|^2 / r^2)
        f = self.profile.f(r)
        fp = self.profile.df(r)
        return -(f * H + n / (n - 1.0) * fp * v) * v

    def stable_dt(self, r: np.ndarray, cfl: float) -> float:
        fmax = float(self.profile.f(r).max())
        dt = cfl * self.grid.min_spacing**2 * float(r.min()) ** 2 / (self.n * fmax)
        if self.grid.mode == "full-s2":
            # the zonal filter retains m <= 2 at the pole rows, whose discrete
            # eigenvalue exceeds the theta budget by up to ~1.6x; halve the
            # step so those modes stay inside the RK4 stability region
            dt *= 0.5
        return dt

    def monotone_value(self, r: np.ndarray) -> float:
        g, n = self.grid, self.n
        grad = g.gradient(r)
        q = sum(c * c for c in grad)
        dmu = r ** (n - 1) * np.sqrt(r * r + q)
        return float(np.sum(g.weights * self.profile.f(r) ** (n / (n - 1.0)) * dmu))

    def conserved_value(self, r: np.ndarray) -> float | None:
        return None

    def metrics(self, r: np.ndarray) -> dict:
        g = self.grid
        grad = g.gradient(r)
        gmax = float(np.sqrt(sum(c * c for c in grad)).max())
        rmean = float(np.sum(g.weights * r) / np.sum(g.weights))
        return {
            "grad_max": gmax,
            "oscillation": float((r.max() - r.min()) / rmean),
            "scalar_mean": rmean,
        }

    def converged(self, metrics: dict, config: "FlowConfig") -> bool:
        hat = abs(float(self.profile.hat(metrics["scalar_mean"], self.n)))
        return metrics["grad_max"] < config.grad_tol and hat < config.hatf_tol

    def geometry(self, r: np.ndarray) -> CurvatureField:
        return radial_geometry(ScalarField(self.grid, r))


class _SupportKernel:
    """Fused support-flow evaluations: dh/dt = 1 - h E_k / E_{k-1}.

    Works from the principal radii alone, so no step builds a full geometry.
    """

    monotone_name = "M_k"

    def __init__(self, grid: SphericalGrid, profile: SpeedProfile, n: int, k: int):
        self.grid = grid
        self.profile = profile
        self.n = n
        self.k = k

    def _radii(self, h: np.ndarray):
        """Principal radii (rho1, rho2) of multiplicities 1 and n - 1."""
        rho1, rho2, _ = _support_radii(self.grid, h)
        return rho1, rho2

    def _sigma(self, h: np.ndarray):
        """Radii (rho1, rho2) and sigma_0..sigma_n of the principal curvatures."""
        rho1, rho2 = self._radii(h)
        return rho1, rho2, sigma_pair(1.0 / rho1, 1.0 / rho2, self.n)

    def speed(self, h: np.ndarray) -> np.ndarray:
        _, _, sig = self._sigma(h)
        return 1.0 - h * sigma_quotient(sig, self.k)

    def stable_dt(self, h: np.ndarray, cfl: float) -> float:
        rho1, rho2 = self._radii(h)
        rho_min = min(float(rho1.min()), float(rho2.min()))
        return (
            cfl * self.grid.min_spacing**2 * rho_min**2
            / (self.n * self.k * float(np.abs(h).max()))
        )

    def _g_factor(self, h: np.ndarray):
        if self.k == self.n:
            return 1.0  # constant-profile regime; constant factors do not matter
        p = (self.n - self.k + 1.0) / (self.n - self.k)
        return self.profile.f(h) ** p

    def monotone_value(self, h: np.ndarray) -> float:
        rho1, rho2, sig = self._sigma(h)
        dmu = rho1 * rho2 ** (self.n - 1)
        return float(np.sum(self.grid.weights * sig[self.k - 1] * self._g_factor(h) * dmu))

    def conserved_value(self, h: np.ndarray) -> float:
        rho1, rho2, sig = self._sigma(h)
        dmu = rho1 * rho2 ** (self.n - 1)
        if self.k == 1:
            return float(np.sum(self.grid.weights * h * dmu))  # V_0 = int h dmu
        e = sig[self.k - 2] / math.comb(self.n, self.k - 2)
        return float(np.sum(self.grid.weights * e * dmu))

    def metrics(self, h: np.ndarray) -> dict:
        g = self.grid
        grad = g.gradient(h)
        hmean = float(np.sum(g.weights * h) / np.sum(g.weights))
        return {
            "grad_max": float(np.sqrt(sum(c * c for c in grad)).max()),
            "oscillation": float((h.max() - h.min()) / hmean),
            "scalar_mean": hmean,
        }

    def converged(self, metrics: dict, config: "FlowConfig") -> bool:
        return metrics["oscillation"] < config.osc_tol

    def geometry(self, h: np.ndarray) -> CurvatureField:
        return support_geometry(ScalarField(self.grid, h))


def _rk4_step(kernel, u: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of du/dt = kernel.speed(u).

    On full-s2 grids the result passes the zonal filter, which strips the
    pole-row modes the m^2 / sin^2(theta) factors would otherwise amplify.
    """
    k1 = kernel.speed(u)
    k2 = kernel.speed(u + 0.5 * dt * k1)
    k3 = kernel.speed(u + 0.5 * dt * k2)
    k4 = kernel.speed(u + dt * k3)
    new = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if kernel.grid.mode == "full-s2":
        new = kernel.grid.zonal_filter(new)
    return new


# ---------------------------------------------------------------------------
# run configuration, trace, main loop


# Adaptive stepping: the smallest step tried before StepCollapse, the
# halvings spent on one monotonicity breach, and the relative growth of the
# monitored integral that counts as a breach.
_DT_MIN = 1e-12
_MAX_HALVINGS = 40
_MONO_REL_TOL = 1e-8


@dataclass
class FlowConfig:
    """Run parameters for either flow; the dimension n is the grid's."""

    kind: str                     # 'radial' | 'support'
    t_end: float
    k: int = 1                    # support flow only
    cfl: float = 0.2
    grad_tol: float = 1e-5        # radial convergence: max |grad r|
    hatf_tol: float = 5e-4        # radial convergence: |fhat(r_mean)|
    osc_tol: float = 1e-4         # support convergence: (h_max - h_min)/h_mean
    output_interval: float | None = None
    dt_fixed: float | None = None
    force: bool = False

    def __post_init__(self):
        if self.kind not in ("radial", "support"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        for name in ("grad_tol", "hatf_tol", "osc_tol", "output_interval", "dt_fixed"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")


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

    @property
    def columns(self) -> list:
        base = ["t", "dt", "Q"]
        base += [f"V_{j}" for j in range(self.n + 1)]
        base += [
            "M_k", "grad_max", "oscillation", "margin", "sphericity",
            "r_min", "r_max", "area", "volume",
        ]
        return base

    @property
    def times(self) -> np.ndarray:
        return np.asarray([row["t"] for row in self.rows])

    def values(self, key: str) -> np.ndarray:
        return np.asarray([row[key] for row in self.rows])

    def append(self, row: dict):
        if self.rows and row["t"] <= self.rows[-1]["t"]:
            return  # keep time stamps strictly increasing
        self.rows.append(row)

    def write_csv(self, path):
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([repr(float(row[c])) for c in self.columns])

    def summary(self) -> dict:
        out = {
            "schema": "curvelab.flow-summary/1",
            "status": self.status,
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "t_final": self.t_final,
            "steps": self.meta.get("steps"),
            "breach_count": len(self.breaches),
        }
        if self.rows:
            last = self.rows[-1]
            out["final"] = {
                "r_min": last["r_min"],
                "r_max": last["r_max"],
                "grad_max": last["grad_max"],
                "oscillation": last["oscillation"],
                "Q": last["Q"],
                "margin": last["margin"],
            }
        out.update({k: v for k, v in self.meta.items() if k not in ("steps",)})
        return out


def _diagnostic_row(kernel, state, t, dt, config) -> dict:
    geom = kernel.geometry(state)
    quermass = quermassintegrals(geom)
    f_vals = kernel.profile.f(state)
    try:
        q_value, mk = monotone_quantities(geom, f_vals, config.k)
    except ValueError:
        q_value, _ = monotone_quantities(geom, f_vals, 1)
        mk = float("nan")
    try:
        margin = static_convexity(geom).margin
    except CurveLabError:
        margin = float("nan")
    metrics = kernel.metrics(state)
    r_lo, r_hi, _ = geom.radius_stats()
    row = {
        "t": t,
        "dt": dt,
        "Q": q_value,
        "M_k": mk,
        "grad_max": metrics["grad_max"],
        "oscillation": metrics["oscillation"],
        "margin": margin,
        "sphericity": sphericity(geom),
        "r_min": r_lo,
        "r_max": r_hi,
        "area": geom.total_area(),
        "volume": geom.volume(),
    }
    for j in range(geom.n + 1):
        row[f"V_{j}"] = quermass[j]
    return row


def run_flow(initial: ScalarField, profile: SpeedProfile | None, config: FlowConfig) -> FlowTrace:
    """Integrate a flow from ``initial`` until convergence or t_end.

    Radial runs require a starshaped start and an admissible pinned profile;
    support runs require a strictly convex start (the static-convexity margin
    is recorded but cannot be demanded positive: only origin-centred spheres
    achieve it).  ``config.force`` downgrades profile admissibility failures
    to recorded warnings for monotonicity-only studies.
    """
    grid = initial.grid
    n = grid.n
    if config.kind == "support" and not 1 <= config.k <= n:
        raise ValueError(f"support flow needs 1 <= k <= n, got k = {config.k}")
    if profile is None:
        profile = SpeedProfile.constant(1.0)

    trace = FlowTrace(kind=config.kind, n=n, k=config.k)
    trace.meta["config"] = {
        "kind": config.kind, "n": n, "k": config.k, "cfl": config.cfl,
        "t_end": config.t_end, "grad_tol": config.grad_tol,
        "osc_tol": config.osc_tol, "hatf_tol": config.hatf_tol,
    }

    if config.kind == "radial":
        kernel = _RadialKernel(grid, profile, n)
        try:
            r_star = validate_radial_profile(profile, n)
            trace.meta["r_star"] = r_star
        except AssumptionViolated as exc:
            if not config.force:
                raise
            trace.meta["profile_violation"] = f"{exc.kind}: {exc}"
            r_star = None
        geom0 = radial_geometry(initial)  # raises NotStarshaped on bad input
        r0 = initial.values
        lo = min(r_star, float(r0.min())) if r_star is not None else float(r0.min())
        hi = max(r_star, float(r0.max())) if r_star is not None else float(r0.max())
        range_band = (lo - 1e-6 * hi, hi + 1e-6 * hi)
    else:
        kernel = _SupportKernel(grid, profile, n, config.k)
        report = validate_support_profile(profile, n, config.k)
        trace.meta["profile_report"] = report.detail
        if not report.ok and not config.force:
            raise AssumptionViolated("support-profile", report.detail)
        geom0 = support_geometry(initial)  # raises ConvexityLost on bad input
        trace.meta["initial_margin"] = static_convexity(geom0).margin
        range_band = None

    state = grid.zonal_filter(initial.values) if grid.mode == "full-s2" else initial.values.copy()
    t = 0.0
    steps = 0
    mono_prev = kernel.monotone_value(state)
    conserved0 = kernel.conserved_value(state)
    output_interval = config.output_interval or config.t_end / 400.0
    next_output = output_interval

    trace.append(_diagnostic_row(kernel, state, 0.0, 0.0, config))

    status = "TimeExhausted"
    last_dt = 0.0
    while t < config.t_end - 1e-15:
        if config.dt_fixed is not None:
            dt = min(config.dt_fixed, config.t_end - t)
        else:
            dt = min(kernel.stable_dt(state, config.cfl), config.t_end - t)
        halvings = 0
        while True:
            try:
                new_state = _rk4_step(kernel, state, dt)
                mono_new = kernel.monotone_value(new_state)
            except _GEOM_ERRORS as exc:
                if config.dt_fixed is None and dt * 0.5 >= _DT_MIN:
                    dt *= 0.5
                    halvings += 1
                    continue
                trace.status = "error:StepCollapse"
                trace.t_final = t
                trace.meta["steps"] = steps
                raise StepCollapse(
                    f"step from t = {t:.6g} failed at dt = {dt:.3g}: {exc}", trace
                ) from exc
            breach = mono_new - mono_prev
            tol = _MONO_REL_TOL * abs(mono_prev)
            if breach > tol and config.dt_fixed is None and halvings < _MAX_HALVINGS and dt * 0.5 >= _DT_MIN:
                dt *= 0.5
                halvings += 1
                continue
            break
        if breach > tol:
            trace.breaches.append(BreachEvent(t + dt, "monotone", breach, breach / max(abs(mono_prev), 1e-300)))
        state = new_state
        mono_prev = mono_new
        t += dt
        last_dt = dt
        steps += 1

        if range_band is not None:
            rmin, rmax = float(state.min()), float(state.max())
            if rmin < range_band[0] or rmax > range_band[1]:
                trace.breaches.append(
                    BreachEvent(t, "range", max(range_band[0] - rmin, rmax - range_band[1]), 0.0)
                )

        metrics = kernel.metrics(state)
        if t >= next_output - 1e-15:
            trace.append(_diagnostic_row(kernel, state, t, dt, config))
            while next_output <= t + 1e-15:
                next_output += output_interval
        if kernel.converged(metrics, config):
            status = "Converged"
            break

    trace.append(_diagnostic_row(kernel, state, t, last_dt, config))
    trace.status = status
    trace.t_final = t
    trace.meta["steps"] = steps
    if conserved0 is not None:
        conserved_final = kernel.conserved_value(state)
        trace.meta["conserved_initial"] = conserved0
        trace.meta["conserved_final"] = conserved_final
        trace.meta["conserved_drift"] = abs(conserved_final - conserved0) / abs(conserved0)
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


def estimate_decay_rate(trace: FlowTrace, min_samples: int = 10) -> DecayFit:
    """Fit log(max |grad r|) against t over the final half of the run."""
    t = trace.times
    g = trace.values("grad_max")
    mask = np.isfinite(g) & (g > 0.0)
    t, g = t[mask], g[mask]
    if t.size < min_samples:
        raise InsufficientData(
            f"need at least {min_samples} positive gradient samples, have {t.size}"
        )
    half = t.size // 2
    t, g = t[half:], np.log(g[half:])
    if t.size < 3 or t[-1] - t[0] <= 0:
        raise InsufficientData("final-half window is too short to fit")
    slope, intercept = np.polyfit(t, g, 1)
    residual = g - (slope * t + intercept)
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((g - g.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DecayFit(gamma=-float(slope), r_squared=r2, n_samples=t.size)


def area_evolution_consistency(
    initial: ScalarField, profile: SpeedProfile | None, config: FlowConfig
) -> dict:
    """Compare finite-difference d(area)/dt with the first-variation integral.

    The surface measure evolves by d(dmu)/dt = n E_1 Phi dmu = H Phi dmu for
    normal speed Phi.  One RK4 step at a tenth of the stability-limit step is
    taken; the finite difference of the total area is matched against the
    average of int H Phi dmu at the two endpoints.
    """
    grid = initial.grid
    n = grid.n
    if profile is None:
        profile = SpeedProfile.constant(1.0)
    if config.kind == "radial":
        kernel = _RadialKernel(grid, profile, n)
    else:
        kernel = _SupportKernel(grid, profile, n, config.k)

    def rate(u):
        geom = kernel.geometry(u)
        speed = kernel.speed(u)
        if config.kind == "radial":
            v = u / geom.support
            phi = speed / v
        else:
            phi = speed
        w = grid.weights * geom.area_factor
        return float(np.sum(w * geom.H * phi)), geom.total_area()

    # states are treated exactly as the integrator treats accepted states
    state = grid.zonal_filter(initial.values) if grid.mode == "full-s2" else initial.values
    dt = kernel.stable_dt(state, 1.0) / 10.0
    new_state = _rk4_step(kernel, state, dt)

    rate0, area0 = rate(state)
    rate1, area1 = rate(new_state)
    fd = (area1 - area0) / dt
    integral = 0.5 * (rate0 + rate1)
    return {
        "dt": dt,
        "fd_rate": fd,
        "integral_rate": integral,
        "rel_error": abs(fd - integral) / max(abs(integral), 1e-300),
    }
