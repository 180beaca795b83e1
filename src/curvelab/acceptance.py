"""Acceptance battery: the thirteen desk-scale verification criteria.

Each ``ac*`` function runs one criterion at its pinned configuration and
tolerances and returns a CriterionResult with one CheckLine per gate.  A
gate is ``value op bound``, each stated once: the measured value, an
operator from ``_GATES`` and the bound.  Those three fields alone decide
``passed`` (a NaN value fails every gate) and render ``detail``, after
which an optional note gives context; ``report.json`` and
``identities.json`` carry every field.  ``run_battery``, the one runner
of ``curvelab report`` and ``curvelab identities``, times and prints each
criterion; one that raises fails there and the rest still run.

Two criteria take their form from a mathematical obstruction:

* ac6_static_margin: the static-convexity margin kappa_min - 1/h is >= 0
  only on origin-centred spheres.  Trace the defining tensor with the
  inverse metric and integrate: the Minkowski identity gives
  int (h H - n) dmu = 0, so a sign condition pins the round case.  An
  amp-0.1 perturbed start therefore has margin about -0.3, and preservation
  of static convexity amounts to stationarity of centred spheres.  The
  criterion checks the proven sign along the AC-6 runs, the margin's return
  to 0 as the body rounds, the monitor against a spheroid's closed form,
  and margin >= -1e-6 along runs from centred spheres.

* ac7_profile_density: the sphere-area constant n |S^n|^(1/n) is sharp for
  constant densities only.  For the pinned profile a unit sphere translated
  by eps has relative deficit -eps^2/12 + O(eps^4), and fuzz samples reach
  about -3.5e-3.  The criterion checks Brendle's bound with the constant
  n |B^n|^(1/n) (rel deficit >= -1/2 for n = 2), the translated-sphere
  oracle, equality on centred spheres, and the flow-provable reduced bound
  int f^(n/(n-1)) dmu >= f(r*)^(n/(n-1)) r*^n |S^n|.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from .flows import (
    FlowConfig,
    SpeedProfile,
    area_evolution_consistency,
    estimate_decay_rate,
    run_flow,
)
from .functionals import (
    ball_quermass,
    michael_simon_deficit_H,
    michael_simon_deficit_k,
    monotone_quantities,
    quermassintegrals,
)
from .geometry import radial_geometry, sphericity, static_convexity, support_geometry
from .shapes import (
    random_convex_support,
    random_starshaped,
    sphere_radial,
    sphere_support,
    spheroid_curvatures_radial,
    spheroid_curvatures_support,
    spheroid_radial,
    spheroid_support,
)
from .sphere_grid import ScalarField, SphericalGrid
from .symfunc import (
    ek_derivative_tensor,
    elementary_symmetric,
    gamma_cone_member,
    newton_maclaurin_gap,
)

__all__ = ["CriterionResult", "run_battery", "CRITERIA"]

SEED_IDENTITIES = 987654321
SEED_AC6 = 7
SEED_AC7 = 20250809
SEED_AC8 = 31415

_GATES = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq,
    "in": lambda value, bound: bound[0] <= value <= bound[1],  # a closed interval
}


def _shown(x) -> str:
    if isinstance(x, tuple):
        return "[" + ", ".join(map(_shown, x)) + "]"
    return f"{x:.3g}" if isinstance(x, float) else str(x)


@dataclass
class CheckLine:
    """One gate, ``value op bound``; ``passed`` and ``detail`` follow from those fields."""

    label: str
    value: float | int | str
    op: str
    bound: float | int | str | tuple
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(_GATES[self.op](self.value, self.bound))

    @property
    def detail(self) -> str:
        gate = f"{_shown(self.value)} {self.op} {_shown(self.bound)}"
        return f"{gate}; {self.note}" if self.note else gate

    def __str__(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"  [{mark}] {self.label}: {self.detail}"


@dataclass
class CriterionResult:
    """One criterion's gates: ``check`` adds one, ``flow`` a trace's and ``budget``
    the wall time since ``started``, which ``to_dict`` leaves out.
    ``run_battery`` sets ``runtime_s``, for a criterion that raises too."""

    name: str
    lines: list = dataclass_field(default_factory=list)
    runtime_s: float = 0.0
    started: float = dataclass_field(default_factory=time.perf_counter, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def __str__(self):
        head = "PASS" if self.passed else "FAIL"
        out = [f"{self.name}: {head} ({self.runtime_s:.1f} s)"]
        out += [str(line) for line in self.lines]
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "runtime_s": self.runtime_s,
            "checks": [{**asdict(c), "passed": c.passed, "detail": c.detail} for c in self.lines],
        }

    def check(self, label, value, op, bound, note=""):
        self.lines.append(CheckLine(label, value, op, bound, note))

    def budget(self, limit_s, shared=None):
        """Wall time against limit_s; a cached run it reads (``shared``) counts once."""
        elapsed = time.perf_counter() - self.started
        if shared is not None and shared["started"] < self.started:
            elapsed += shared["runtime"]
        self.check("runtime budget", elapsed, "<", limit_s, "wall seconds")

    def flow(self, prefix, trace, column):
        """A flow ends Converged and its monitored integral ``column`` never rises."""
        self.check(f"{prefix}terminal status", trace.status, "==", "Converged", f"at t = {trace.t_final:.3f}")
        values = trace.values(column)
        growth = float(np.max(np.diff(values) / np.abs(values[:-1]))) if len(values) > 1 else 0.0
        breaches = sum(b.kind == "monotone" for b in trace.breaches)
        self.check(f"{prefix}{column} monotone breaches", breaches, "==", 0)
        self.check(f"{prefix}{column} max step growth", growth, "<=", 1e-8, "relative, over the trace rows")


# ---------------------------------------------------------------------------
# AC-1: curvature oracle


def ac1():
    c = CriterionResult("AC-1 curvature oracle")
    grid = SphericalGrid.full_s2(64, 128)
    geom = radial_geometry(sphere_radial(grid, 1.0))
    c.check("unit sphere kappa", float(np.abs(geom.kappa - 1.0).max()), "<", 1e-8, "max |kappa - 1|")
    c.check("unit sphere H", float(np.abs(geom.H - 2.0).max()), "<", 1e-8, "max |H - 2|")

    errs = []
    for nt in (64, 128):
        g = SphericalGrid.full_s2(nt, 2 * nt)
        geo = radial_geometry(spheroid_radial(g, 1.2, 1.0))
        km, ka = spheroid_curvatures_radial(g.theta, 1.2, 1.0)
        oracle = np.sort(np.stack([km, ka], -1), -1)
        errs.append(float((np.abs(geo.kappa - oracle[:, None, :]) / oracle[:, None, :]).max()))
    c.check("spheroid vs closed form", errs[0], "<", 2e-3, "max relative error at 64x128")
    c.check("spheroid refinement order", math.log2(errs[0] / errs[1]), "in", (1.7, 2.3), "64x128 to 128x256")
    c.budget(5.0)
    return c


# ---------------------------------------------------------------------------
# AC-2: symmetric-function trace identities


def _random_cone_matrix(rng):
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, n + 1))
    for _ in range(200):
        kappa = rng.uniform(-0.6, 2.0, size=n)
        if gamma_cone_member(kappa, k):
            break
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * kappa) @ q.T
    return 0.5 * (a + a.T), kappa, n, k


def ac2():
    c = CriterionResult("AC-2 trace identities")
    rng = np.random.default_rng(SEED_IDENTITIES)
    worst = 0.0
    for _ in range(1000):
        a, kappa, n, k = _random_cone_matrix(rng)
        d = ek_derivative_tensor(a, k)
        eigenvalues = np.sort(np.linalg.eigvalsh(a))
        e = [elementary_symmetric(eigenvalues, j) for j in range(n + 2)]
        pairs = [
            (float(np.trace(d)), k * e[k - 1]),
            (float(np.sum(d * a)), k * e[k]),
            (float(np.sum(d * (a @ a))), n * e[1] * e[k] - (n - k) * e[k + 1]),
        ]
        for got, want in pairs:
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    c.check("identity residuals", worst, "<", 1e-10,
            "max relative residual over 1000 matrices, n in 2..6")
    c.budget(5.0)
    return c


# ---------------------------------------------------------------------------
# AC-3: Newton-MacLaurin battery


def ac3():
    c = CriterionResult("AC-3 Newton-MacLaurin")
    rng = np.random.default_rng(SEED_IDENTITIES + 1)
    min_gap = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        kappa = rng.uniform(0.05, 3.0, size=n)
        for k in range(1, n + 1):
            for m in range(k, n + 1):
                g = newton_maclaurin_gap(kappa, k, m)
                min_gap = min(min_gap, g)
    c.check("no negative gaps", min_gap, ">=", -1e-12, "min gap")
    c.check("strictness off constants", min_gap, ">", 1e-12, "min gap on non-constant vectors")
    worst_const = 0.0
    for const in (0.3, 1.0, 2.7):
        kappa = np.full(5, const)
        for k in range(1, 5):
            for m in range(k, 5):
                worst_const = max(worst_const, abs(newton_maclaurin_gap(kappa, k, m)))
    c.check("equality on constants", worst_const, "<", 1e-12, "max |gap| on constant vectors")
    return c


# ---------------------------------------------------------------------------
# AC-4: Minkowski identity convergence


def ac4():
    c = CriterionResult("AC-4 Minkowski identity")
    for k in (1, 2):
        res = []
        for nt in (48, 96):
            grid = SphericalGrid.full_s2(nt, 2 * nt)
            geom = radial_geometry(spheroid_radial(grid, 1.2, 1.0))
            lhs = quermassintegrals(geom)[k]  # int E_(k-1) dmu
            rhs = grid.reduce(geom.area_weights * geom.support * geom.sigma[k]) / math.comb(2, k)
            res.append(abs(lhs - rhs) / abs(lhs))
        c.check(f"k={k} coarse residual", res[0], "<", 5e-3, "relative residual at 48x96")
        c.check(f"k={k} convergence order", math.log2(res[0] / res[1]), ">=", 1.7, "48x96 to 96x192")
    return c


# ---------------------------------------------------------------------------
# AC-5: radial flow convergence (trace shared with AC-9 and AC-10)

@functools.cache
def _ac5_run():
    grid = SphericalGrid.axisym(2, 256)
    profile = SpeedProfile.power_exp_pinned(2, 1.0)
    r0 = ScalarField(grid, 1.0 + 0.2 * np.cos(2.0 * grid.theta))
    config = FlowConfig(kind="radial", t_end=6.0, output_interval=0.01)
    t0 = time.perf_counter()
    trace = run_flow(r0, profile, config)
    return dict(trace=trace, started=t0, runtime=time.perf_counter() - t0, grid=grid, profile=profile, r0=r0)


def ac5():
    c = CriterionResult("AC-5 radial flow convergence")
    data = _ac5_run()
    trace = data["trace"]
    c.flow("", trace, "Q")
    rerr = float(np.abs(trace.meta["final_state"] - 1.0).max())
    tol = trace.meta["config"]["hatf_tol"]
    c.check("final radius", rerr, "<", 2e-3, f"max |r_final - 1|; the stop rule |fhat(mean r)| < {tol:g} "
            f"with fhat'(1) = f(1) = 1 puts it near {tol:g}")
    q_err = abs(trace.values("Q")[-1] - 4 * math.pi) / (4 * math.pi)
    c.check("final Q near |S^2|", q_err, "<", 5e-3, "|Q_final - 4pi| / 4pi")
    c.budget(60, data)
    return c


# ---------------------------------------------------------------------------
# AC-6: support flow (traces shared with AC-10)

def _ac6_config(k):
    return FlowConfig(kind="support", k=k, t_end=12.0,
                      osc_tol=1e-4, output_interval=0.02)


@functools.cache
def _ac6_runs():
    grid = SphericalGrid.full_s2(64, 128)
    h0 = random_convex_support(grid, np.random.default_rng(SEED_AC6), amp=0.1)
    t0 = time.perf_counter()
    traces = {k: run_flow(h0, None, _ac6_config(k)) for k in (1, 2)}
    return dict(k1=traces[1], k2=traces[2], started=t0, runtime=time.perf_counter() - t0, grid=grid, h0=h0)


def ac6_flow():
    c = CriterionResult("AC-6 support flow: conservation, monotonicity, convergence")
    data = _ac6_runs()
    for k in (1, 2):
        trace = data[f"k{k}"]
        c.flow(f"k={k} ", trace, "M_k")
        c.check(f"k={k} V_(k-1) drift", trace.meta["conserved_drift"], "<", 1e-3, "relative")
        final = trace.rows[-1]
        r_final = 0.5 * (final["r_max"] + final["r_min"])
        c.check(f"k={k} final oscillation", (final["r_max"] - final["r_min"]) / r_final, "<", 1e-3,
                "(r_max - r_min) / r_avg")
        ball = ball_quermass(k - 1, r_final, 2)
        c.check(f"k={k} V_(k-1) matches round value", abs(final[f"V_{k-1}"] - ball) / ball, "<", 5e-3,
                "|V - z(R_final)| / z")
    c.budget(120, data)
    return c


def ac6_static_margin():
    """Static-convexity margin kappa_min - 1/h along the AC-6 support runs.

    A margin >= 0 means hess(h) <= 0 on the closed sphere, which forces h to
    be constant; so only origin-centred spheres are static convex under this
    definition and preservation along the flow amounts to their stationarity.
    """
    c = CriterionResult("AC-6 static-convexity margin")
    data = _ac6_runs()
    c.check("initial margin", data["k1"].meta["initial_margin"], "<", 0.0,
            "only origin-centred spheres are static convex")
    for k in (1, 2):
        margins = data[f"k{k}"].values("margin")
        c.check(f"k={k} max margin", float(np.max(margins)), "<=", 1e-6, f"over {len(margins)} rows")
        c.check(f"k={k} final |margin|", abs(margins[-1]), "<", 1e-3, "as the body rounds")

    # the monitor against its closed form on a spheroid (c = 1.2, b = 1)
    grid = data["grid"]
    h = spheroid_support(grid, 1.2, 1.0)
    k_merid, k_azim = spheroid_curvatures_support(grid.theta, 1.2, 1.0)
    oracle = np.minimum(k_merid, k_azim)[:, None] - 1.0 / h.values
    err = float(np.abs(static_convexity(support_geometry(h)).node_margins - oracle).max())
    c.check("spheroid margin vs closed form", err, "<", 1e-3,
            f"max node error; closed-form margin {oracle.min():.3f}")

    # preservation on data meeting the hypothesis: origin-centred spheres
    worst = np.inf
    for radius in (0.7, 1.3):
        h0 = sphere_support(grid, radius)
        for k in (1, 2):
            worst = min(worst, float(np.min(run_flow(h0, None, _ac6_config(k)).values("margin"))))
    c.check("static convexity preserved", worst, ">=", -1e-6,
            "min margin on runs from spheres R = 0.7, 1.3, k = 1, 2 "
            "(static convex means round here, so preserved means stationary)")
    return c


# ---------------------------------------------------------------------------
# AC-7: mean-curvature deficit fuzz (two density families)

@functools.cache
def _ac7_samples():
    grid = SphericalGrid.full_s2(96, 192)
    rng = np.random.default_rng(SEED_AC7)
    t0 = time.perf_counter()
    samples = []
    for _ in range(50):
        amp = 0.3 * float(rng.uniform(0.05, 1.0)) ** 2
        field = random_starshaped(grid, rng, amp=amp)
        geom = radial_geometry(field)
        samples.append((field, geom, sphericity(geom)))
    return dict(geoms=samples, started=t0, runtime=time.perf_counter() - t0, grid=grid)


def ac7_constant_density():
    c = CriterionResult("AC-7 deficit fuzz, f = 1")
    data = _ac7_samples()
    deficits = [michael_simon_deficit_H(geom, 1.0).rel_deficit for _, geom, _ in data["geoms"]]
    c.check("deficits bounded below", min(deficits), ">=", -1e-3, "min relative deficit over 50 samples")
    violations = sum(d < 1e-4 and sph >= 1e-2 for d, (_, _, sph) in zip(deficits, data["geoms"]))
    c.check("rigidity violations", violations, "==", 0,
            "samples with relative deficit < 1e-4 and sphericity >= 1e-2")
    c.budget(120, data)
    return c


def ac7_profile_density():
    """Pinned-profile half: Brendle's bound, an analytic oracle, equality on spheres.

    The sphere-area constant n |S^n|^(1/n) is sharp for constant f only: a
    unit sphere translated by eps with this profile has relative deficit
    -eps^2/12 + O(eps^4).  The proven bound for every positive f uses
    n |B^n|^(1/n), i.e. rel deficit >= (|B^2| / |S^2|)^(1/2) - 1 = -1/2.
    """
    c = CriterionResult("AC-7 deficit fuzz, pinned profile")
    data = _ac7_samples()
    profile = SpeedProfile.power_exp_pinned(2, 1.0)

    def rel_deficit(field, geom=None):
        if geom is None:
            geom = radial_geometry(field)
        grad_f = tuple(profile.df(field.values) * g for g in geom.grad)
        return michael_simon_deficit_H(geom, profile.f(field.values), grad_f).rel_deficit

    samples = data["geoms"]
    worst = min(rel_deficit(field, geom) for field, geom, _ in samples)
    min_q = min(monotone_quantities(geom, profile.f(field.values), 1)[0] for field, geom, _ in samples)
    c.check("Brendle's bound", worst, ">=", -0.5, "min relative deficit over 50 samples; ball constant")
    for eps in (0.05, 0.1):
        got = rel_deficit(sphere_radial(data["grid"], 1.0, center=(0.0, 0.0, eps)))
        want = -eps**2 / 12.0
        c.check(f"translated sphere eps={eps}", abs(got / want - 1.0), "<", 0.02,
                f"relative error of the deficit {got:.4e} against -eps^2/12 = {want:.4e}")
    equality = max(abs(rel_deficit(sphere_radial(data["grid"], r))) for r in (0.8, 1.0, 1.3))
    c.check("equality on centred spheres", equality, "<", 1e-10, "max |relative deficit| for R = 0.8, 1, 1.3")
    c.check("flow-provable reduced bound", min_q / (4 * math.pi) - 1.0, ">=", -1e-12,
            "min int f^2 dmu / |S^2| - 1 over 50 samples")
    return c


# ---------------------------------------------------------------------------
# AC-8: k-th mean curvature deficit fuzz


def ac8():
    c = CriterionResult("AC-8 k-deficit fuzz (k=2, n=3)")
    n, k = 3, 2
    grid = SphericalGrid.axisym(n, 192)
    rng = np.random.default_rng(SEED_AC8)
    worst = np.inf
    margins = []
    for _ in range(50):
        amp = 0.35 * float(rng.uniform(0.1, 1.0)) ** 2
        field = random_convex_support(grid, rng, amp=amp)
        geom = support_geometry(field)
        rep = michael_simon_deficit_k(geom, k=k)  # the matched density R^-(n-k)
        worst = min(worst, rep.rel_deficit)
        margins.append(static_convexity(geom).margin)
    c.check("deficits bounded below", worst, ">=", -1e-3,
            f"min relative deficit over 50 convex bodies (static margins in [{min(margins):.2f}, "
            f"{max(margins):.2f}]; strictly positive margins exist only for round spheres)")
    rep = michael_simon_deficit_k(radial_geometry(sphere_radial(grid, 1.0)), 1.0, k=k)
    c.check("unit sphere idempotence", abs(rep.deficit), "<", 1e-10, "|deficit|")
    return c


# ---------------------------------------------------------------------------
# AC-9: exponential gradient decay on the AC-5 run


def ac9():
    c = CriterionResult("AC-9 exponential decay")
    data = _ac5_run()
    fit = estimate_decay_rate(data["trace"])
    c.check("decay rate", fit.gamma, ">", 0.0, "gamma")
    c.check("fit quality", fit.r_squared, ">", 0.95, "R^2")
    # the even start's lowest non-radial mode, ell = 2, linearized about r*
    p, n, ell, r = data["profile"], 2, 2, data["trace"].meta["r_star"]
    dhat = (n - 1) * (p.df(r) / r**2 - 2 * p.f(r) / r**3) + p.d2f(r) / r - p.df(r) / r**2
    rate = float(n / (n - 1) * r * dhat + p.f(r) * ell * (ell + n - 1) / r**2)
    c.check("linearized rate", abs(fit.gamma / rate - 1.0), "<", 0.02,
            f"relative error of gamma = {fit.gamma:.3f} against "
            f"(n/(n-1)) r* fhat'(r*) + f(r*) l(l+n-1)/r*^2 = {rate:.3f}")
    return c


# ---------------------------------------------------------------------------
# AC-10: area-evolution consistency on the AC-5 and AC-6 configurations


def ac10():
    c = CriterionResult("AC-10 area-evolution consistency")
    data5 = _ac5_run()
    out = area_evolution_consistency(data5["r0"], data5["profile"],
                                     FlowConfig(kind="radial", t_end=1.0))
    c.check("radial run", out["rel_error"], "<", 0.01, "relative error at dt = adaptive step/1000")

    # support side on the k=1 run (the k=2 flow conserves area, so a relative
    # area-rate comparison is degenerate there); probed at the first trace
    # time where the oscillation has decayed threefold
    data6 = _ac6_runs()
    trace = data6["k1"]
    osc = trace.values("oscillation")
    t_probe = float(trace.times[int(np.argmax(osc <= osc[0] / 3.0))])
    probe = run_flow(
        data6["h0"], None,
        FlowConfig(kind="support", k=1, t_end=t_probe,
                   osc_tol=1e-12, output_interval=max(t_probe, 0.1)),
    )
    state = ScalarField(data6["grid"], probe.meta["final_state"])
    out = area_evolution_consistency(state, None, FlowConfig(kind="support", k=1, t_end=1.0))
    c.check("support run", out["rel_error"], "<", 0.01, f"relative error at t = {t_probe:.2f}")
    return c


# ---------------------------------------------------------------------------
# AC-11: temporal order of the extrapolated step


def ac11():
    c = CriterionResult("AC-11 temporal order")
    grid = SphericalGrid.axisym(2, 16)
    profile = SpeedProfile.power_exp_pinned(2, 1.0)

    def rhs(r):
        return -2.0 * r * float(profile.hat(r, 2))

    ref, h = 1.3, 1e-4  # the sphere's radius ODE to t = 0.2 by classical RK4
    for _ in range(2000):
        k1 = rhs(ref)
        k2 = rhs(ref + 0.5 * h * k1)
        k3 = rhs(ref + 0.5 * h * k2)
        ref += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + rhs(ref + h * k3))
    errs = []
    for dt in (0.02, 0.01):
        config = FlowConfig(kind="radial", t_end=0.2, dt_fixed=dt, output_interval=0.2)
        trace = run_flow(sphere_radial(grid, 1.3), profile, config)
        errs.append(abs(float(trace.meta["final_state"][0]) - ref))
    c.check("error ratio under dt halving", errs[0] / errs[1], "in", (12.0, 20.0), "order 4 gives about 16")
    return c


CRITERIA = {
    "AC-1": ac1,
    "AC-2": ac2,
    "AC-3": ac3,
    "AC-4": ac4,
    "AC-5": ac5,
    "AC-6-flow": ac6_flow,
    "AC-6-margin": ac6_static_margin,
    "AC-7-constant": ac7_constant_density,
    "AC-7-profile": ac7_profile_density,
    "AC-8": ac8,
    "AC-9": ac9,
    "AC-10": ac10,
    "AC-11": ac11,
}


def run_battery(names=None):
    """Run the selected criteria (all by default), timing and printing each; returns the result list."""
    results = []
    for name, fn in CRITERIA.items():
        if not names or name in names:
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # fails under its CRITERIA name; the rest still run
                raised = CheckLine("runs to completion", f"{type(exc).__name__}: {exc}", "==", "no exception")
                result = CriterionResult(name, [raised])
            result.runtime_s = time.perf_counter() - start
            results.append(result)
            print(result)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return results
