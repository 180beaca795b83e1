"""Acceptance battery: the thirteen desk-scale verification criteria.

Each ``ac*`` function runs one criterion at its pinned configuration and
tolerances and returns a CriterionResult with one pass/fail line per
sub-assertion.  ``run_battery`` executes a selection and prints the table.

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

import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.integrate import solve_ivp

from .flows import (
    FlowConfig,
    SpeedProfile,
    area_evolution_consistency,
    estimate_decay_rate,
    run_flow,
)
from .functionals import (
    ball_quermass,
    ball_quermass_inverse,
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
    sigma_all,
)

__all__ = ["CriterionResult", "run_battery", "CRITERIA"]

SEED_IDENTITIES = 987654321
SEED_AC6 = 7
SEED_AC7 = 20250809
SEED_AC8 = 31415


@dataclass
class CheckLine:
    label: str
    passed: bool
    detail: str

    def __str__(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"  [{mark}] {self.label}: {self.detail}"


@dataclass
class CriterionResult:
    name: str
    lines: list = dataclass_field(default_factory=list)
    runtime_s: float = 0.0

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
            "checks": [
                {"label": c.label, "passed": c.passed, "detail": c.detail}
                for c in self.lines
            ],
        }


class _Checker:
    def __init__(self, name):
        self.result = CriterionResult(name)
        self._t0 = time.perf_counter()

    def check(self, label, ok, detail):
        self.result.lines.append(CheckLine(label, bool(ok), detail))

    def budget(self, limit_s):
        elapsed = time.perf_counter() - self._t0
        self.check("runtime budget", elapsed < limit_s, f"{elapsed:.1f} s < {limit_s} s")

    def done(self):
        self.result.runtime_s = time.perf_counter() - self._t0
        return self.result


# ---------------------------------------------------------------------------
# AC-1: curvature oracle


def ac1():
    c = _Checker("AC-1 curvature oracle")
    grid = SphericalGrid.full_s2(64, 128)
    geom = radial_geometry(sphere_radial(grid, 1.0))
    kerr = float(np.abs(geom.kappa - 1.0).max())
    herr = float(np.abs(geom.H - 2.0).max())
    c.check("unit sphere kappa", kerr < 1e-8, f"max|kappa-1| = {kerr:.2e} < 1e-8")
    c.check("unit sphere H", herr < 1e-8, f"max|H-2| = {herr:.2e} < 1e-8")

    errs = []
    for nt in (64, 128):
        g = SphericalGrid.full_s2(nt, 2 * nt)
        geo = radial_geometry(spheroid_radial(g, 1.2, 1.0))
        km, ka = spheroid_curvatures_radial(g.theta, 1.2, 1.0)
        oracle = np.sort(np.stack([km, ka], -1), -1)
        errs.append(float((np.abs(geo.kappa - oracle[:, None, :]) / oracle[:, None, :]).max()))
    order = math.log2(errs[0] / errs[1])
    c.check("spheroid vs closed form", errs[0] < 2e-3, f"max rel err = {errs[0]:.2e} < 2e-3 at 64x128")
    c.check("spheroid refinement order", 1.7 <= order <= 2.3, f"order = {order:.2f} in [1.7, 2.3]")
    c.budget(5.0)
    return c.done()


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


def ac2(samples=1000):
    c = _Checker("AC-2 trace identities")
    rng = np.random.default_rng(SEED_IDENTITIES)
    worst = 0.0
    for _ in range(samples):
        a, kappa, n, k = _random_cone_matrix(rng)
        d = ek_derivative_tensor(a, k)
        e = [elementary_symmetric(np.sort(np.linalg.eigvalsh(a)), j) for j in range(n + 2)]
        pairs = [
            (float(np.trace(d)), k * e[k - 1]),
            (float(np.sum(d * a)), k * e[k]),
            (float(np.sum(d * (a @ a))), n * e[1] * e[k] - (n - k) * e[k + 1]),
        ]
        for got, want in pairs:
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    c.check("identity residuals", worst < 1e-10,
            f"max rel residual = {worst:.2e} < 1e-10 over {samples} matrices, n in 2..6")
    c.budget(5.0)
    return c.done()


# ---------------------------------------------------------------------------
# AC-3: Newton-MacLaurin battery


def ac3(samples=1000):
    c = _Checker("AC-3 Newton-MacLaurin")
    rng = np.random.default_rng(SEED_IDENTITIES + 1)
    min_gap = np.inf
    min_nonconst = np.inf
    for _ in range(samples):
        n = int(rng.integers(2, 8))
        kappa = rng.uniform(0.05, 3.0, size=n)
        for k in range(1, n + 1):
            for m in range(k, n + 1):
                g = newton_maclaurin_gap(kappa, k, m)
                min_gap = min(min_gap, g)
                min_nonconst = min(min_nonconst, g)
    c.check("no negative gaps", min_gap >= -1e-12, f"min gap = {min_gap:.2e} >= -1e-12")
    c.check("strictness off constants", min_nonconst > 1e-12,
            f"min gap on non-constant vectors = {min_nonconst:.2e} > 1e-12")
    worst_const = 0.0
    for const in (0.3, 1.0, 2.7):
        kappa = np.full(5, const)
        for k in range(1, 5):
            for m in range(k, 5):
                worst_const = max(worst_const, abs(newton_maclaurin_gap(kappa, k, m)))
    c.check("equality on constants", worst_const < 1e-12,
            f"max |gap| on constant vectors = {worst_const:.2e} < 1e-12")
    return c.done()


# ---------------------------------------------------------------------------
# AC-4: Minkowski identity convergence


def ac4():
    c = _Checker("AC-4 Minkowski identity")
    for k in (1, 2):
        res = []
        for nt in (48, 96):
            grid = SphericalGrid.full_s2(nt, 2 * nt)
            geom = radial_geometry(spheroid_radial(grid, 1.2, 1.0))
            sig = sigma_all(geom.kappa)
            w = grid.weights * geom.area_factor
            lhs = float(np.sum(w * sig[..., k - 1])) / math.comb(2, k - 1)
            rhs = float(np.sum(w * geom.support * sig[..., k])) / math.comb(2, k)
            res.append(abs(lhs - rhs) / abs(lhs))
        order = math.log2(res[0] / res[1])
        c.check(f"k={k} coarse residual", res[0] < 5e-3, f"rel residual = {res[0]:.2e} < 5e-3 at 48x96")
        c.check(f"k={k} convergence order", order >= 1.7, f"order = {order:.2f} >= 1.7")
    return c.done()


# ---------------------------------------------------------------------------
# AC-5: radial flow convergence (trace shared with AC-9 and AC-10)

_AC5_CACHE = {}


def _ac5_run():
    if "trace" not in _AC5_CACHE:
        grid = SphericalGrid.axisym(2, 256)
        profile = SpeedProfile.power_exp_pinned(2, 1.0)
        r0 = ScalarField(grid, 1.0 + 0.2 * np.cos(2.0 * grid.theta))
        config = FlowConfig(kind="radial", t_end=6.0, cfl=0.45, output_interval=0.01)
        t0 = time.perf_counter()
        trace = run_flow(r0, profile, config)
        _AC5_CACHE.update(
            trace=trace, runtime=time.perf_counter() - t0, grid=grid,
            profile=profile, r0=r0,
        )
    return _AC5_CACHE


def ac5():
    c = _Checker("AC-5 radial flow convergence")
    data = _ac5_run()
    trace = data["trace"]
    c.check("terminates Converged", trace.status == "Converged",
            f"status = {trace.status} at t = {trace.t_final:.3f}")
    rerr = float(np.abs(trace.meta["final_state"] - 1.0).max())
    c.check("final radius", rerr < 2e-3, f"max|r_final - 1| = {rerr:.2e} < 2e-3")
    q = trace.values("Q")
    breaches = [b for b in trace.breaches if b.kind == "monotone"]
    growth = float(np.max(np.diff(q) / np.abs(q[:-1]))) if len(q) > 1 else 0.0
    c.check("Q nonincreasing", not breaches and growth <= 1e-8,
            f"{len(breaches)} breaches above 1e-8 Q; max recorded step growth {growth:.1e}")
    q_err = abs(q[-1] - 4 * math.pi) / (4 * math.pi)
    c.check("final Q near |S^2|", q_err < 5e-3, f"|Q_final - 4pi|/4pi = {q_err:.2e} < 5e-3")
    c.check("runtime budget", data["runtime"] < 60.0, f"{data['runtime']:.1f} s < 60 s")
    return c.done()


# ---------------------------------------------------------------------------
# AC-6: support flow (traces shared with AC-10)

_AC6_CACHE = {}


def _ac6_config(k):
    return FlowConfig(kind="support", k=k, t_end=12.0, cfl=0.5,
                      osc_tol=1e-4, output_interval=0.02)


def _ac6_runs():
    if "k1" not in _AC6_CACHE:
        grid = SphericalGrid.full_s2(64, 128)
        h0 = random_convex_support(grid, np.random.default_rng(SEED_AC6), amp=0.1)
        t0 = time.perf_counter()
        traces = {k: run_flow(h0, None, _ac6_config(k)) for k in (1, 2)}
        _AC6_CACHE.update(
            k1=traces[1], k2=traces[2], runtime=time.perf_counter() - t0,
            grid=grid, h0=h0,
        )
    return _AC6_CACHE


def ac6_flow():
    c = _Checker("AC-6 support flow: conservation, monotonicity, convergence")
    data = _ac6_runs()
    for k in (1, 2):
        trace = data["k1" if k == 1 else "k2"]
        drift = trace.meta["conserved_drift"]
        c.check(f"k={k} V_(k-1) drift", drift < 1e-3, f"relative drift = {drift:.2e} < 1e-3")
        mk = trace.values("M_k")
        growth = float(np.max(np.diff(mk) / np.abs(mk[:-1]))) if len(mk) > 1 else 0.0
        breaches = [b for b in trace.breaches if b.kind == "monotone"]
        c.check(f"k={k} monotone integral", not breaches and growth <= 1e-8,
                f"{len(breaches)} breaches; max step growth {growth:.1e}")
        c.check(f"k={k} converged", trace.status == "Converged",
                f"status = {trace.status} at t = {trace.t_final:.2f}")
        final = trace.rows[-1]
        osc = (final["r_max"] - final["r_min"]) / (0.5 * (final["r_max"] + final["r_min"]))
        c.check(f"k={k} final oscillation", osc < 1e-3, f"(r_max-r_min)/r_avg = {osc:.2e} < 1e-3")
        r_final = 0.5 * (final["r_max"] + final["r_min"])
        v_final = final[f"V_{k-1}"]
        ball = ball_quermass(k - 1, r_final, 2)
        match = abs(v_final - ball) / ball
        c.check(f"k={k} V_(k-1) matches round value", match < 5e-3,
                f"|V - z(R_final)|/z = {match:.2e} < 5e-3")
    c.check("runtime budget", data["runtime"] < 120.0, f"{data['runtime']:.1f} s < 120 s")
    return c.done()


def ac6_static_margin():
    """Static-convexity margin kappa_min - 1/h along the AC-6 support runs.

    A margin >= 0 means hess(h) <= 0 on the closed sphere, which forces h to
    be constant; so only origin-centred spheres are static convex under this
    definition and preservation along the flow amounts to their stationarity.
    """
    c = _Checker("AC-6 static-convexity margin")
    data = _ac6_runs()
    margin0 = data["k1"].meta["initial_margin"]
    c.check("initial margin < 0", margin0 < 0.0,
            f"margin = {margin0:.3f}; only origin-centred spheres have margin >= 0")
    for k in (1, 2):
        margins = data[f"k{k}"].values("margin")
        worst = float(np.max(margins))
        c.check(f"k={k} margin <= 1e-6 throughout", worst <= 1e-6,
                f"max margin = {worst:.2e} <= 1e-6 over {len(margins)} rows")
        c.check(f"k={k} final margin near 0", abs(margins[-1]) < 1e-3,
                f"|final margin| = {abs(margins[-1]):.2e} < 1e-3 as the body rounds")

    # the monitor against its closed form on a spheroid (c = 1.2, b = 1)
    grid = data["grid"]
    h = spheroid_support(grid, 1.2, 1.0)
    k_merid, k_azim = spheroid_curvatures_support(grid.theta, 1.2, 1.0)
    oracle = np.minimum(k_merid, k_azim)[:, None] - 1.0 / h.values
    err = float(np.abs(static_convexity(support_geometry(h)).node_margins - oracle).max())
    c.check("spheroid margin vs closed form", err < 1e-3,
            f"max node error = {err:.2e} < 1e-3 (closed-form margin {oracle.min():.3f})")

    # preservation on data meeting the hypothesis: origin-centred spheres
    worst = np.inf
    for radius in (0.7, 1.3):
        h0 = sphere_support(grid, radius)
        for k in (1, 2):
            worst = min(worst, float(np.min(run_flow(h0, None, _ac6_config(k)).values("margin"))))
    c.check("static convexity preserved", worst >= -1e-6,
            f"min margin = {worst:.2e} >= -1e-6 on runs from spheres R = 0.7, 1.3, k = 1, 2 "
            "(static convex means round here, so preserved means stationary)")
    return c.done()


# ---------------------------------------------------------------------------
# AC-7: mean-curvature deficit fuzz (two density families)

_AC7_CACHE = {}


def _ac7_samples():
    if "geoms" not in _AC7_CACHE:
        grid = SphericalGrid.full_s2(96, 192)
        rng = np.random.default_rng(SEED_AC7)
        t0 = time.perf_counter()
        samples = []
        for _ in range(50):
            amp = 0.3 * float(rng.uniform(0.05, 1.0)) ** 2
            field = random_starshaped(grid, rng, amp=amp)
            geom = radial_geometry(field)
            samples.append((field, geom, sphericity(geom)))
        _AC7_CACHE.update(geoms=samples, runtime=time.perf_counter() - t0, grid=grid)
    return _AC7_CACHE


def ac7_constant_density():
    c = _Checker("AC-7 deficit fuzz, f = 1")
    data = _ac7_samples()
    worst = np.inf
    rigid_ok = True
    for _, geom, sph in data["geoms"]:
        rep = michael_simon_deficit_H(geom, 1.0)
        worst = min(worst, rep.rel_deficit)
        if rep.rel_deficit < 1e-4 and sph >= 1e-2:
            rigid_ok = False
    c.check("deficits bounded below", worst >= -1e-3,
            f"min rel deficit = {worst:.2e} >= -1e-3 over 50 samples")
    c.check("rigidity conditional", rigid_ok,
            "every sample with rel deficit < 1e-4 has sphericity < 1e-2")
    elapsed = data["runtime"] + (time.perf_counter() - c._t0)
    c.check("runtime budget", elapsed < 120.0,
            f"{elapsed:.1f} s including sampling < 120 s")
    return c.done()


def ac7_profile_density():
    """Pinned-profile half: Brendle's bound, an analytic oracle, equality on spheres.

    The sphere-area constant n |S^n|^(1/n) is sharp for constant f only: a
    unit sphere translated by eps with this profile has relative deficit
    -eps^2/12 + O(eps^4).  The proven bound for every positive f uses
    n |B^n|^(1/n), i.e. rel deficit >= (|B^2| / |S^2|)^(1/2) - 1 = -1/2.
    """
    c = _Checker("AC-7 deficit fuzz, pinned profile")
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
    c.check("Brendle's bound", worst >= -0.5,
            f"min rel deficit = {worst:.2e} >= (|B^2|/|S^2|)^(1/2) - 1 = -1/2 over 50 samples")
    for eps in (0.05, 0.1):
        field = sphere_radial(data["grid"], 1.0, center=(0.0, 0.0, eps))
        got = rel_deficit(field)
        want = -eps**2 / 12.0
        err = abs(got / want - 1.0)
        c.check(f"translated sphere eps={eps}", err < 0.02,
                f"rel deficit = {got:.4e} vs -eps^2/12 = {want:.4e}: rel error {err:.2%} < 2%")
    equality = max(abs(rel_deficit(sphere_radial(data["grid"], r))) for r in (0.8, 1.0, 1.3))
    c.check("equality on centred spheres", equality < 1e-10,
            f"max |rel deficit| = {equality:.2e} < 1e-10 for R = 0.8, 1, 1.3")
    c.check("flow-provable reduced bound", min_q >= 4 * math.pi * (1 - 1e-12),
            f"min int f^2 dmu = {min_q:.6f} >= |S^2| = {4 * math.pi:.6f}")
    return c.done()


# ---------------------------------------------------------------------------
# AC-8: k-th mean curvature deficit fuzz


def ac8():
    c = _Checker("AC-8 k-deficit fuzz (k=2, n=3)")
    n, k = 3, 2
    grid = SphericalGrid.axisym(n, 192)
    rng = np.random.default_rng(SEED_AC8)
    worst = np.inf
    margins = []
    for _ in range(50):
        amp = 0.35 * float(rng.uniform(0.1, 1.0)) ** 2
        field = random_convex_support(grid, rng, amp=amp)
        geom = support_geometry(field)
        quermass = quermassintegrals(geom)
        radius = ball_quermass_inverse(k - 1, quermass[k - 1], n)
        rep = michael_simon_deficit_k(geom, radius ** (-(n - k)), k=k, quermass=quermass)
        worst = min(worst, rep.rel_deficit)
        margins.append(static_convexity(geom).margin)
    c.check("deficits bounded below", worst >= -1e-3,
            f"min rel deficit = {worst:.2e} >= -1e-3 over 50 convex bodies "
            f"(static margins in [{min(margins):.2f}, {max(margins):.2f}]; "
            "strictly positive margins exist only for round spheres)")
    geom = radial_geometry(sphere_radial(grid, 1.0))
    rep = michael_simon_deficit_k(geom, 1.0, k=k)
    c.check("unit sphere idempotence", abs(rep.deficit) < 1e-10,
            f"|deficit| = {abs(rep.deficit):.2e} < 1e-10")
    return c.done()


# ---------------------------------------------------------------------------
# AC-9: exponential gradient decay on the AC-5 run


def ac9():
    c = _Checker("AC-9 exponential decay")
    trace = _ac5_run()["trace"]
    fit = estimate_decay_rate(trace)
    c.check("positive rate", fit.gamma > 0.0, f"gamma = {fit.gamma:.3f} > 0")
    c.check("fit quality", fit.r_squared > 0.95, f"R^2 = {fit.r_squared:.5f} > 0.95")
    return c.done()


# ---------------------------------------------------------------------------
# AC-10: area-evolution consistency on the AC-5 and AC-6 configurations


def ac10():
    c = _Checker("AC-10 area-evolution consistency")
    data5 = _ac5_run()
    out = area_evolution_consistency(data5["r0"], data5["profile"],
                                     FlowConfig(kind="radial", t_end=1.0))
    c.check("radial run", out["rel_error"] < 0.01,
            f"rel error = {out['rel_error']:.2e} < 1e-2 at dt = stability/10")

    # support side on the k=1 run (the k=2 flow conserves area, so a relative
    # area-rate comparison is degenerate there); probed at the first trace
    # time where the oscillation has decayed threefold
    data6 = _ac6_runs()
    trace = data6["k1"]
    osc = trace.values("oscillation")
    t_probe = float(trace.times[int(np.argmax(osc <= osc[0] / 3.0))])
    probe = run_flow(
        data6["h0"], None,
        FlowConfig(kind="support", k=1, t_end=t_probe, cfl=0.5,
                   osc_tol=1e-12, output_interval=max(t_probe, 0.1)),
    )
    state = ScalarField(data6["grid"], probe.meta["final_state"])
    out = area_evolution_consistency(state, None, FlowConfig(kind="support", k=1, t_end=1.0))
    c.check("support run", out["rel_error"] < 0.01,
            f"rel error = {out['rel_error']:.2e} < 1e-2 at t = {t_probe:.2f}")
    return c.done()


# ---------------------------------------------------------------------------
# AC-11: RK4 temporal order


def ac11():
    c = _Checker("AC-11 temporal order")
    grid = SphericalGrid.axisym(2, 16)
    profile = SpeedProfile.power_exp_pinned(2, 1.0)

    def rhs(t, y):
        return [-2.0 * y[0] * float(profile.hat(y[0], 2))]

    ref = solve_ivp(rhs, (0.0, 0.2), [1.3], rtol=1e-13, atol=1e-15).y[0, -1]
    errs = []
    for dt in (0.02, 0.01):
        config = FlowConfig(kind="radial", t_end=0.2, dt_fixed=dt, output_interval=0.2)
        trace = run_flow(sphere_radial(grid, 1.3), profile, config)
        errs.append(abs(float(trace.meta["final_state"][0]) - ref))
    ratio = errs[0] / errs[1]
    c.check("error ratio under dt halving", 12.0 <= ratio <= 20.0,
            f"ratio = {ratio:.2f} in [12, 20] (RK4: ~16)")
    return c.done()


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


def run_battery(names=None, printer=print):
    """Run the selected criteria (all by default); returns the result list."""
    results = []
    for name, fn in CRITERIA.items():
        if names and name not in names:
            continue
        result = fn()
        results.append(result)
        printer(str(result))
    passed = sum(r.passed for r in results)
    printer(f"{passed}/{len(results)} criteria passed")
    return results
