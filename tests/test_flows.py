"""Flow speeds, profile validators, and short integration runs against ODE oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from curvelab import (
    AssumptionViolated,
    FlowConfig,
    FlowTrace,
    InsufficientData,
    ScalarField,
    SphericalGrid,
    SpeedProfile,
    estimate_decay_rate,
    radial_geometry,
    run_flow,
    support_geometry,
    validate_radial_profile,
    validate_support_profile,
)
from curvelab.flows import area_evolution_consistency, _RadialKernel, _rk4_step, _SupportKernel
from curvelab.shapes import random_convex_support, sphere_radial, sphere_support
from curvelab.symfunc import ek_derivative_eigen, elementary_symmetric, sigma_all


# -- profiles and validators -----------------------------------------------------


@pytest.mark.parametrize(
    "profile",
    [
        SpeedProfile.constant(2.0),
        SpeedProfile.power_exp_pinned(2, 1.0),
        SpeedProfile.power(-1.0, domain=(0.5, 2.0)),
        SpeedProfile.affine_power(1.0, 0.5, 3, 1),
        SpeedProfile.tabulated(np.linspace(0.5, 2.0, 41), np.exp(np.linspace(0.5, 2.0, 41))),
    ],
)
def test_profile_derivative_consistency(profile):
    lo, hi = profile.domain
    xs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 31)
    eps = 1e-5 * (hi - lo)
    fd = (profile.f(xs + eps) - profile.f(xs - eps)) / (2 * eps)
    scale = 1.0 + np.abs(fd).max()
    assert np.abs(profile.df(xs) - fd).max() < 1e-6 * scale
    fd2 = (profile.df(xs + eps) - profile.df(xs - eps)) / (2 * eps)
    scale2 = 1.0 + np.abs(fd2).max()
    assert np.abs(profile.d2f(xs) - fd2).max() < 1e-5 * scale2


def test_pinned_profile_validates_with_root():
    prof = SpeedProfile.power_exp_pinned(2, r_star=1.0)
    root = validate_radial_profile(prof, 2)
    assert abs(root - 1.0) < 1e-9


def test_constant_profile_fails_not_increasing():
    with pytest.raises(AssumptionViolated) as err:
        validate_radial_profile(SpeedProfile.constant(1.0, domain=(0.5, 1.8)), 2)
    assert err.value.kind == "not-increasing"
    assert err.value.where is not None


def test_equality_profile_fails_no_zero():
    # f = r^(1-n): fhat vanishes identically, degenerate admissibility case
    with pytest.raises(AssumptionViolated) as err:
        validate_radial_profile(SpeedProfile.power(-1.0, domain=(0.5, 1.8)), 2)
    assert err.value.kind == "no-zero"


def test_support_profile_validation():
    ok = validate_support_profile(SpeedProfile.constant(3.0), 3, 2)
    assert ok.ok  # constant: non-strict pass
    lin = validate_support_profile(SpeedProfile.affine_power(0.7, 0.4, 3, 1), 3, 1)
    assert lin.ok
    bad = validate_support_profile(SpeedProfile.power(-1.0), 3, 1)
    assert not bad.ok  # f = 1/h makes g decreasing
    # non-constant profile at k = n: exponent undefined
    undef = validate_support_profile(SpeedProfile.affine_power(1.0, 1.0, 3, 1), 3, 3)
    assert not undef.ok


def test_tabulated_profile_rejects_bad_tables():
    x = np.linspace(0.5, 2.0, 10)
    with pytest.raises(ValueError):
        SpeedProfile.tabulated(x[::-1], np.exp(x))
    with pytest.raises(ValueError):
        SpeedProfile.tabulated(x[:3], np.exp(x[:3]))


# -- pointwise speeds ---------------------------------------------------------------


def radial_speed_oracle(field, profile):
    """-(f H + n/(n-1) f' v) v with v = r / support, from the curvature field."""
    geom = radial_geometry(field)
    n, r = geom.n, field.values
    v = r / geom.support
    return -(profile.f(r) * geom.H + n / (n - 1.0) * profile.df(r) * v) * v


def support_speed_oracle(field, k):
    """1 - h E_k / E_{k-1} through the general sigma_all path."""
    geom = support_geometry(field)
    ek = elementary_symmetric(geom.kappa, k)
    ekm1 = elementary_symmetric(geom.kappa, k - 1)
    return 1.0 - field.values * ek / ekm1


def support_speed(field, k):
    return _SupportKernel(field.grid, SpeedProfile.constant(1.0), field.grid.n, k).speed(field.values)


def test_radial_speed_sphere_examples():
    grid = SphericalGrid.axisym(2, 64)
    n = 2
    # stationary at the pinned radius
    prof = SpeedProfile.power_exp_pinned(n, 1.0)
    speed = _RadialKernel(grid, prof, n).speed(sphere_radial(grid, 1.0).values)
    assert np.abs(speed).max() < 1e-12
    # pure mean curvature rate for f = 1
    speed = _RadialKernel(grid, SpeedProfile.constant(1.0), n).speed(sphere_radial(grid, 2.0).values)
    assert np.allclose(speed, -n / 2.0, atol=1e-10)
    # equality profile: every sphere stationary
    kernel = _RadialKernel(grid, SpeedProfile.power(1.0 - n, domain=(0.5, 2.0)), n)
    for radius in (0.8, 1.0, 1.6):
        assert np.abs(kernel.speed(sphere_radial(grid, radius).values)).max() < 1e-12


def test_radial_speed_matches_sphere_ode_form():
    # on a round sphere the speed is -(n/(n-1)) R fhat(R)
    grid = SphericalGrid.axisym(2, 32)
    prof = SpeedProfile.power_exp_pinned(2, 1.0)
    for radius in (0.8, 1.3):
        speed = _RadialKernel(grid, prof, 2).speed(sphere_radial(grid, radius).values)
        expected = -2.0 * radius * float(prof.hat(radius, 2))
        assert np.allclose(speed, expected, rtol=1e-12)


def test_support_speed_sphere_stationary():
    for k in (1, 2):
        grid = SphericalGrid.full_s2(32, 64)
        speed = support_speed(sphere_support(grid, 2.0), k)
        assert np.abs(speed).max() < 1e-11


def test_support_speed_translated_sphere():
    # h = R + <v, nu>, k = 1: speed is -<v, nu>/R
    grid = SphericalGrid.axisym(2, 96)
    radius, c = 1.0, 0.2
    speed = support_speed(sphere_support(grid, radius, center=c), 1)
    expected = -c * grid.cos_t / radius
    assert np.abs(speed - expected).max() < 1e-4


def test_support_speed_contraction_identity_path():
    # 1 - h F = dE_k^{ij} (g_ij - h h_ij) / (k E_{k-1}) via the trace identities
    grid = SphericalGrid.full_s2(24, 48)
    field = random_convex_support(grid, np.random.default_rng(8), amp=0.08)
    geom = support_geometry(field)
    for k in (1, 2):
        direct = support_speed(field, k)
        kap = geom.kappa.reshape(-1, 2)
        h = geom.support.reshape(-1)
        dek = ek_derivative_eigen(kap, k)
        ekm1 = sigma_all(kap)[:, k - 1] / math.comb(2, k - 1)
        contraction = np.sum(dek * (1.0 - h[:, None] * kap), axis=1) / (k * ekm1)
        assert np.abs(direct.reshape(-1) - contraction).max() < 1e-9


def test_kernel_speed_matches_public_op():
    grid = SphericalGrid.axisym(2, 48)
    prof = SpeedProfile.power_exp_pinned(2, 1.0)
    vals = 1.0 + 0.15 * np.cos(2 * grid.theta)
    kernel = _RadialKernel(grid, prof, 2)
    oracle = radial_speed_oracle(ScalarField(grid, vals), prof)
    assert np.abs(kernel.speed(vals) - oracle).max() < 1e-13

    g2 = SphericalGrid.full_s2(24, 48)
    h = random_convex_support(g2, np.random.default_rng(3), amp=0.06)
    for k in (1, 2):
        assert np.abs(support_speed(h, k) - support_speed_oracle(h, k)).max() < 1e-12

    # axisymmetric pair form, general n
    g3 = SphericalGrid.axisym(4, 64)
    h = random_convex_support(g3, np.random.default_rng(9), amp=0.05)
    geom = support_geometry(h)
    for k in (1, 2, 3, 4):
        kernel = _SupportKernel(g3, SpeedProfile.constant(1.0), 4, k)
        assert np.abs(kernel.speed(h.values) - support_speed_oracle(h, k)).max() < 1e-12
        # conserved quermassintegral agrees with the geometry route
        from curvelab import quermassintegrals
        assert kernel.conserved_value(h.values) == pytest.approx(
            quermassintegrals(geom)[k - 1], rel=1e-12)


# -- integration runs ------------------------------------------------------------------


def test_sphere_to_sphere_matches_scalar_ode():
    grid = SphericalGrid.axisym(2, 32)
    prof = SpeedProfile.power_exp_pinned(2, 1.0)
    config = FlowConfig(kind="radial", t_end=0.5, cfl=0.4, output_interval=0.05)
    trace = run_flow(sphere_radial(grid, 1.2), prof, config)

    def rhs(t, y):
        return [-2.0 * y[0] * float(prof.hat(y[0], 2))]

    sol = solve_ivp(rhs, (0, trace.t_final), [1.2], rtol=1e-12, atol=1e-14)
    r_final = trace.meta["final_state"]
    assert np.abs(r_final - sol.y[0, -1]).max() < 1e-8
    assert np.ptp(r_final) < 1e-13  # stays exactly round


def test_radial_run_converges_and_q_monotone():
    grid = SphericalGrid.axisym(2, 96)
    prof = SpeedProfile.power_exp_pinned(2, 1.0)
    r0 = ScalarField(grid, 1.0 + 0.15 * np.cos(2 * grid.theta))
    config = FlowConfig(kind="radial", t_end=6.0, cfl=0.4)
    trace = run_flow(r0, prof, config)
    assert trace.status == "Converged"
    assert abs(trace.meta["r_star"] - 1.0) < 1e-9
    r_final = trace.meta["final_state"]
    assert np.abs(r_final - 1.0).max() < 2e-3
    q = trace.values("Q")
    assert np.all(np.diff(q) <= 1e-8 * np.abs(q[:-1]))
    assert not [b for b in trace.breaches if b.kind == "monotone"]
    # radius band of the maximum principle
    assert trace.values("r_min").min() >= min(1.0, float(r0.values.min())) - 1e-6
    assert trace.values("r_max").max() <= max(1.0, float(r0.values.max())) + 1e-6


def test_radial_run_rejects_inadmissible_profile_unless_forced():
    grid = SphericalGrid.axisym(2, 32)
    r0 = sphere_radial(grid, 1.2)
    config = FlowConfig(kind="radial", t_end=0.1)
    with pytest.raises(AssumptionViolated):
        run_flow(r0, SpeedProfile.constant(1.0, domain=(0.5, 1.8)), config)
    forced = FlowConfig(kind="radial", t_end=0.05, force=True)
    trace = run_flow(r0, SpeedProfile.constant(1.0, domain=(0.5, 1.8)), forced)
    assert "profile_violation" in trace.meta
    # Q stays monotone even for inadmissible profiles
    q = trace.values("Q")
    assert np.all(np.diff(q) <= 1e-8 * np.abs(q[:-1]))


def test_support_run_centred_sphere_is_stationary():
    grid = SphericalGrid.full_s2(16, 32)
    config = FlowConfig(kind="support", k=1, t_end=0.5, osc_tol=1e-4)
    trace = run_flow(sphere_support(grid, 2.0), None, config)
    assert trace.status == "Converged"
    assert np.abs(trace.meta["final_state"] - 2.0).max() < 1e-10


def test_support_run_recentres_translated_sphere():
    grid = SphericalGrid.full_s2(32, 64)
    h0 = sphere_support(grid, 1.0, center=np.array([0.12, 0.0, 0.1]))
    config = FlowConfig(kind="support", k=1, t_end=12.0, cfl=0.4, osc_tol=2e-4)
    trace = run_flow(h0, None, config)
    assert trace.status == "Converged"
    osc = trace.values("oscillation")
    assert osc[-1] < 2e-4
    assert np.all(np.diff(osc) < 1e-6)  # the centre offset decays monotonically
    geom = support_geometry(ScalarField(grid, trace.meta["final_state"]))
    assert np.abs(geom.kappa - 1.0).max() < 1e-4  # radius preserved
    assert trace.meta["conserved_drift"] < 1e-5


@pytest.mark.parametrize("k", [1, 2])
def test_support_run_perturbed_sphere(k):
    grid = SphericalGrid.full_s2(32, 64)
    h0 = random_convex_support(grid, np.random.default_rng(12), amp=0.05)
    config = FlowConfig(kind="support", k=k, t_end=10.0, cfl=0.4, osc_tol=2e-4)
    trace = run_flow(h0, None, config)
    assert trace.status == "Converged"
    assert trace.meta["conserved_drift"] < 1e-3
    mk = trace.values("M_k")
    assert np.all(np.diff(mk) <= 1e-8 * np.abs(mk[:-1]))
    # margin is negative off the sphere and rises toward zero as it rounds
    margins = trace.values("margin")
    assert margins[0] < 0
    assert margins[-1] > margins[0]
    assert abs(margins[-1]) < 1e-3


def test_support_run_with_varying_admissible_density():
    # f(h) = (0.8 h + 0.4)^(1/2) makes g = f^2 affine, the non-trivial
    # admissible case; M_1 = int g(h) dmu must still be nonincreasing
    grid = SphericalGrid.full_s2(32, 64)
    prof = SpeedProfile.affine_power(0.8, 0.4, 2, 1)
    assert validate_support_profile(prof, 2, 1).ok
    h0 = random_convex_support(grid, np.random.default_rng(21), amp=0.06)
    config = FlowConfig(kind="support", k=1, t_end=8.0, cfl=0.5, osc_tol=2e-4)
    trace = run_flow(h0, prof, config)
    assert trace.status == "Converged"
    mk = trace.values("M_k")
    assert np.all(np.diff(mk) <= 1e-8 * np.abs(mk[:-1]))
    assert not trace.breaches
    assert trace.meta["conserved_drift"] < 1e-3


def test_radial_run_full_s2_grid():
    # non-zonal starshaped start on the full grid: exercises the slow radial
    # kernel branch together with the zonal polar filter
    from curvelab.shapes import harmonic_mode

    grid = SphericalGrid.full_s2(24, 48)
    prof = SpeedProfile.power_exp_pinned(2, 1.0)
    vals = 1.0 + 0.1 * harmonic_mode(grid, 2, 1) + 0.05 * harmonic_mode(grid, 3, 2, "sin")
    config = FlowConfig(kind="radial", t_end=6.0, cfl=0.4, grad_tol=1e-4, hatf_tol=1e-3)
    trace = run_flow(ScalarField(grid, vals), prof, config)
    assert trace.status == "Converged"
    assert np.abs(trace.meta["final_state"] - 1.0).max() < 5e-3
    q = trace.values("Q")
    assert np.all(np.diff(q) <= 1e-8 * np.abs(q[:-1]))


def test_support_run_axisym_higher_dimension():
    # n = 3 support flow through the closed-form axisymmetric kernel
    grid = SphericalGrid.axisym(3, 48)
    h0 = random_convex_support(grid, np.random.default_rng(15), amp=0.05)
    config = FlowConfig(kind="support", k=2, t_end=8.0, cfl=0.5, osc_tol=2e-4)
    trace = run_flow(h0, None, config)
    assert trace.status == "Converged"
    assert trace.meta["conserved_drift"] < 1e-3
    mk = trace.values("M_k")
    assert np.all(np.diff(mk) <= 1e-8 * np.abs(mk[:-1]))
    # limit radius predicted by the conserved quermassintegral
    from curvelab import ball_quermass_inverse

    predicted = ball_quermass_inverse(1, trace.meta["conserved_initial"], 3)
    final = trace.rows[-1]
    assert 0.5 * (final["r_min"] + final["r_max"]) == pytest.approx(predicted, rel=1e-3)


def test_rk4_temporal_order_on_sphere_ode():
    grid = SphericalGrid.axisym(2, 16)
    prof = SpeedProfile.power_exp_pinned(2, 1.0)

    def rhs(t, y):
        return [-2.0 * y[0] * float(prof.hat(y[0], 2))]

    ref = solve_ivp(rhs, (0, 0.2), [1.3], rtol=1e-13, atol=1e-15).y[0, -1]
    errs = []
    for dt in (0.02, 0.01):
        config = FlowConfig(kind="radial", t_end=0.2, dt_fixed=dt, output_interval=0.2)
        trace = run_flow(sphere_radial(grid, 1.3), prof, config)
        errs.append(abs(float(trace.meta["final_state"][0]) - ref))
    ratio = errs[0] / errs[1]
    assert 10.0 <= ratio <= 22.0  # RK4: ~16x per halving


# -- post-run estimates -------------------------------------------------------------------


def test_decay_rate_on_synthetic_trace():
    trace = FlowTrace(kind="radial", n=2, k=1)
    for i, t in enumerate(np.linspace(0, 5, 40)):
        trace.rows.append({"t": float(t), "grad_max": 3.0 * math.exp(-0.7 * t)})
    fit = estimate_decay_rate(trace)
    assert fit.gamma == pytest.approx(0.7, abs=1e-6)
    assert fit.r_squared > 1 - 1e-12


def test_decay_rate_flat_trace_insufficient():
    trace = FlowTrace(kind="radial", n=2, k=1)
    for t in np.linspace(0, 5, 40):
        trace.rows.append({"t": float(t), "grad_max": 0.0})
    with pytest.raises(InsufficientData):
        estimate_decay_rate(trace)


def test_area_evolution_consistency_radial_and_support():
    grid = SphericalGrid.axisym(2, 96)
    r0 = ScalarField(grid, 1.0 + 0.1 * np.cos(2 * grid.theta))
    out = area_evolution_consistency(r0, SpeedProfile.power_exp_pinned(2, 1.0),
                                     FlowConfig(kind="radial", t_end=1.0))
    assert out["rel_error"] < 0.01

    # support side: the Gauss-map parametrization adds a tangential
    # reparametrization term to the discrete area rate; it vanishes at
    # second order under refinement
    errs = []
    for nt in (32, 64, 128):
        g2 = SphericalGrid.full_s2(nt, 2 * nt)
        h0 = random_convex_support(g2, np.random.default_rng(4), amp=0.08)
        out = area_evolution_consistency(h0, None, FlowConfig(kind="support", k=1, t_end=1.0))
        errs.append(out["rel_error"])
    assert errs[1] / errs[0] < 0.35
    assert errs[2] / errs[1] < 0.35
    assert errs[2] < 0.01


def test_q_rate_matches_monotonicity_integrand():
    # dQ/dt = -int f^(1/(n-1)) (f H + n/(n-1) f' v)^2 dmu within 5% at small dt
    grid = SphericalGrid.axisym(2, 128)
    prof = SpeedProfile.power_exp_pinned(2, 1.0)
    kernel = _RadialKernel(grid, prof, 2)
    r = 1.0 + 0.15 * np.cos(2 * grid.theta)
    n = 2

    def q_value(u):
        return kernel.monotone_value(u)

    def integrand(u):
        geom = radial_geometry(ScalarField(grid, u))
        v = u / geom.support
        f = prof.f(u)
        term = f * geom.H + n / (n - 1.0) * prof.df(u) * v
        w = grid.weights * geom.area_factor
        return -float(np.sum(w * f ** (1.0 / (n - 1.0)) * term**2))

    dt = kernel.stable_dt(r, 0.2)
    r1 = _rk4_step(kernel, r, dt)
    fd = (q_value(r1) - q_value(r)) / dt
    predicted = 0.5 * (integrand(r) + integrand(r1))
    assert predicted < 0
    assert abs(fd - predicted) / abs(predicted) < 0.05


def test_trace_timestamps_strictly_increasing():
    grid = SphericalGrid.axisym(2, 64)
    config = FlowConfig(kind="radial", t_end=0.3, cfl=0.4, output_interval=0.02)
    trace = run_flow(sphere_radial(grid, 1.15), SpeedProfile.power_exp_pinned(2, 1.0), config)
    t = trace.times
    assert np.all(np.diff(t) > 0)


def test_trace_csv_round_trip(tmp_path):
    grid = SphericalGrid.axisym(2, 32)
    config = FlowConfig(kind="radial", t_end=0.05, output_interval=0.01)
    trace = run_flow(sphere_radial(grid, 1.1), SpeedProfile.power_exp_pinned(2, 1.0), config)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    import csv

    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == trace.columns
    assert len(rows) == len(trace.rows) + 1
    # full round-trip precision
    assert float(rows[1][0]) == trace.rows[0]["t"]
    summary = trace.summary()
    assert summary["status"] == trace.status
    assert set(["t_final", "breach_count"]).issubset(summary)


def test_step_collapse_carries_partial_trace():
    from curvelab import StepCollapse

    grid = SphericalGrid.axisym(2, 32)
    prof = SpeedProfile.power_exp_pinned(2, 1.0)
    # a fixed step far beyond the stability limit blows the state up; the
    # collapse carries the partial trace for post-mortem inspection
    config = FlowConfig(kind="radial", t_end=5.0, dt_fixed=0.5, output_interval=0.5)
    with pytest.raises(StepCollapse) as err:
        run_flow(ScalarField(grid, 1.0 + 0.2 * np.cos(2 * grid.theta)), prof, config)
    assert err.value.trace is not None
    assert err.value.trace.rows
    assert err.value.trace.status == "error:StepCollapse"


def test_kernels_reject_non_finite_states():
    from curvelab import DegenerateMetric

    for grid in (SphericalGrid.axisym(3, 32), SphericalGrid.full_s2(16, 32)):
        state = np.ones(grid.node_shape)
        state.flat[5] = np.nan
        with pytest.raises(DegenerateMetric):
            _RadialKernel(grid, SpeedProfile.power_exp_pinned(grid.n, 1.0), grid.n).speed(state)
        with pytest.raises(DegenerateMetric):
            _SupportKernel(grid, SpeedProfile.constant(1.0), grid.n, 1).speed(state)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(kind="radial", t_end=1.0, cfl=0.6)
    with pytest.raises(ValueError):
        FlowConfig(kind="radial", t_end=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(kind="banana", t_end=1.0)
    # a zero fixed step never advances t; a negative output interval never
    # passes the next output time
    with pytest.raises(ValueError):
        FlowConfig(kind="radial", t_end=1.0, dt_fixed=0.0)
    with pytest.raises(ValueError):
        FlowConfig(kind="radial", t_end=1.0, output_interval=-0.1)
