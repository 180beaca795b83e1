"""Mutants of the shared curvature algebra, the grid's weights, the flow speeds, step
sizes and extrapolated step and the flows' monitors, each caught by a named test.

A mutant replaces one function by a one-line variant, or one constant (a
monkeypatch in every curvelab module that holds the name), and calls the
tier-1 test it must fail; the unmutated test passes in the tier-1 run, so
each case shows that test can see the change.
"""

import functools
import inspect
import math

import numpy as np
import pytest

import test_acceptance
import test_cli
import test_flows
import test_sphere_grid
import test_symfunc
from curvelab import SphericalGrid, acceptance, flows, functionals, geometry, symfunc
from curvelab.sphere_grid import sphere_area
from curvelab.symfunc import _sigmas


def mutate(monkeypatch, name, replacement):
    """Replace ``name`` in symfunc, geometry, functionals, flows and acceptance, wherever the module holds it.

    The mutant also gets an empty one-vector memo of its own, so it is never
    served an entry computed before its patch, and the unmutated memo, put
    back with the patch, never holds an entry computed under it.
    """
    monkeypatch.setattr(symfunc, "_MEMO", {})
    for module in (symfunc, geometry, functionals, flows, acceptance):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def test_sigmas_without_its_sigma_1_sum_is_caught(monkeypatch):
    def no_sigma_1_sum(entries):
        sig = [1.0] + list(entries[:1])
        for x in entries[1:]:
            sig.append(x * sig[-1])
            for j in range(len(sig) - 2, 1, -1):
                sig[j] = sig[j] + x * sig[j - 1]
        return sig

    mutate(monkeypatch, "_sigmas", no_sigma_1_sum)
    # sigma_all runs the same mutant, so only the test's subset-sum oracle sees it
    with pytest.raises(AssertionError):
        test_symfunc.test_field_sigma_is_sigma_all_of_the_pair_vector(SphericalGrid.axisym(2, 24), "support")


def test_monotone_breach_threshold_1e_3_is_caught(monkeypatch):
    # M5: the scripted 2e-8 rise of Q is no longer a breach
    monkeypatch.setattr(flows, "_MONO_REL_TOL", 1e-3)
    with pytest.raises(AssertionError):
        test_flows.test_a_rise_above_1e_8_of_q_is_one_monotone_breach(monkeypatch)


def test_q_exponent_1_is_caught(monkeypatch):
    # M8: Q = int f dmu in place of int f^(n/(n-1)) dmu; a radius-1.3 sphere's
    # Q row no longer equals f(R)^2 |S^2| R^2
    def q_linear(geom, f):
        return geom.grid.reduce(geom.area_weights * f ** 1.0)

    mutate(monkeypatch, "_q_integral", q_linear)
    with pytest.raises(AssertionError):
        test_flows.test_sphere_rows_match_the_closed_forms("axisym", 2, "radial", 1, 1.3)


def test_sphericity_with_2_for_n_is_caught(monkeypatch):
    # M14: n |A|^2 / H^2 - 1 with 2 in place of n reads -1/3 on an n = 3 sphere
    def sphericity_2(field):
        return field.grid.reduce(2 * field.A2 / field.H**2 - 1.0, "max")

    mutate(monkeypatch, "sphericity", sphericity_2)
    with pytest.raises(AssertionError):
        test_flows.test_sphere_rows_match_the_closed_forms("axisym", 3, "support", 1, 1.3)


def test_support_c_max_from_the_smaller_coefficient_is_caught(monkeypatch):
    # M4: c_max = max h min(c1, c2) in place of max h max(c1, c2); at k = n = 2
    # the two coefficients coincide, so the case is k = 1
    gradient = symfunc._quotient_gradient

    def smaller(sig, rests, k, weights):
        c1, c2 = gradient(sig, rests, k, weights)
        return [np.minimum(c1, c2)] * 2

    monkeypatch.setattr(flows, "_quotient_gradient", smaller)
    with pytest.raises(AssertionError):
        test_flows.test_support_c_max_is_the_vector_quotient_gradient_at_the_worst_node(
            SphericalGrid.full_s2(8, 16), 1)


def test_quotient_gradient_with_its_sigma_k_sign_flipped_is_caught(monkeypatch):
    def flipped(sig, rests, k, weights):
        n = len(sig) - 1
        scale = math.comb(n, k - 1) / math.comb(n, k) / sig[k - 1] ** 2
        return [w * scale * (rest[k - 1] * sig[k - 1] + sig[k] * (rest[k - 2] if k > 1 else 0.0))
                for rest, w in zip(rests, weights)]

    mutate(monkeypatch, "_quotient_gradient", flipped)
    with pytest.raises(AssertionError):
        test_symfunc.test_quotient_monotone_in_each_argument()


def test_leave_one_out_dropping_the_next_entry_is_caught(monkeypatch):
    def next_dropped(values):
        return [_sigmas(values[:p + 1] + values[p + 2:]) for p in range(len(values))]

    mutate(monkeypatch, "_leave_one_out", next_dropped)
    with pytest.raises(AssertionError):
        test_symfunc.test_derivative_eigen_equals_leave_one_out_construction_bit_for_bit(3)


def test_radial_speed_without_v_in_its_f_prime_term_is_caught(monkeypatch):
    # M2: dr/dt = -(f H + c f') v in place of -(f H + c f' v) v
    def speed(self, geom):
        n, r = self.n, geom.scalar
        v = geom.metric_source / r
        f, fp = self.profile.f_df(r)
        return -(f * geom.H + n / (n - 1.0) * fp) * v

    monkeypatch.setattr(flows._RadialKernel, "speed", speed)
    with pytest.raises(AssertionError):
        test_flows.test_q_rate_matches_the_implemented_flows_first_variation(0.15)


def test_memo_keyed_by_value_tuple_is_caught(monkeypatch):
    # -0.0 == 0.0 in a tuple key, so (-0.0, 1.0) is served the entry of (0.0, 1.0)
    vector = symfunc._vector
    by_tuple = functools.lru_cache(maxsize=1)(lambda values: vector(np.array(values)))
    mutate(monkeypatch, "_vector", lambda kappa: by_tuple(tuple(np.asarray(kappa, dtype=float).tolist())))
    with pytest.raises(AssertionError):
        test_symfunc.test_memo_keeps_minus_zero_apart_from_zero()


def test_deficit_h_without_its_gradient_term_is_caught(monkeypatch):
    # M15: lhs = int f |H| dmu, without |grad^T f|^2; the translated-sphere
    # deficit under the pinned profile leaves its -eps^2/12 oracle
    deficit = functionals.michael_simon_deficit_H
    mutate(monkeypatch, "michael_simon_deficit_H", lambda geom, f=None, grad_f=None: deficit(geom, f))
    with pytest.raises(AssertionError):
        test_acceptance.test_ac7_deficit_fuzz_pinned_profile_literal()


def test_radial_c_max_without_the_second_r_is_caught(monkeypatch, tmp_path):
    # M3: c_max = max f / r in place of max f / r^2 sizes the steps alone,
    # so only the pinned radial trace sees it
    assess = flows._RadialKernel.assess

    def over_r(self, r):
        value, _, converged, geom = assess(self, r)
        return value, float(np.max(self.profile.f(r) / r)), converged, geom

    monkeypatch.setattr(flows._RadialKernel, "assess", over_r)
    with pytest.raises(AssertionError):
        test_cli.test_committed_configs_reproduce_their_pinned_artefacts(tmp_path, *test_cli.PINNED[0])


def test_sin_theta_weights_at_n_2_are_caught(monkeypatch):
    # M7: sin theta cell weights, as for n >= 3, in place of the n = 2
    # summation-by-parts profile; the grid's int Delta v no longer vanishes
    init = SphericalGrid.__init__

    def sin_weights(self, *args):
        init(self, *args)
        raw = np.broadcast_to(self._sin ** (self.n - 1), self.node_shape)
        self.weights = raw * (sphere_area(self.n) / raw.sum())

    monkeypatch.setattr(SphericalGrid, "__init__", sin_weights)
    for grid in (SphericalGrid.full_s2(24, 48), SphericalGrid.axisym(2, 24)):
        with pytest.raises(AssertionError):
            test_sphere_grid.test_laplacian_sums_by_parts_under_the_weights(grid)


def test_laplacian_diagonals_with_tangential_weight_1_are_caught(monkeypatch):
    # the axisymmetric blocks take the tangential Hessian once, not n - 1
    # times; the pooled block spectrum leaves the dense operator's at n = 5
    def tangential_once(self):
        hess = self.derivatives(np.eye(self.n_theta))[1]  # row j: the response to a delta on row j
        block = (hess[0] + hess[1]).T
        return tuple(np.diagonal(block, k)[None].copy() for k in (-1, 0, 1))

    monkeypatch.setattr(SphericalGrid, "_laplacian_diagonals", tangential_once)
    with pytest.raises(AssertionError):
        test_sphere_grid.test_laplacian_diagonals_carry_the_dense_spectrum(SphericalGrid.axisym(5, 32))


def test_tableau_weight_k_over_j_minus_k_is_caught(monkeypatch):
    # M12: the Aitken-Neville weight (j - k) / k inverted to k / (j - k) in the
    # step's source; the extrapolation loses its order, and the sphere ODE's
    # error ratio under dt halving reads about 2 in place of 16
    source = inspect.getsource(flows._extrapolated_step)
    namespace = dict(vars(flows))
    exec(source.replace("((j - k) / k)", "(k / (j - k))"), namespace)
    monkeypatch.setattr(flows, "_extrapolated_step", namespace["_extrapolated_step"])
    with pytest.raises(AssertionError):
        test_flows.test_temporal_order_on_sphere_ode()


def test_spread_key_halved_is_caught(monkeypatch):
    # M13: every step keys its resolvent at half its spread, so the implicit
    # Laplacian damps the pole rows' stiffest zonal mode too little: 1e-8 noise
    # grows to 2e-2 (radial) and 1e-5 (support) by t = 0.5
    step = flows._extrapolated_step
    monkeypatch.setattr(flows, "_extrapolated_step",
                        lambda kernel, u, h, spread, start: step(kernel, u, h, spread / 2, start))
    for kind in ("radial", "support"):
        with pytest.raises(AssertionError):
            test_flows.test_implicit_laplacian_smooths_grid_scale_noise_on_a_pole_row(kind)


def test_decay_fit_without_centring_is_caught(monkeypatch):
    # M16: the fit's line drawn through the origin, slope = sum t g / sum t^2 on the
    # raw window, a one-line edit of estimate_decay_rate's source
    source = inspect.getsource(flows.estimate_decay_rate)
    namespace = dict(vars(flows))
    exec(source.replace("(t - t.mean()) / span, g - g.mean()", "t / span, g"), namespace)
    monkeypatch.setattr(flows, "estimate_decay_rate", namespace["estimate_decay_rate"])
    monkeypatch.setattr(test_flows, "estimate_decay_rate", namespace["estimate_decay_rate"])
    with pytest.raises(AssertionError):
        test_flows.test_decay_rate_matches_the_polyfit_oracle("noisy")
