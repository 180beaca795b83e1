"""Mutants of the shared curvature algebra and the flow speeds, each caught by a named test.

A mutant replaces one function by a one-line variant (a monkeypatch in every
curvelab module that holds the name) and calls the tier-1 test it must fail;
the unmutated test passes in the tier-1 run, so each case shows that test can
see the change.
"""

import math

import numpy as np
import pytest

import test_flows
import test_symfunc
from curvelab import SphericalGrid, flows, symfunc
from curvelab.symfunc import _sigmas


def mutate(monkeypatch, name, replacement):
    """Replace ``name`` in symfunc and in flows, wherever the module holds it."""
    for module in (symfunc, flows):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


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
