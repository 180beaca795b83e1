"""Acceptance battery: one test per criterion, printing one line per check.

The static-convexity margin and the pinned-profile deficit criteria take
their form from mathematical obstructions (see the module docstring of
curvelab.acceptance): only origin-centred spheres have a nonnegative margin,
and for non-constant densities the sphere-area constant gives way to
Brendle's ball constant.  The check details carry the measured values.
"""

import time

import pytest

from curvelab import acceptance


def _run(fn):
    result = fn()
    print()
    print(result)
    assert result.passed, "\n" + str(result)


def test_ac1_curvature_oracle():
    _run(acceptance.ac1)


def test_ac2_trace_identities():
    _run(acceptance.ac2)


def test_ac3_newton_maclaurin():
    _run(acceptance.ac3)


def test_ac4_minkowski_identity():
    _run(acceptance.ac4)


def test_ac5_radial_flow_convergence():
    _run(acceptance.ac5)


def test_ac6_support_flow_conservation_and_convergence():
    _run(acceptance.ac6_flow)


def test_ac6_static_convexity_margin_literal():
    # only origin-centred spheres have nonnegative margin, so preservation
    # is checked on them and the sign elsewhere
    _run(acceptance.ac6_static_margin)


def test_ac7_deficit_fuzz_constant_density():
    _run(acceptance.ac7_constant_density)


def test_ac7_runtime_budget_counts_the_sampling_once():
    # a fresh call draws the samples on the criterion's own clock
    acceptance._ac7_samples.cache_clear()
    start = time.perf_counter()
    result = acceptance.ac7_constant_density()
    wall = time.perf_counter() - start
    budget = next(line for line in result.lines if line.label == "runtime budget")
    assert float(budget.detail.split()[0]) <= wall + 0.05  # printed to 0.1 s


def test_ac7_deficit_fuzz_pinned_profile_literal():
    # the sphere-area constant admits negative deficits for non-constant
    # densities; Brendle's bound and an analytic oracle are checked instead
    _run(acceptance.ac7_profile_density)


def test_ac8_k_deficit_fuzz():
    _run(acceptance.ac8)


def test_ac9_exponential_decay():
    _run(acceptance.ac9)


def test_ac10_area_evolution_consistency():
    _run(acceptance.ac10)


def test_ac11_temporal_order():
    _run(acceptance.ac11)
