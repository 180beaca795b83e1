"""Acceptance battery: one test per criterion, printing one line per check.

The static-convexity margin and the pinned-profile deficit criteria take
their form from mathematical obstructions (see the module docstring of
curvelab.acceptance): only origin-centred spheres have a nonnegative margin,
and for non-constant densities the sphere-area constant gives way to
Brendle's ball constant.  Each check carries its measured value, operator
and bound as fields, and its detail is rendered from them.
"""

import math
import re
import time

import pytest

from curvelab import acceptance
from curvelab.acceptance import CheckLine


def _numbers(text):
    return {float(x) for x in re.findall(r"-?\d+(?:\.\d+)?(?:e-?\d+)?", text)}


def _run(fn):
    result = fn()
    print()
    print(result)
    assert result.passed, "\n" + str(result)
    for line in result.lines:  # each bound is stated once, in its field
        bounds = line.bound if isinstance(line.bound, tuple) else (line.bound,)
        for bound in bounds:
            if isinstance(bound, str):
                assert bound not in line.label + line.note, line
            else:
                assert bound not in _numbers(line.label) | _numbers(line.note), line


@pytest.mark.parametrize("op, bound, passing, failing", [
    ("<", 1.0, 0.999, 1.0),
    ("<=", 1.0, 1.0, 1.001),
    (">", 0.0, 1e-300, 0.0),
    (">=", -1e-12, -1e-12, -2e-12),
    ("==", 0, 0, 1),
    ("==", "Converged", "Converged", "TimeExhausted"),
    ("in", (12.0, 20.0), 12.0, 11.99),
    ("in", (12.0, 20.0), 20.0, 20.01),
])
def test_check_line_passes_on_one_side_of_its_bound_only(op, bound, passing, failing):
    assert CheckLine("gate", passing, op, bound).passed
    assert not CheckLine("gate", failing, op, bound).passed
    assert not CheckLine("gate", math.nan, op, bound).passed  # a NaN value fails every gate


def test_check_line_renders_its_fields_into_report_entries():
    line = CheckLine("error ratio", 16.1734, "in", (12.0, 20.0), "order 4 gives about 16")
    assert line.detail == "16.2 in [12, 20]; order 4 gives about 16"
    assert CheckLine("breaches", 0, "==", 0).detail == "0 == 0"
    result = acceptance.CriterionResult("AC-0", [line])
    assert result.to_dict()["checks"] == [{
        "label": "error ratio", "value": 16.1734, "op": "in", "bound": (12.0, 20.0),
        "note": "order 4 gives about 16", "passed": True, "detail": line.detail,
    }]


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
    assert budget.value <= wall


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
