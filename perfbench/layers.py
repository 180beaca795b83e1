"""Layer hooks, the per-layer metrics derived from them, and their predictions.

README.md maps each layer metric to the end-to-end metric and workloads it
should move.  A span listed under ``BYPASS`` is predicted to make no calls
on those workloads and some calls on the others; the traced run checks both
predictions and reports mismatches.
"""

from __future__ import annotations

from tracer import Hook, percentile

FLOW_KINDS = ("_RadialKernel", "_SupportKernel")
GRID_OPS = ("d_theta", "d2_theta", "d_phi", "d2_phi", "hessian_components", "gradient", "zonal_filter")
GEOMETRY = ("radial_geometry", "support_geometry", "static_convexity", "sphericity")
SHAPES = ("random_starshaped", "random_convex_support")
FUNCTIONALS = ("quermassintegrals", "monotone_quantities", "michael_simon_deficit_H", "michael_simon_deficit_k")
SYMFUNC = ("sigma_all", "jacobi_eigh", "ek_derivative_tensor", "newton_maclaurin_gap", "gamma_cone_member")


def _observe_flow(tracer, _args, trace):
    tracer.count("flows.steps", trace.meta.get("steps", 0))
    tracer.count("flows.rows", len(trace.rows))
    tracer.count("flows.breaches", len(trace.breaches))


def _observe_hessian(tracer, args, result):
    # bytes read and written at the call boundary, computed from array sizes
    tracer.count("sphere_grid.hessian_components.bytes_computed",
                 args[1].nbytes + sum(part.nbytes for part in result))


def hooks():
    out = [Hook("curvelab.flows", "run_flow", "flows.run_flow", _observe_flow),
           Hook("curvelab.flows", "_diagnostic_row", "flows.diagnostic_row"),
           Hook("curvelab.flows", "_SupportKernel._radii", "flows.radii")]
    for kind in FLOW_KINDS:
        for method in ("speed", "stable_dt", "monotone_value", "metrics"):
            out.append(Hook("curvelab.flows", f"{kind}.{method}", f"flows.{method}"))
    for op in GRID_OPS:
        observe = _observe_hessian if op == "hessian_components" else None
        out.append(Hook("curvelab.sphere_grid", f"SphericalGrid.{op}", f"sphere_grid.{op}", observe))
    for module, names in (("geometry", GEOMETRY), ("shapes", SHAPES),
                          ("functionals", FUNCTIONALS), ("symfunc", SYMFUNC)):
        out += [Hook(f"curvelab.{module}", name, f"{module}.{name}") for name in names]
    out += [Hook("curvelab.cli", "_verify_sample", "cli.verify_sample"),
            Hook("curvelab.cli", "cmd_verify", "cli.verify")]
    return out


# span name -> workloads on which it is predicted to make no calls
BYPASS = {
    "sphere_grid.zonal_filter": ("radial-axisym", "verify-fuzz", "algebra"),
    "sphere_grid.d_phi": ("radial-axisym", "algebra"),
    "sphere_grid.d2_phi": ("radial-axisym", "algebra"),
    "symfunc.jacobi_eigh": ("radial-axisym", "support-s2", "verify-fuzz"),
    "symfunc.ek_derivative_tensor": ("radial-axisym", "support-s2", "verify-fuzz"),
    "symfunc.newton_maclaurin_gap": ("radial-axisym", "support-s2", "verify-fuzz"),
    "flows.speed": ("verify-fuzz", "algebra"),
    "flows.diagnostic_row": ("verify-fuzz", "algebra"),
    "cli.verify_sample": ("radial-axisym", "support-s2", "algebra"),
    "functionals.michael_simon_deficit_H": ("radial-axisym", "support-s2", "algebra"),
}

TIMED = (
    ["flows.speed", "flows.stable_dt", "flows.monotone_value", "flows.metrics", "flows.diagnostic_row"]
    + [f"sphere_grid.{op}" for op in GRID_OPS]
    + [f"geometry.{name}" for name in GEOMETRY]
    + [f"shapes.{name}" for name in SHAPES]
    + [f"functionals.{name}" for name in FUNCTIONALS]
    + [f"symfunc.{name}" for name in SYMFUNC]
)


def layer_metrics(tracer):
    """Reduce one traced solve to the per-layer metric values."""
    agg = tracer.aggregate()
    out = {}
    for name in TIMED:
        calls, total, own = agg.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
        out[f"{name}.us_per_call"] = 1e6 * total / calls if calls else 0.0

    steps = tracer.counts.get("flows.steps", 0)
    rhs = agg.get("flows.speed", (0,))[0]
    radii = agg.get("flows.radii", (0,))[0]
    out["flows.steps"] = steps
    out["flows.rhs_evals"] = rhs
    out["flows.rhs_per_step"] = rhs / steps if steps else 0.0
    out["flows.radii_per_step"] = radii / steps if steps else 0.0
    out["flows.stepping_s"] = (agg.get("flows.run_flow", (0, 0.0))[1]
                               - agg.get("flows.diagnostic_row", (0, 0.0))[1])
    out["flows.breaches"] = tracer.counts.get("flows.breaches", 0)
    out["flows.rows"] = tracer.counts.get("flows.rows", 0)
    out["sphere_grid.hessian_components.bytes_computed"] = tracer.counts.get(
        "sphere_grid.hessian_components.bytes_computed", 0)

    samples = sum(agg.get(f"shapes.{name}", (0,))[0] for name in SHAPES)
    builds = sum(tracer.calls_under(f"geometry.{name}", {f"shapes.{s}" for s in SHAPES})
                 for name in ("radial_geometry", "support_geometry"))
    out["shapes.geometry_builds_per_sample"] = builds / samples if samples else 0.0

    per_sample = [1e3 * d for d in tracer.durations("cli.verify_sample")]
    out["cli.verify_sample.p50_ms"] = percentile(per_sample, 0.5) if per_sample else 0.0
    out["cli.verify_sample.p80_ms"] = percentile(per_sample, 0.8) if per_sample else 0.0
    return out


def prediction_mismatches(tracer, workload):
    """Spans that fired where a bypass was predicted, or stayed silent elsewhere."""
    agg = tracer.aggregate()
    out = []
    for span, bypassed in BYPASS.items():
        calls = agg.get(span, (0,))[0]
        if workload in bypassed and calls:
            out.append(f"{span}: {calls} calls, predicted 0")
        if workload not in bypassed and not calls:
            out.append(f"{span}: 0 calls, predicted > 0")
    return out
