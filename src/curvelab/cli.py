"""Experiment runner: flow runs, deficit fuzz suites, identity batteries, reports.

Subcommands
-----------
flow        integrate one flow from a JSON config; writes trace.csv + summary.json
verify      seeded deficit fuzz suite; writes verify.csv + summary.json
identities  symmetric-function and Minkowski-identity batteries; writes identities.json
report      run the acceptance battery and print its table; writes report.json

Shared flags: --config PATH (JSON), --out DIR, --seed U64 (overrides the config
seed), --force (run flows despite profile admissibility failures).  The
environment variable CURVELAB_THREADS sets the worker count for fuzz suites.
Exit codes: 0 success/Converged, 2 TimeExhausted, 1 runtime failure, 64 bad
configuration.  CSV artifacts are RFC 4180 with '.' decimals at full
round-trip precision; every JSON artifact embeds the config hash and seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import acceptance
from .errors import ConfigError, CurveLabError, StepCollapse
from .flows import FlowConfig, SpeedProfile, estimate_decay_rate, run_flow
from .functionals import (
    ball_quermass_inverse,
    michael_simon_deficit_H,
    michael_simon_deficit_k,
    quermassintegrals,
)
from .geometry import radial_geometry, sphericity, support_geometry
from .shapes import (
    harmonic_mode,
    random_convex_support,
    random_starshaped,
    sphere_radial,
    sphere_support,
    spheroid_radial,
    spheroid_support,
)
from .sphere_grid import ScalarField, SphericalGrid

SCHEMA_VERSION = "curvelab/1"


# ---------------------------------------------------------------------------
# configuration plumbing


def _require(cfg: dict, field: str, path: str = ""):
    here = f"{path}.{field}" if path else field
    if field not in cfg:
        raise ConfigError(here, f"missing required field {here!r}")
    return cfg[field]


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError("config", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"config is not valid JSON: {exc}")


def build_grid(cfg: dict) -> SphericalGrid:
    mode = _require(cfg, "mode", "grid")
    if mode == "axisym":
        return SphericalGrid.axisym(_require(cfg, "n", "grid"), _require(cfg, "n_theta", "grid"))
    if mode == "full-s2":
        return SphericalGrid.full_s2(_require(cfg, "n_theta", "grid"), _require(cfg, "n_phi", "grid"))
    raise ConfigError("grid.mode", f"unknown grid mode {mode!r}")


def build_profile(cfg: dict | None) -> SpeedProfile | None:
    if cfg is None:
        return None
    kind = _require(cfg, "kind", "profile")
    domain = tuple(cfg.get("domain", ())) or None
    if kind == "constant":
        return SpeedProfile.constant(_require(cfg, "value", "profile"),
                                     domain or (1e-2, 100.0))
    if kind == "power-exp-pinned":
        return SpeedProfile.power_exp_pinned(
            _require(cfg, "n", "profile"), cfg.get("r_star", 1.0), domain)
    if kind == "power":
        return SpeedProfile.power(_require(cfg, "exponent", "profile"),
                                  domain or (1e-2, 100.0))
    if kind == "affine-power":
        return SpeedProfile.affine_power(
            _require(cfg, "a", "profile"), _require(cfg, "b", "profile"),
            _require(cfg, "n", "profile"), _require(cfg, "k", "profile"),
            domain or (1e-2, 100.0))
    if kind == "tabulated":
        return SpeedProfile.tabulated(_require(cfg, "x", "profile"),
                                      _require(cfg, "f", "profile"), domain)
    raise ConfigError("profile.kind", f"unknown profile kind {kind!r}")


def build_initial(cfg: dict, grid: SphericalGrid, rng: np.random.Generator,
                  parametrization: str) -> ScalarField:
    shape = _require(cfg, "shape", "initial")
    radial = parametrization == "radial"
    if shape == "sphere":
        radius = cfg.get("radius", 1.0)
        center = cfg.get("center")
        if grid.mode == "full-s2" and center is not None:
            center = np.asarray(center, float)
        return (sphere_radial if radial else sphere_support)(grid, radius, center)
    if shape == "spheroid":
        c_axis = _require(cfg, "c_axis", "initial")
        b_eq = _require(cfg, "b_equator", "initial")
        return (spheroid_radial if radial else spheroid_support)(grid, c_axis, b_eq)
    if shape == "harmonic":
        ell = _require(cfg, "ell", "initial")
        amp = _require(cfg, "amplitude", "initial")
        if not 0 < amp <= 0.45:
            raise ConfigError("initial.amplitude",
                              "harmonic amplitude must lie in (0, 0.45]")
        base = cfg.get("base", 1.0)
        mode = harmonic_mode(grid, ell, cfg.get("m", 0), cfg.get("phase", "cos"))
        return ScalarField(grid, base * (1.0 + amp * mode))
    if shape == "random":
        amp = _require(cfg, "amplitude", "initial")
        if not 0 < amp <= 0.45:
            raise ConfigError("initial.amplitude",
                              "random amplitude must lie in (0, 0.45]")
        maker = random_starshaped if radial else random_convex_support
        return maker(grid, rng, amp=amp, base=cfg.get("base", 1.0),
                     lmax=cfg.get("lmax", 4))
    if shape == "file":
        with open(_require(cfg, "path", "initial")) as handle:
            return ScalarField.from_dict(json.load(handle))
    raise ConfigError("initial.shape", f"unknown initial shape {shape!r}")


def _write_json(path: Path, payload: dict):
    payload = dict(payload)
    payload["schema"] = payload.get("schema", SCHEMA_VERSION)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=float)
        handle.write("\n")


def _worker_count() -> int:
    raw = os.environ.get("CURVELAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# flow subcommand


def cmd_flow(cfg: dict, out_dir: Path, seed: int, force: bool) -> int:
    kind = _require(cfg, "kind")
    n = _require(cfg, "n")
    grid = build_grid(_require(cfg, "grid"))
    if grid.n != n:
        raise ConfigError("n", f"n = {n} disagrees with grid.n = {grid.n}")
    if kind == "support" and not 1 <= cfg.get("k", 1) <= n:
        raise ConfigError("k", f"support flow needs 1 <= k <= n, got k = {cfg.get('k')}")
    rng = np.random.default_rng(seed)
    initial = build_initial(_require(cfg, "initial"), grid, rng, kind)
    profile = build_profile(cfg.get("profile"))
    run_cfg = cfg.get("run", {})
    try:
        flow_config = FlowConfig(
            kind=kind,
            k=cfg.get("k", 1),
            t_end=_require(run_cfg, "t_end", "run"),
            cfl=run_cfg.get("cfl", 0.2),
            grad_tol=run_cfg.get("grad_tol", 1e-5),
            hatf_tol=run_cfg.get("hatf_tol", 5e-4),
            osc_tol=run_cfg.get("osc_tol", 1e-4),
            output_interval=run_cfg.get("output_interval"),
            dt_fixed=run_cfg.get("dt_fixed"),
            force=force,
        )
    except ValueError as exc:
        raise ConfigError("run", str(exc))

    status = 1
    summary = {
        "command": "flow",
        "config_hash": config_hash(cfg),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    try:
        trace = run_flow(initial, profile, flow_config)
    except StepCollapse as exc:
        trace = exc.trace
        summary["error"] = str(exc)
    except CurveLabError as exc:
        _write_json(out_dir / "summary.json", {**summary, "status": "error", "error": str(exc)})
        print(f"flow failed: {exc}", file=sys.stderr)
        return 1
    else:
        status = 0 if trace.status == "Converged" else 2

    trace.write_csv(out_dir / "trace.csv")
    summary.update(trace.summary())
    try:
        fit = estimate_decay_rate(trace)
        summary["gamma"] = fit.gamma
        summary["gamma_r_squared"] = fit.r_squared
    except CurveLabError:
        summary["gamma"] = None
    summary.pop("final_state", None)
    _write_json(out_dir / "summary.json", summary)
    print(f"{trace.status}: t_final = {trace.t_final:.4f}, "
          f"{len(trace.breaches)} breach events, artifacts in {out_dir}")
    return status


# ---------------------------------------------------------------------------
# verify subcommand (deficit fuzz suite)

VERIFY_COLUMNS = [
    "sample_id", "n", "k", "sphericity", "f_variation",
    "lhs", "rhs", "deficit", "mode", "status",
]


def _verify_sample(args):
    index, cfg, grid, seed, k, calibration = args
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    row = {"sample_id": index, "n": grid.n, "k": k, "mode": calibration, "status": "ok"}
    try:
        parametrization = cfg.get("parametrization", "radial")
        amp_max = cfg.get("amplitude", 0.3)
        amp = amp_max * float(rng.uniform(0.05, 1.0)) ** 2
        if parametrization == "radial":
            field = random_starshaped(grid, rng, amp=amp)
            geom = radial_geometry(field)
        else:
            field = random_convex_support(grid, rng, amp=amp)
            geom = support_geometry(field)
        row["sphericity"] = sphericity(geom)
        profile = build_profile(cfg.get("profile")) if cfg.get("profile") else None
        if profile is not None:
            f = profile.f(field.values)
            grad_f = tuple(profile.df(field.values) * g for g in geom.grad)
            row["f_variation"] = float((f.max() - f.min()) / f.mean())
        else:
            grad_f = None
            row["f_variation"] = 0.0
        if k == 1 and cfg.get("functional", "H") == "H":
            f_arg = f if profile is not None else 1.0
            rep = michael_simon_deficit_H(geom, f_arg, grad_f)
        else:
            quermass = quermassintegrals(geom)
            radius = ball_quermass_inverse(k - 1, quermass[k - 1], grid.n)
            f_arg = f if profile is not None else radius ** (-(grid.n - k))
            f_of_r = (lambda r: profile.f(r)) if profile is not None else None
            rep = michael_simon_deficit_k(geom, f_arg, grad_f, k=k,
                                          calibration=calibration,
                                          quermass=quermass, f_of_R=f_of_r)
        row.update(lhs=rep.lhs, rhs=rep.rhs, deficit=rep.deficit,
                   rel_deficit=rep.rel_deficit)
    except CurveLabError as exc:
        row["status"] = f"error:{type(exc).__name__}"
        row.update(sphericity=row.get("sphericity", float("nan")),
                   f_variation=row.get("f_variation", float("nan")),
                   lhs=float("nan"), rhs=float("nan"), deficit=float("nan"),
                   rel_deficit=float("nan"))
    return row


def cmd_verify(cfg: dict, out_dir: Path, seed: int) -> int:
    samples = _require(cfg, "samples")
    if samples < 1:
        raise ConfigError("samples", "need at least one sample")
    k = cfg.get("k", 1)
    grid = build_grid(_require(cfg, "grid"))
    calibration = cfg.get("calibration", "sphere-calibrated")
    jobs = [(i, cfg, grid, seed, k, calibration) for i in range(samples)]
    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_verify_sample, jobs))
    else:
        rows = [_verify_sample(job) for job in jobs]

    with open(out_dir / "verify.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(VERIFY_COLUMNS)
        for row in rows:
            writer.writerow([
                row["sample_id"], row["n"], row["k"],
                repr(float(row["sphericity"])), repr(float(row["f_variation"])),
                repr(float(row["lhs"])), repr(float(row["rhs"])),
                repr(float(row["deficit"])), row["mode"], row["status"],
            ])
    good = [r for r in rows if r["status"] == "ok"]
    summary = {
        "command": "verify",
        "config_hash": config_hash(cfg),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "samples": samples,
        "evaluated": len(good),
        "flagged": len(rows) - len(good),
        "min_rel_deficit": min((r["rel_deficit"] for r in good), default=None),
    }
    _write_json(out_dir / "summary.json", summary)
    print(f"verify: {len(good)}/{samples} samples evaluated, "
          f"min relative deficit {summary['min_rel_deficit']}, artifacts in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# identities subcommand


def cmd_identities(cfg: dict, out_dir: Path, seed: int) -> int:
    report = {
        "command": "identities",
        "config_hash": config_hash(cfg),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    for name in ("AC-2", "AC-3", "AC-4"):
        result = acceptance.CRITERIA[name]()
        key = {"AC-2": "trace_identities", "AC-3": "newton_maclaurin", "AC-4": "minkowski"}[name]
        report[key] = result.to_dict()
    report["all_passed"] = all(report[k]["passed"] for k in
                               ("trace_identities", "newton_maclaurin", "minkowski"))
    _write_json(out_dir / "identities.json", report)
    print(f"identities: {'all passed' if report['all_passed'] else 'FAILURES'}, "
          f"artifacts in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# report subcommand


def cmd_report(cfg: dict, out_dir: Path, seed: int) -> int:
    names = cfg.get("criteria")
    results = acceptance.run_battery(names)
    payload = {
        "command": "report",
        "config_hash": config_hash(cfg),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "criteria": [r.to_dict() for r in results],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    }
    _write_json(out_dir / "report.json", payload)
    return 0 if payload["passed"] == payload["total"] else 1


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvelab",
        description="curvature-flow laboratory: flows, deficit fuzzing, identity batteries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("flow", "verify", "identities", "report"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=(name != "report"), help="JSON config path")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
        cmd.add_argument("--force", action="store_true",
                         help="run flows despite profile admissibility failures")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else {}
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if args.command == "flow":
            return cmd_flow(cfg, out_dir, seed, args.force)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, seed)
        if args.command == "identities":
            return cmd_identities(cfg, out_dir, seed)
        return cmd_report(cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"configuration error [{exc.field}]: {exc}", file=sys.stderr)
        return 64
    except CurveLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
