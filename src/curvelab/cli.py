"""Experiment runner: flow runs, deficit fuzz suites, acceptance reports.

Subcommands
-----------
flow    integrate one flow from a JSON config; writes trace.csv + summary.json
verify  seeded deficit fuzz suite; writes verify.csv + summary.json
report  run the acceptance battery, or the config's list of criteria (the
        identity half, AC-2..AC-4, is configs/identities.json), and print its
        table; writes report.json

Shared flags: --config PATH (JSON), --out DIR, --seed U64 (overrides the config
seed); flow alone takes --force (run despite profile admissibility failures).
Exit codes: 0 success/Converged, 2 TimeExhausted, 1 runtime failure or a failed
or raising criterion, 64 a usage error or bad configuration (an unknown key in a
flow's run block included).  CSV artifacts are RFC 4180 with '.' decimals at full
round-trip precision; every JSON artifact embeds the config hash and seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import acceptance
from ._artifacts import overwrite, write_csv
from .errors import ConfigError, CurveLabError, StepCollapse
from .flows import FlowConfig, SpeedProfile, estimate_decay_rate, run_flow
from .functionals import (
    CALIBRATIONS,
    michael_simon_deficit_H,
    michael_simon_deficit_k,
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(cfg: dict, field: str, path: str = "", integer: bool = False):
    here = f"{path}.{field}" if path else field
    if field not in cfg:
        raise ConfigError(here, f"missing required field {here!r}")
    if integer and not _is_int(cfg[field]):
        raise ConfigError(here, f"{here!r} must be an integer, got {cfg[field]!r}")
    return cfg[field]


def _block(cfg: dict, field: str, required: bool = True) -> dict | None:
    """The block cfg[field], which must be a JSON object; an optional block may be absent or null (None)."""
    value = _require(cfg, field) if required else cfg.get(field)
    if not (isinstance(value, dict) or value is None and not required):
        raise ConfigError(field, f"{field} must be a JSON object, got {type(value).__name__}")
    return value


def _one_of(cfg: dict, field: str, default: str, allowed: tuple) -> str:
    value = cfg.get(field, default)
    if value not in allowed:
        raise ConfigError(field, f"unknown {field} {value!r}; expected one of {allowed}")
    return value


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except OSError as exc:  # a missing file, a directory, no permission
        raise ConfigError("config", f"cannot read config file {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"config is not valid UTF-8 JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"config must be a JSON object, got {type(cfg).__name__}")
    return cfg


def build_grid(cfg: dict) -> SphericalGrid:
    mode = _require(cfg, "mode", "grid")
    if mode == "axisym":
        n, n_phi = _require(cfg, "n", "grid", integer=True), None
    elif mode == "full-s2":
        n, n_phi = 2, _require(cfg, "n_phi", "grid", integer=True)
    else:
        raise ConfigError("grid.mode", f"unknown grid mode {mode!r}")
    n_theta = _require(cfg, "n_theta", "grid", integer=True)
    try:
        return SphericalGrid(mode, n, n_theta, n_phi)
    except (ValueError, OverflowError) as exc:  # sizes the grid cannot take, a dimension too large
        raise ConfigError("grid", str(exc))


def build_profile(cfg: dict | None) -> SpeedProfile | None:
    if cfg is None:
        return None
    kind = _require(cfg, "kind", "profile")

    def number(field, default=None):  # a JSON bool, alone or in a list, is no number: float(true) is 1.0
        value = _require(cfg, field, "profile") if default is None else cfg.get(field, default)
        if isinstance(value, bool) or isinstance(value, list) and any(isinstance(v, bool) for v in value):
            raise ConfigError(f"profile.{field}", f"profile.{field} must be a number, got {value!r}")
        return value

    try:
        domain = tuple(number("domain", ()))
        domain_arg = {"domain": domain} if domain else {}  # else the profile's own default
        if kind == "constant":
            return SpeedProfile.constant(number("value"), **domain_arg)
        if kind == "power-exp-pinned":
            return SpeedProfile.power_exp_pinned(number("n"), number("r_star", 1.0), **domain_arg)
        if kind == "power":
            return SpeedProfile.power(number("exponent"), **domain_arg)
        if kind == "affine-power":
            return SpeedProfile.affine_power(number("a"), number("b"), number("n"), number("k"), **domain_arg)
        if kind == "tabulated":
            return SpeedProfile.tabulated(number("x"), number("f"), **domain_arg)
    except (TypeError, ValueError, IndexError) as exc:  # values the profile cannot take
        raise ConfigError("profile", str(exc))
    raise ConfigError("profile.kind", f"unknown profile kind {kind!r}")


def build_initial(cfg: dict, grid: SphericalGrid, rng: np.random.Generator,
                  parametrization: str) -> ScalarField:
    shape = _require(cfg, "shape", "initial")
    radial = parametrization == "radial"
    try:
        if shape in ("harmonic", "random"):
            amp = _require(cfg, "amplitude", "initial")
            if not 0 < amp <= 0.45:
                raise ConfigError("initial.amplitude", f"{shape} amplitude must lie in (0, 0.45]")
        if shape == "sphere":
            maker = sphere_radial if radial else sphere_support
            return maker(grid, cfg.get("radius", 1.0), cfg.get("center"))
        if shape == "spheroid":
            c_axis = _require(cfg, "c_axis", "initial")
            b_eq = _require(cfg, "b_equator", "initial")
            return (spheroid_radial if radial else spheroid_support)(grid, c_axis, b_eq)
        if shape == "harmonic":
            ell = _require(cfg, "ell", "initial")
            base = cfg.get("base", 1.0)
            if not base > 0:
                raise ValueError(f"harmonic base must be positive, got {base!r}")
            mode = harmonic_mode(grid, ell, cfg.get("m", 0), cfg.get("phase", "cos"))
            return ScalarField(grid, base * (1.0 + amp * mode))
        if shape == "random":
            maker = random_starshaped if radial else random_convex_support
            return maker(grid, rng, amp=amp, base=cfg.get("base", 1.0),
                         lmax=cfg.get("lmax", 4))
        if shape == "file":
            with open(_require(cfg, "path", "initial")) as handle:
                field = ScalarField.from_dict(json.load(handle))
    except (TypeError, ValueError, OSError) as exc:  # values the shape cannot take, a file it cannot read
        raise ConfigError("initial", str(exc))
    if shape == "file":
        if field.grid != grid:
            raise ConfigError("initial.path", f"the field file's grid {field.grid!r} "
                              f"differs from the config's grid {grid!r}")
        return field
    raise ConfigError("initial.shape", f"unknown initial shape {shape!r}")


def _write_json(path: Path, command: str, cfg: dict, seed: int, payload: dict):
    """Write an artefact: the head every one opens with, the payload, its schema."""
    payload = {"command": command, "config_hash": config_hash(cfg), "seed": seed,
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **payload}
    payload["schema"] = payload.get("schema", SCHEMA_VERSION)
    with overwrite(path) as handle:
        json.dump(payload, handle, indent=2, default=float)
        handle.write("\n")


# ---------------------------------------------------------------------------
# flow subcommand


def cmd_flow(cfg: dict, out_dir: Path, seed: int, force: bool) -> int:
    kind = _require(cfg, "kind")
    n = _require(cfg, "n", integer=True)
    k = cfg.get("k", 1)
    if not (_is_int(k) and 1 <= k <= n):
        raise ConfigError("k", f"{kind} flow needs an integer 1 <= k <= n, got k = {k!r}")
    try:  # the run block is FlowConfig's fields, whole: an unknown key stops here
        flow_config = FlowConfig(kind=kind, k=k, force=force, **(_block(cfg, "run", required=False) or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError("run", str(exc))
    grid = build_grid(_block(cfg, "grid"))
    if grid.n != n:
        raise ConfigError("n", f"n = {n} disagrees with grid.n = {grid.n}")
    initial = build_initial(_block(cfg, "initial"), grid, np.random.default_rng(seed), kind)
    profile = build_profile(_block(cfg, "profile", required=False))

    status = 1
    summary = {}
    try:
        trace = run_flow(initial, profile, flow_config)
    except StepCollapse as exc:
        trace = exc.trace
        summary["error"] = str(exc)
    except CurveLabError as exc:
        _write_json(out_dir / "summary.json", "flow", cfg, seed, {"status": "error", "error": str(exc)})
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
    _write_json(out_dir / "summary.json", "flow", cfg, seed, summary)
    print(f"{trace.status}: t_final = {trace.t_final:.4f}, "
          f"{len(trace.breaches)} breach events, artifacts in {out_dir}")
    return status


# ---------------------------------------------------------------------------
# verify subcommand (deficit fuzz suite)

# the most samples one verify run takes, as FlowConfig caps a flow's steps
_MAX_SAMPLES = 10**6

VERIFY_COLUMNS = [
    "sample_id", "n", "k", "sphericity", "f_variation",
    "lhs", "rhs", "deficit", "mode", "status",
]


def _verify_sample(index, grid, seed, k, calibration, profile, parametrization, functional, amp_max):
    """One row of verify.csv; a sample that raises keeps NaN in the columns it did not reach."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    row = {"sample_id": index, "n": grid.n, "k": k, "mode": calibration, "status": "ok",
           **dict.fromkeys(("sphericity", "f_variation", "lhs", "rhs", "deficit", "rel_deficit"), math.nan)}
    radial = parametrization == "radial"
    try:
        amp = amp_max * float(rng.uniform(0.05, 1.0)) ** 2
        field = (random_starshaped if radial else random_convex_support)(grid, rng, amp=amp)
        geom = (radial_geometry if radial else support_geometry)(field)
        row["sphericity"] = sphericity(geom)
        if profile is not None:  # a density that overflows is inf or NaN, which the deficit rejects
            with np.errstate(over="ignore", invalid="ignore"):
                f = profile.f(field.values)
                grad_f = tuple(profile.df(field.values) * g for g in geom.grad)
        else:  # each deficit's own constant density
            f = grad_f = None
            row["f_variation"] = 0.0
        if functional == "H":
            rep = michael_simon_deficit_H(geom, f, grad_f)
        else:
            rep = michael_simon_deficit_k(geom, f, grad_f, k=k,
                                          calibration=calibration,
                                          f_of_R=profile.f if profile is not None else None)
        if f is not None:  # after the deficit, which rejects a non-finite density
            row["f_variation"] = float((f.max() - f.min()) / f.mean())
        row.update(lhs=rep.lhs, rhs=rep.rhs, deficit=rep.deficit,
                   rel_deficit=rep.rel_deficit)
    except CurveLabError as exc:
        row["status"] = f"error:{type(exc).__name__}"
    return row


def cmd_verify(cfg: dict, out_dir: Path, seed: int) -> int:
    samples = _require(cfg, "samples", integer=True)
    if not 1 <= samples <= _MAX_SAMPLES:
        raise ConfigError("samples", f"samples must lie in 1..{_MAX_SAMPLES}, got {samples}")
    grid = build_grid(_block(cfg, "grid"))
    k = cfg.get("k", 1)
    if not (_is_int(k) and 1 <= k <= grid.n - 1):
        raise ConfigError("k", f"verify needs an integer 1 <= k <= n - 1 = {grid.n - 1}, got {k!r}")
    calibration = _one_of(cfg, "calibration", "sphere-calibrated", CALIBRATIONS)
    parametrization = _one_of(cfg, "parametrization", "radial", ("radial", "support"))
    functional = _one_of(cfg, "functional", "H" if k == 1 else "k", ("H", "k") if k == 1 else ("k",))
    amplitude = cfg.get("amplitude", 0.3)
    if isinstance(amplitude, bool) or not (isinstance(amplitude, (int, float)) and 0 < amplitude < math.inf):
        raise ConfigError("amplitude", f"amplitude must be a positive finite number, got {amplitude!r}")
    profile = build_profile(_block(cfg, "profile", required=False))
    rows = [_verify_sample(i, grid, seed, k, calibration, profile, parametrization, functional, amplitude)
            for i in range(samples)]

    write_csv(out_dir / "verify.csv", VERIFY_COLUMNS, (
        [row[c] if c in ("sample_id", "n", "k", "mode", "status") else float(row[c]) for c in VERIFY_COLUMNS]
        for row in rows))
    good = [r for r in rows if r["status"] == "ok"]
    summary = {
        "samples": samples,
        "evaluated": len(good),
        "flagged": len(rows) - len(good),
        "min_rel_deficit": min((r["rel_deficit"] for r in good), default=None),
    }
    _write_json(out_dir / "summary.json", "verify", cfg, seed, summary)
    print(f"verify: {len(good)}/{samples} samples evaluated, "
          f"min relative deficit {summary['min_rel_deficit']}, artifacts in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# report subcommand


def cmd_report(cfg: dict, out_dir: Path, seed: int) -> int:
    names = cfg.get("criteria", [])
    known = list(acceptance.CRITERIA)  # a list compares names, never hashes them
    if not (isinstance(names, list) and all(name in known for name in names)):
        raise ConfigError("criteria", f"criteria must be a list of names from {known}, got {names!r}")
    results = acceptance.run_battery(names)
    payload = {
        "criteria": [r.to_dict() for r in results],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    }
    _write_json(out_dir / "report.json", "report", cfg, seed, payload)
    return 0 if payload["passed"] == payload["total"] else 1


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: its subparsers form reference cycles."""
    parser = argparse.ArgumentParser(
        prog="curvelab",
        description="curvature-flow laboratory: flows, deficit fuzzing, acceptance reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("flow", "verify", "report"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=(name != "report"), help="JSON config path")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
        if name == "flow":
            cmd.add_argument("--force", action="store_true",
                             help="run the flow despite profile admissibility failures")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which is TimeExhausted here
        return 64 if exc.code == 2 else exc.code

    try:
        cfg = load_config(args.config) if args.config else {}
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at the path or on it, no permission
            raise ConfigError("out", f"cannot make output directory {out_dir}: {exc.strerror}")
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if not (_is_int(seed) and seed >= 0):
            raise ConfigError("seed", f"seed must be a nonnegative integer, got {seed!r}")
        if args.command == "flow":
            return cmd_flow(cfg, out_dir, seed, args.force)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, seed)
        return cmd_report(cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"configuration error [{exc.field}]: {exc}", file=sys.stderr)
        return 64
    except CurveLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
