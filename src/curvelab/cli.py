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
or raising criterion, 64 a usage error or bad configuration.  Every config
block, the top level and initial included, is the keywords of the function that
reads it (run: FlowConfig, grid: SphericalGrid, profile: the kind's SpeedProfile
constructor), so an unknown or missing key exits 64 too.  CSV artifacts are RFC
4180 with '.' decimals at full round-trip precision; every JSON artifact embeds
the config hash and seed.
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

from ._artifacts import overwrite, write_csv
from .errors import ConfigError, CurveLabError, StepCollapse
from .flows import FlowConfig, estimate_decay_rate, run_flow
from .functionals import michael_simon_deficit_H, michael_simon_deficit_k
from .geometry import radial_geometry, sphericity, support_geometry
from .profiles import SpeedProfile
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
# configuration plumbing: each block is the keywords of a function that only reads it


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _keywords(where: str, fn, block, *args, **fixed):
    """fn(*args, **fixed, **block), where a key fn does not take, a key it lacks, a value it cannot
    take and a block that is no JSON object are each a ConfigError at ``where``."""
    if not isinstance(block, dict):
        raise ConfigError(where, f"{where} must be a JSON object, got {type(block).__name__}")
    try:
        return fn(*args, **fixed, **block)
    except (TypeError, ValueError, IndexError, OverflowError, OSError) as exc:
        raise ConfigError(where, str(exc))


def _tagged(where: str, tag: str, readers: dict, block, *args):
    """The reader that the block's tag names, called with the rest of the block as its keywords."""
    names = list(readers)  # a list compares the tag, never hashes it
    if not (isinstance(block, dict) and block.get(tag) in names):
        raise ConfigError(where, f"{where} must be a JSON object whose {tag} is one of {names}, got {block!r}")
    return _keywords(where, readers[block[tag]], {key: v for key, v in block.items() if key != tag}, *args)


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


def build_grid(cfg) -> SphericalGrid:
    """The grid block is SphericalGrid's keywords, whole; a full-s2 block may leave out its n = 2."""
    full_s2 = isinstance(cfg, dict) and cfg.get("mode") == "full-s2"
    return _keywords("grid", SphericalGrid, {"n": 2, **cfg} if full_s2 else cfg)


# each profile kind's SpeedProfile constructor, whose keywords the rest of its block holds
_PROFILES = {"constant": SpeedProfile.constant, "power-exp-pinned": SpeedProfile.power_exp_pinned,
             "power": SpeedProfile.power, "affine-power": SpeedProfile.affine_power,
             "tabulated": SpeedProfile.tabulated}


def build_profile(cfg) -> SpeedProfile | None:
    """The profile block's kind names its SpeedProfile constructor; a null block is no profile."""
    if cfg is None:
        return None
    for key, value in (cfg.items() if isinstance(cfg, dict) else ()):  # float(true) is 1.0
        if isinstance(value, bool) or isinstance(value, list) and any(isinstance(v, bool) for v in value):
            raise ConfigError(f"profile.{key}", f"profile.{key} holds a JSON bool, which is no number")
    return _tagged("profile", "kind", _PROFILES, cfg)


def _sphere(grid, rng, radial, radius=1.0, center=None):
    return (sphere_radial if radial else sphere_support)(grid, radius, center)


def _spheroid(grid, rng, radial, c_axis, b_equator):
    return (spheroid_radial if radial else spheroid_support)(grid, c_axis, b_equator)


def _harmonic(grid, rng, radial, ell, amplitude, m=0, phase="cos", base=1.0):
    if not (0 < amplitude <= 0.45 and base > 0):
        raise ValueError(f"harmonic needs 0 < amplitude <= 0.45 and base > 0, got {amplitude!r} and {base!r}")
    return ScalarField(grid, base * (1.0 + amplitude * harmonic_mode(grid, ell, m, phase)))


def _random(grid, rng, radial, amplitude, base=1.0, lmax=4):
    if not 0 < amplitude <= 0.45:
        raise ValueError(f"random amplitude must lie in (0, 0.45], got {amplitude!r}")
    maker = random_starshaped if radial else random_convex_support
    return maker(grid, rng, amp=amplitude, base=base, lmax=lmax)


def _file(grid, rng, radial, path):
    if not isinstance(path, str):  # open(3) would read file descriptor 3, then close it
        raise TypeError(f"path must be a string, got {path!r}")
    with open(path) as handle:
        field = ScalarField.from_dict(json.load(handle))
    if field.grid != grid:
        raise ConfigError("initial.path", f"the field file's grid {field.grid!r} "
                          f"differs from the config's grid {grid!r}")
    return field


# each initial shape's reader: the grid, the rng and whether the flow is radial come first,
# and the rest of the initial block holds its keywords
_SHAPES = {"sphere": _sphere, "spheroid": _spheroid, "harmonic": _harmonic, "random": _random, "file": _file}


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


def _flow_inputs(force, seed, kind, n, grid, initial, run, k=1, profile=None):
    """A flow config's top level, as keywords: the start, the speed profile and the run settings."""
    kinds = ["radial", "support"]  # a list compares the kind, never hashes it
    if kind not in kinds:
        raise ConfigError("kind", f"unknown flow kind {kind!r}; expected one of {kinds}")
    if not _is_int(n):
        raise ConfigError("n", f"'n' must be an integer, got {n!r}")
    if not (_is_int(k) and 1 <= k <= n):
        raise ConfigError("k", f"{kind} flow needs an integer 1 <= k <= n, got k = {k!r}")
    flow_config = _keywords("run", FlowConfig, run, kind=kind, k=k, force=force)
    grid = build_grid(grid)
    if grid.n != n:
        raise ConfigError("n", f"n = {n} disagrees with grid.n = {grid.n}")
    initial = _tagged("initial", "shape", _SHAPES, initial, grid, np.random.default_rng(seed), kind == "radial")
    return initial, build_profile(profile), flow_config


def cmd_flow(cfg: dict, out_dir: Path, seed: int, force: bool) -> int:
    initial, profile, flow_config = _keywords("config", _flow_inputs, dict(cfg, seed=seed), force=force)
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
    "lhs", "rhs", "deficit", "status",
]


def _verify_sample(index, grid, seed, k, profile, parametrization, functional, amp_max):
    """One row of verify.csv; a sample that raises keeps NaN in the columns it did not reach."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    row = {"sample_id": index, "n": grid.n, "k": k, "status": "ok",
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
            rep = michael_simon_deficit_k(geom, f, grad_f, k=k, f_of_R=profile.f if profile is not None else None)
        if f is not None:  # after the deficit, which rejects a non-finite density
            row["f_variation"] = float((f.max() - f.min()) / f.mean())
        row.update(lhs=rep.lhs, rhs=rep.rhs, deficit=rep.deficit,
                   rel_deficit=rep.rel_deficit)
    except CurveLabError as exc:
        row["status"] = f"error:{type(exc).__name__}"
    return row


def _verify_inputs(seed, samples, grid, k=1, parametrization="radial", functional=None, amplitude=0.3,
                   profile=None):
    """A verify config's top level, as keywords: the sample count and what every sample shares."""
    if not (_is_int(samples) and 1 <= samples <= _MAX_SAMPLES):
        raise ConfigError("samples", f"samples must be an integer in 1..{_MAX_SAMPLES}, got {samples!r}")
    grid = build_grid(grid)
    if not (_is_int(k) and 1 <= k <= grid.n - 1):
        raise ConfigError("k", f"verify needs an integer 1 <= k <= n - 1 = {grid.n - 1}, got {k!r}")
    functional = ("H" if k == 1 else "k") if functional is None else functional
    for field, value, allowed in (("parametrization", parametrization, ("radial", "support")),
                                  ("functional", functional, ("H", "k") if k == 1 else ("k",))):
        if value not in allowed:
            raise ConfigError(field, f"unknown {field} {value!r}; expected one of {allowed}")
    if isinstance(amplitude, bool) or not (isinstance(amplitude, (int, float)) and 0 < amplitude < math.inf):
        raise ConfigError("amplitude", f"amplitude must be a positive finite number, got {amplitude!r}")
    return samples, (grid, seed, k, build_profile(profile), parametrization, functional, amplitude)


def cmd_verify(cfg: dict, out_dir: Path, seed: int) -> int:
    samples, shared = _keywords("config", _verify_inputs, dict(cfg, seed=seed))
    rows = [_verify_sample(i, *shared) for i in range(samples)]

    write_csv(out_dir / "verify.csv", VERIFY_COLUMNS, (
        [row[c] if c in ("sample_id", "n", "k", "status") else float(row[c]) for c in VERIFY_COLUMNS]
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
# report subcommand: only it loads the battery, so flow and verify never compile it


def _report_inputs(seed, criteria=()):
    """A report config's top level, as keywords: the criteria to run, every one when it names none."""
    from . import acceptance

    known = list(acceptance.CRITERIA)  # a list compares names, never hashes them
    if not (isinstance(criteria, (list, tuple)) and all(name in known for name in criteria)):
        raise ConfigError("criteria", f"criteria must be a list of names from {known}, got {criteria!r}")
    return criteria


def cmd_report(cfg: dict, out_dir: Path, seed: int) -> int:
    from . import acceptance

    results = acceptance.run_battery(_keywords("config", _report_inputs, dict(cfg, seed=seed)))
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


@functools.cache
def _keep_freed_heap() -> None:
    """Fix glibc's allocator limits once a process, so that each verify sample reuses the heap
    its predecessor freed.

    glibc serves an array of 128 KiB or more by mmap and hands a free heap top above 128 KiB
    back to the kernel, raising both limits only after it frees a large mmap chunk: whether a
    sample faulted its arrays in again depended on what the process had allocated before.
    Setting either limit turns that adjustment off.  Where the C library has no mallopt this
    does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to open by None, or no mallopt in it
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's 64-bit maximum


def main(argv=None) -> int:
    _keep_freed_heap()
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
