"""End-to-end CLI runs: exit codes, artifacts, reproducibility."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import curvelab
from curvelab import SpeedProfile, SphericalGrid, acceptance, michael_simon_deficit_k, support_geometry
from curvelab.cli import main
from curvelab.shapes import random_convex_support
from test_flows import polyfit_decay


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


RADIAL_CFG = {
    "kind": "radial",
    "n": 2,
    "grid": {"mode": "axisym", "n": 2, "n_theta": 64},
    "initial": {"shape": "harmonic", "ell": 2, "amplitude": 0.15},
    "profile": {"kind": "power-exp-pinned", "n": 2, "r_star": 1.0},
    "run": {"t_end": 6.0, "cfl": 0.45, "output_interval": 0.05},
    "seed": 3,
}


def test_flow_converged_run(tmp_path, capsys):
    cfg = write_config(tmp_path, "flow.json", RADIAL_CFG)
    out = tmp_path / "run"
    code = main(["flow", "--config", cfg, "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "Converged"
    assert summary["config_hash"]
    assert summary["seed"] == 3
    assert summary["gamma"] > 0
    assert summary["mono_rise"] >= 0.0
    assert "cfl" not in summary["config"]  # no step is sized by it
    with open(out / "trace.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:3] == ["t", "dt", "Q"]
    assert len(rows) > 10
    # Q column nonincreasing within tolerance
    q = np.array([float(r[2]) for r in rows[1:]])
    assert np.all(np.diff(q) <= 1e-8 * np.abs(q[:-1]))


def test_flow_time_exhausted_exit_code(tmp_path):
    cfg = dict(RADIAL_CFG, run={"t_end": 0.01, "cfl": 0.45})
    path = write_config(tmp_path, "flow.json", cfg)
    code = main(["flow", "--config", path, "--out", str(tmp_path / "run")])
    assert code == 2


def test_flow_step_collapse_summary_carries_the_rise(tmp_path):
    # a fixed step well past ~1 at r* takes r below 0
    cfg = dict(RADIAL_CFG, run={"t_end": 5.0, "dt_fixed": 3.0, "output_interval": 0.5})
    path = write_config(tmp_path, "flow.json", cfg)
    code = main(["flow", "--config", path, "--out", str(tmp_path / "run")])
    assert code == 1
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["status"] == "error:StepCollapse"
    assert summary["mono_rise"] >= 0.0


def test_flow_missing_field_exit_64(tmp_path, capsys):
    bad = {k: v for k, v in RADIAL_CFG.items() if k != "n"}
    path = write_config(tmp_path, "flow.json", bad)
    code = main(["flow", "--config", path, "--out", str(tmp_path / "run")])
    assert code == 64
    err = capsys.readouterr().err
    assert "n" in err and "missing" in err


def test_flow_zero_fixed_step_exit_64(tmp_path, capsys):
    cfg = dict(RADIAL_CFG, run={"t_end": 0.1, "dt_fixed": 0})
    path = write_config(tmp_path, "flow.json", cfg)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "run")]) == 64
    assert "dt_fixed" in capsys.readouterr().err


def test_flow_unknown_run_key_exit_64_before_the_grid_is_built(tmp_path, capsys):
    # the run block goes to FlowConfig whole, so a misspelt key stops the
    # run where it used to run on the default it meant to set
    cfg = dict(RADIAL_CFG, grid={"mode": "bogus"}, run={"t_end": 0.05, "grad_tl": 1e-2})
    path = write_config(tmp_path, "flow.json", cfg)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "run")]) == 64
    err = capsys.readouterr().err
    assert "configuration error [run]" in err and "grad_tl" in err


def test_flow_inadmissible_profile_needs_force(tmp_path):
    cfg = dict(RADIAL_CFG, profile={"kind": "constant", "value": 1.0, "domain": [0.5, 1.8]},
               run={"t_end": 0.05, "cfl": 0.4})
    path = write_config(tmp_path, "flow.json", cfg)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "a")]) == 1
    assert main(["flow", "--config", path, "--out", str(tmp_path / "b"), "--force"]) == 2


@pytest.mark.parametrize("profile", [
    {"kind": "constant", "value": float("nan")},
    {"kind": "constant", "value": float("inf")},
    {"kind": "affine-power", "a": float("nan"), "b": 0.5, "n": 2, "k": 1},
], ids=["constant-nan", "constant-infinity", "affine-power-a-nan"])
def test_flow_with_a_non_finite_profile_exit_1(tmp_path, capsys, profile):
    # run, such a profile gives NaN or inf Q and M_k columns and no breach
    cfg = dict(RADIAL_CFG, kind="support", profile=profile, run={"t_end": 0.2})
    path = write_config(tmp_path, "flow.json", cfg)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "run")]) == 1
    assert "positive and finite" in capsys.readouterr().err
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["status"] == "error"
    assert not (tmp_path / "run" / "trace.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key, value", [(key, value) for key in ("n", "r_star") for value in (1e300, 10**30, 2**63)
                                        if (key, value) != ("n", 1e300)])
def test_a_pinned_profile_that_overflows_is_an_error_not_a_warning(tmp_path, capsys, key, value):
    # sampled, f overflowed in x ** (1 - n) or exp((x - r*)^2 / 2) and raised numpy's
    # RuntimeWarning; read as inf it fails the flow's positive-and-finite check, and
    # each verify row's density check
    profile = dict(RADIAL_CFG["profile"], **{key: value})
    flow = write_config(tmp_path, "flow.json", dict(RADIAL_CFG, profile=profile, run={"t_end": 0.2}))
    assert main(["flow", "--config", flow, "--out", str(tmp_path / "run")]) == 1
    assert "positive and finite" in capsys.readouterr().err
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["status"] == "error"
    verify = write_config(tmp_path, "verify.json", dict(VERIFY_AXISYM_CFG, profile=profile))
    assert main(["verify", "--config", verify, "--out", str(tmp_path / "v")]) == 0
    with open(tmp_path / "v/verify.csv") as handle:
        assert [row["status"] for row in csv.DictReader(handle)] == ["error:NonpositiveDensity"] * 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["radial", "support"])
def test_force_does_not_run_a_profile_that_is_not_positive_and_finite(tmp_path, capsys, kind):
    # --force downgrades admissibility failures only; with a pinned n of 10**30 the forced
    # radial run raised numpy's overflow warning in the kernel's f(r), and the forced
    # support run reported Converged on a profile its validator had rejected
    cfg = dict(RADIAL_CFG, kind=kind, profile=dict(RADIAL_CFG["profile"], n=10**30), run={"t_end": 0.2})
    path = write_config(tmp_path, "flow.json", cfg)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "run"), "--force"]) == 1
    assert "positive and finite" in capsys.readouterr().err
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["status"] == "error"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, force", [("support", []), ("radial", ["--force"])], ids=["support", "radial-forced"])
def test_a_profile_whose_integrated_power_overflows_is_refused(tmp_path, capsys, kind, force):
    # constant 1e300 is finite, and admissible for the support flow, but Q integrates
    # f^(n/(n-1)) = f^2, which overflows: both runs raised numpy's overflow warning there
    cfg = dict(RADIAL_CFG, kind=kind, profile={"kind": "constant", "value": 1e300}, run={"t_end": 0.2})
    path = write_config(tmp_path, "flow.json", cfg)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "run"), *force]) == 1
    assert "positive and finite" in capsys.readouterr().err
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["status"] == "error"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, k, force", [("support", 1, []), ("support", 2, []), ("radial", 1, ["--force"])],
                         ids=["support-k1", "support-k2", "radial-forced"])
def test_a_start_whose_integral_sum_overflows_is_refused(tmp_path, capsys, kind, k, force):
    # constant 1e154 passes the domain check, as f^2 = 1e308 is finite, but Q = sum w f^2 over
    # the unit sphere is not: the run went on with Q = inf in row 0, or raised numpy's warning
    cfg = {"kind": kind, "n": 2, "k": k, "grid": {"mode": "full-s2", "n_theta": 12, "n_phi": 24},
           "initial": {"shape": "sphere"}, "profile": {"kind": "constant", "value": 1e154}, "run": {"t_end": 0.2}}
    path = write_config(tmp_path, "flow.json", cfg)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "run"), *force]) == 1
    assert "sum overflows" in capsys.readouterr().err
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["status"] == "error"
    assert not (tmp_path / "run" / "trace.csv").exists()


def test_flow_from_a_field_file_on_the_config_grid(tmp_path):
    # the unit sphere of the file and the config's own unit sphere give the same trace
    base = dict(RADIAL_CFG, grid={"mode": "axisym", "n": 2, "n_theta": 16}, run={"t_end": 0.5},
                profile={"kind": "power-exp-pinned", "n": 2, "r_star": 0.8})
    for name, initial in (("file", {"shape": "file", "path": str(FIELD_AXISYM_16_SPHERE)}),
                          ("sphere", {"shape": "sphere", "radius": 1.0})):
        path = write_config(tmp_path, f"{name}.json", dict(base, initial=initial))
        assert main(["flow", "--config", path, "--out", str(tmp_path / name)]) == 2
    trace = (tmp_path / "file" / "trace.csv").read_bytes()
    assert trace == (tmp_path / "sphere" / "trace.csv").read_bytes() and trace.count(b"\n") > 2


def test_flow_reproducible_csv(tmp_path):
    cfg = dict(RADIAL_CFG, initial={"shape": "random", "amplitude": 0.2},
               run={"t_end": 0.2, "cfl": 0.45, "output_interval": 0.02})
    path = write_config(tmp_path, "flow.json", cfg)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "r1")]) in (0, 2)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "r2")]) in (0, 2)
    assert (tmp_path / "r1/trace.csv").read_bytes() == (tmp_path / "r2/trace.csv").read_bytes()
    # a different seed changes the initial surface and hence the trace
    assert main(["flow", "--config", path, "--out", str(tmp_path / "r3"), "--seed", "99"]) in (0, 2)
    assert (tmp_path / "r1/trace.csv").read_bytes() != (tmp_path / "r3/trace.csv").read_bytes()


VERIFY_CFG = {
    "samples": 3, "k": 1, "functional": "H", "parametrization": "radial",
    "amplitude": 0.3, "grid": {"mode": "full-s2", "n": 2, "n_theta": 24, "n_phi": 48},
    "seed": 5,
}


@pytest.mark.parametrize("command, cfg, artefact", [
    ("flow", dict(RADIAL_CFG, run={"t_end": 0.2, "cfl": 0.45, "output_interval": 0.02}), "trace.csv"),
    ("verify", VERIFY_CFG, "verify.csv"),
])
def test_rerun_overwrites_longer_artefacts(tmp_path, command, cfg, artefact):
    path = write_config(tmp_path, "cfg.json", cfg)
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    stale.mkdir()
    for name in (artefact, "summary.json"):
        (stale / name).write_text("0," * 50_000 + "STALE TAIL\n")
    inode = (stale / artefact).stat().st_ino
    for out in (fresh, stale):
        assert main([command, "--config", path, "--out", str(out)]) in (0, 2)
    assert (stale / artefact).read_bytes() == (fresh / artefact).read_bytes()
    assert (stale / artefact).stat().st_ino == inode  # written in place, not replaced

    def undated(summary):
        return [line for line in summary.read_bytes().splitlines(True) if b'"timestamp"' not in line]

    assert undated(stale / "summary.json") == undated(fresh / "summary.json")


def test_verify_suite(tmp_path):
    cfg = {
        "samples": 8,
        "k": 1,
        "functional": "H",
        "parametrization": "radial",
        "amplitude": 0.3,
        "grid": {"mode": "full-s2", "n": 2, "n_theta": 48, "n_phi": 96},
        "seed": 5,
    }
    path = write_config(tmp_path, "verify.json", cfg)
    code = main(["verify", "--config", path, "--out", str(tmp_path / "v")])
    assert code == 0
    with open(tmp_path / "v/verify.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["sample_id", "n", "k", "sphericity", "f_variation",
                       "lhs", "rhs", "deficit", "status"]
    assert len(rows) == 9
    summary = json.loads((tmp_path / "v/summary.json").read_text())
    assert summary["evaluated"] + summary["flagged"] == 8
    assert summary["min_rel_deficit"] is not None


def test_verify_error_isolation(tmp_path):
    # k = 2 over strongly perturbed starshaped bodies: some samples leave the
    # Garding cone; those rows are flagged and the suite continues
    cfg = {
        "samples": 10,
        "k": 2,
        "functional": "k",
        "parametrization": "radial",
        "amplitude": 0.45,
        "grid": {"mode": "axisym", "n": 3, "n_theta": 96},
        "seed": 11,
    }
    path = write_config(tmp_path, "verify.json", cfg)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == 0
    with open(tmp_path / "v/verify.csv") as handle:
        rows = list(csv.reader(handle))[1:]
    statuses = [r[-1] for r in rows]
    assert len(statuses) == 10
    assert any(s.startswith("error:") for s in statuses)
    assert any(s == "ok" for s in statuses)


@pytest.mark.parametrize("k, functional", [(1, "H"), (2, "k")])
def test_verify_functional_defaults_to_H_at_k_1_and_k_above(tmp_path, k, functional):
    base = dict(VERIFY_AXISYM_CFG, k=k, grid={"mode": "axisym", "n": 3, "n_theta": 32})
    for name, cfg in (("default", base), ("named", dict(base, functional=functional))):
        path = write_config(tmp_path, f"{name}.json", cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "default/verify.csv").read_bytes() == (tmp_path / "named/verify.csv").read_bytes()


@pytest.mark.parametrize("profile_cfg, profile", [
    ({"kind": "power", "exponent": 0.5}, SpeedProfile.power(0.5)),
    ({"kind": "affine-power", "a": 1.0, "b": 0.5, "n": 3, "k": 2}, SpeedProfile.affine_power(1.0, 0.5, 3, 2)),
], ids=["power", "affine-power"])
def test_verify_support_bodies_under_a_profile_at_k2(tmp_path, profile_cfg, profile):
    # the k-deficit of convex bodies under a non-constant density f(h), normalised at the
    # comparison radius R by its value there, which the suite takes from the profile;
    # unnormalised, the rows' minima read -5.8e-3 (power) and -0.188 (affine-power)
    cfg = {"samples": 3, "k": 2, "functional": "k", "parametrization": "support", "amplitude": 0.2,
           "grid": {"mode": "axisym", "n": 3, "n_theta": 48}, "profile": profile_cfg, "seed": 4}
    path = write_config(tmp_path, "verify.json", cfg)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == 0
    with open(tmp_path / "v/verify.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert all(float(row["f_variation"]) > 0.0 for row in rows)
    assert all(float(row["deficit"]) >= 0.0 for row in rows)
    # sample 0 drawn and evaluated again through the library
    grid = SphericalGrid.axisym(3, 48)
    rng = np.random.default_rng(np.random.SeedSequence([4, 0]))
    field = random_convex_support(grid, rng, amp=0.2 * float(rng.uniform(0.05, 1.0)) ** 2)
    geom = support_geometry(field)
    grad_f = tuple(profile.df(field.values) * g for g in geom.grad)
    rep = michael_simon_deficit_k(geom, profile.f(field.values), grad_f, k=2, f_of_R=profile.f)
    assert (float(rows[0]["lhs"]), float(rows[0]["rhs"])) == (rep.lhs, rep.rhs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("functional, k, parametrization", [("H", 1, "radial"), ("k", 2, "support")])
def test_verify_with_a_non_finite_profile_flags_every_row(tmp_path, functional, k, parametrization, value):
    # evaluated, a NaN density gives rows of NaN marked ok and a NaN
    # min_rel_deficit; f_variation is taken once the deficit has accepted
    # the density, so an infinite one computes no inf - inf
    cfg = {"samples": 3, "k": k, "functional": functional, "parametrization": parametrization,
           "grid": {"mode": "axisym", "n": 3, "n_theta": 32}, "seed": 4,
           "profile": {"kind": "constant", "value": value}}
    path = write_config(tmp_path, "verify.json", cfg)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == 0
    with open(tmp_path / "v/verify.csv") as handle:
        assert [row["status"] for row in csv.DictReader(handle)] == ["error:NonpositiveDensity"] * 3
    summary = json.loads((tmp_path / "v/summary.json").read_text())
    assert (summary["evaluated"], summary["flagged"], summary["min_rel_deficit"]) == (0, 3, None)


def test_cli_flow_and_verify_load_no_thread_pool(tmp_path):
    # verify runs its samples in one serial loop, whatever the environment
    # holds, so neither concurrent.futures nor the logging it imports loads
    flow = write_config(tmp_path, "flow.json", dict(RADIAL_CFG, run={"t_end": 0.05}))
    verify = write_config(tmp_path, "verify.json", VERIFY_AXISYM_CFG)
    probe = (f"import sys\nimport curvelab.cli\nassert 'concurrent.futures' not in sys.modules\n"
             f"curvelab.cli.main(['flow', '--config', {flow!r}, '--out', {str(tmp_path / 'run')!r}])\n"
             f"curvelab.cli.main(['verify', '--config', {verify!r}, '--out', {str(tmp_path / 'fuzz')!r}])\n"
             "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'logging'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(curvelab.__file__).parent.parent), CURVELAB_THREADS="4")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run/trace.csv").exists() and (tmp_path / "fuzz/verify.csv").exists()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="main sets glibc's mallopt limits; another C library keeps its own heap policy")
def test_a_verify_run_reuses_the_heap_its_predecessor_freed(tmp_path):
    # a 96x192 field is 144 KiB, above glibc's starting mmap threshold: without main's fixed
    # limits every sample faulted its arrays in again, about 5,100 minor faults a run
    cfg = write_config(tmp_path, "verify.json", {"samples": 10, "k": 1, "amplitude": 0.3, "seed": 5,
                                                 "grid": {"mode": "full-s2", "n_theta": 96, "n_phi": 192}})
    probe = ("import contextlib, io, resource\nfrom curvelab.cli import main\n"
             f"argv = ['verify', '--config', {cfg!r}, '--out', {str(tmp_path / 'v')!r}]\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(argv) == main(argv) == 0\n"
             "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
             "    assert main(argv) == 0\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    env = dict(os.environ, PYTHONPATH=str(Path(curvelab.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert int(out.stdout.splitlines()[-1]) < 500


def test_the_allocator_limits_are_skipped_where_the_c_library_has_no_mallopt(monkeypatch):
    import ctypes

    from curvelab import cli

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a C library without mallopt
    assert cli._keep_freed_heap.__wrapped__() is None


def test_repeated_main_calls_leave_no_parser_for_the_cyclic_collector(tmp_path):
    path = write_config(tmp_path, "verify.json", VERIFY_AXISYM_CFG)
    argv = ["verify", "--config", path, "--out", str(tmp_path / "v")]
    assert main(argv) == 0  # warm-up
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        leaked = [type(obj).__name__ for obj in gc.garbage if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def test_the_identity_battery_is_a_report_config(tmp_path):
    # AC-2..AC-4 run as a report over configs/identities.json, in the one report layout
    assert main(["report", "--config", str(CONFIGS / "identities.json"), "--out", str(tmp_path / "i")]) == 0
    payload = json.loads((tmp_path / "i/report.json").read_text())
    assert [c["name"] for c in payload["criteria"]] == [
        "AC-2 trace identities", "AC-3 Newton-MacLaurin", "AC-4 Minkowski identity"]
    assert (payload["passed"], payload["total"], payload["seed"]) == (3, 3, 987654321)
    assert not (tmp_path / "i/identities.json").exists()


def test_report_exit_1_when_a_criterion_fails(tmp_path, monkeypatch):
    gate = acceptance.CheckLine("no negative gaps", -0.5, ">=", -1e-12)
    failing = acceptance.CriterionResult("AC-3 stub", [gate])
    passing = acceptance.CriterionResult("stub", [acceptance.CheckLine("gate", 1, "==", 1)])
    monkeypatch.setitem(acceptance.CRITERIA, "AC-2", lambda: passing)
    monkeypatch.setitem(acceptance.CRITERIA, "AC-3", lambda: failing)
    monkeypatch.setitem(acceptance.CRITERIA, "AC-4", lambda: passing)
    assert main(["report", "--config", str(CONFIGS / "identities.json"), "--out", str(tmp_path / "i")]) == 1
    payload = json.loads((tmp_path / "i/report.json").read_text())
    first, failed, _ = payload["criteria"]
    assert first["passed"] and (payload["passed"], payload["total"]) == (2, 3)
    check = failed["checks"][0]
    assert (check["value"], check["op"], check["bound"], check["passed"]) == (-0.5, ">=", -1e-12, False)


def test_report_subset(tmp_path, capsys):
    path = write_config(tmp_path, "rep.json", {"criteria": ["AC-1", "AC-4", "AC-11"]})
    code = main(["report", "--config", path, "--out", str(tmp_path / "rep")])
    assert code == 0
    out = capsys.readouterr().out
    assert "AC-1" in out and "3/3 criteria passed" in out
    payload = json.loads((tmp_path / "rep/report.json").read_text())
    assert payload["passed"] == payload["total"] == 3
    for criterion in payload["criteria"]:
        for check in criterion["checks"]:
            assert {"label", "value", "op", "bound", "passed", "detail"} <= check.keys()
            assert isinstance(check["value"], (int, float)) and check["passed"]


def raising(exc):
    """A criterion that raises exc."""
    def criterion():
        raise exc
    return criterion


def test_a_raising_criterion_fails_and_the_battery_runs_on(tmp_path, monkeypatch):
    passing = acceptance.CriterionResult("AC-2 stub", [acceptance.CheckLine("gate", 1, "==", 1)])
    monkeypatch.setitem(acceptance.CRITERIA, "AC-1", raising(ValueError("step from t = 1.1 failed")))
    monkeypatch.setitem(acceptance.CRITERIA, "AC-2", lambda: passing)
    path = write_config(tmp_path, "rep.json", {"criteria": ["AC-1", "AC-2"]})
    assert main(["report", "--config", path, "--out", str(tmp_path / "rep")]) == 1
    payload = json.loads((tmp_path / "rep/report.json").read_text())
    raised, after = payload["criteria"]
    assert (raised["name"], raised["passed"], len(raised["checks"])) == ("AC-1", False, 1)
    assert raised["checks"][0]["value"] == "ValueError: step from t = 1.1 failed"
    assert after["passed"] and (payload["passed"], payload["total"]) == (1, 2)
    monkeypatch.setitem(acceptance.CRITERIA, "AC-1", raising(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(["report", "--config", path, "--out", str(tmp_path / "interrupted")])
    assert not (tmp_path / "interrupted/report.json").exists()


def test_a_raising_criterion_between_two_still_writes_the_report(tmp_path, monkeypatch, capsys):
    passing = acceptance.CriterionResult("stub", [acceptance.CheckLine("gate", 1, "==", 1)])
    monkeypatch.setitem(acceptance.CRITERIA, "AC-2", lambda: passing)
    monkeypatch.setitem(acceptance.CRITERIA, "AC-3", raising(ValueError("no gap computed")))
    monkeypatch.setitem(acceptance.CRITERIA, "AC-4", lambda: passing)
    path = str(CONFIGS / "identities.json")
    assert main(["report", "--config", path, "--out", str(tmp_path / "i")]) == 1
    assert "2/3 criteria passed" in capsys.readouterr().out  # the battery's table
    payload = json.loads((tmp_path / "i/report.json").read_text())
    first, raised, last = payload["criteria"]
    assert (raised["name"], raised["passed"], len(raised["checks"])) == ("AC-3", False, 1)
    assert raised["checks"][0]["value"] == "ValueError: no gap computed"
    assert first["passed"] and last["passed"] and (payload["passed"], payload["total"]) == (2, 3)


@pytest.mark.parametrize("command, argv", [
    ("flow", ["--bogus"]),
    ("verify", ["--seed", "x"]),
    ("verify", None),  # no --config
    ("no-such-command", []),
    ("identities", []),  # the identity battery is a report config
    ("verify", ["--force"]),
    ("report", ["--force"]),
], ids=["unknown-flag", "seed-not-int", "verify-without-config", "unknown-subcommand",
        "identities", "verify-force", "report-force"])
def test_usage_errors_exit_64(tmp_path, capsys, command, argv):
    # argparse exits 2 on a usage error, which is the TimeExhausted code here
    path = write_config(tmp_path, "cfg.json", RADIAL_CFG if command == "flow" else VERIFY_AXISYM_CFG)
    config = [] if argv is None else ["--config", path]
    assert main([command, *config, "--out", str(tmp_path / "out"), *(argv or [])]) == 64
    assert "usage: curvelab" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_exits_0_and_only_flow_takes_force(capsys):
    assert main(["--help"]) == 0
    assert main(["flow", "--help"]) == 0 and "--force" in capsys.readouterr().out
    for command in ("verify", "report"):
        assert main([command, "--help"]) == 0 and "--force" not in capsys.readouterr().out


def test_config_file_missing(tmp_path, capsys):
    assert main(["flow", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 64
    assert main(["flow", "--config", str(tmp_path), "--out", str(tmp_path)]) == 64  # a directory
    assert capsys.readouterr().err.count("configuration error [config]") == 2


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_made_exit_64(tmp_path, capsys, out):
    # an existing file in the --out path's place, or as one of its parents
    (tmp_path / "file").write_text("x")
    assert main(["verify", "--config", str(CONFIGS / "verify_k1.json"), "--out", str(tmp_path / out)]) == 64
    assert "configuration error [out]" in capsys.readouterr().err


VERIFY_AXISYM_CFG = {
    "samples": 2,
    "k": 1,
    "parametrization": "radial",
    "grid": {"mode": "axisym", "n": 2, "n_theta": 32},
    "seed": 1,
}

# a field file with a grid mode and dimension but no resolution or values
FIELD_WITHOUT_VALUES = Path(__file__).parent / "data" / "field_without_values.json"
# a full-s2 field file whose resolution gives n_theta but not n_phi
FIELD_S2_ONE_RESOLUTION_ENTRY = Path(__file__).parent / "data" / "field_s2_one_resolution_entry.json"
# unit spheres on a full-s2 8x16 grid and on an axisym n = 2, 16-node grid
FIELD_S2_8X16_SPHERE = Path(__file__).parent / "data" / "field_s2_8x16_sphere.json"
FIELD_AXISYM_16_SPHERE = Path(__file__).parent / "data" / "field_axisym_16_sphere.json"


class _Overrun(Exception):
    pass


def _main_within(argv, seconds):
    """main(argv), stopped by _Overrun once it has run ``seconds`` of wall time."""
    def stop(signum, frame):
        raise _Overrun(f"{argv} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("command, base, change", [
    pytest.param("verify", VERIFY_AXISYM_CFG, {"k": 3}, id="verify-k-above-n-1"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"k": 1.5}, id="verify-k-not-int"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"calibration": "bogus"}, id="verify-calibration"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"parametrization": "bogus"}, id="verify-parametrization"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"functional": "bogus"}, id="verify-functional"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"samples": 2.5}, id="verify-samples-not-int"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"grid": {"mode": "axisym", "n": 2, "n_theta": 2}},
                 id="verify-n-theta-too-small"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "axisym", "n": 2, "n_theta": "32"}},
                 id="flow-n-theta-string"),
    pytest.param("flow", RADIAL_CFG, {"n": 2.5, "grid": {"mode": "axisym", "n": 2.5, "n_theta": 32}},
                 id="flow-n-not-int"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "full-s2", "n": 2, "n_theta": 16, "n_phi": 31}},
                 id="flow-n-phi-odd"),
    pytest.param("flow", RADIAL_CFG, {"kind": "support", "k": 1.5}, id="flow-k-not-int"),
    pytest.param("flow", RADIAL_CFG, {"k": 1.5}, id="flow-radial-k-not-int"),
    pytest.param("flow", RADIAL_CFG, {"k": 5}, id="flow-radial-k-above-n"),
    pytest.param("flow", RADIAL_CFG, {"k": 0}, id="flow-radial-k-zero"),
    pytest.param("flow", RADIAL_CFG, {"run": {"t_end": float("nan")}}, id="flow-t-end-nan"),
    pytest.param("flow", RADIAL_CFG, {"run": {"t_end": 6.0, "dt_fixed": True, "output_interval": True}},
                 id="flow-dt-fixed-and-output-interval-true"),
    pytest.param("flow", RADIAL_CFG, {"run": {"t_end": True}}, id="flow-t-end-true"),
    pytest.param("flow", RADIAL_CFG, {"run": {"t_end": 5e-324}}, id="flow-t-end-subnormal"),
    pytest.param("flow", RADIAL_CFG, {"run": {"t_end": 6.0, "cfl": False}}, id="flow-cfl-false"),
    pytest.param("flow", RADIAL_CFG, {"run": {"t_end": "6"}}, id="flow-t-end-string"),
    pytest.param("flow", RADIAL_CFG, {"run": {"t_end": 0.05, "grad_tl": 1e-2}}, id="flow-run-unknown-key"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "sphere", "center": [0.0, 0.0, 0.1]}},
                 id="flow-axisym-vector-center"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "full-s2", "n": 2, "n_theta": 16, "n_phi": 32},
                                      "initial": {"shape": "sphere", "center": 0.1}},
                 id="flow-s2-scalar-center"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "full-s2", "n": 2, "n_theta": 16, "n_phi": 32},
                                      "initial": {"shape": "sphere", "center": [0.1, 0.0]}},
                 id="flow-s2-2-vector-center"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "harmonic", "ell": 2, "amplitude": 0.1, "m": 1}},
                 id="flow-axisym-harmonic-m"),
    pytest.param("flow", RADIAL_CFG, {"profile": {"kind": "constant", "value": "x"}},
                 id="flow-constant-value-string"),
    pytest.param("flow", RADIAL_CFG, {"profile": {"kind": "constant", "value": -1}},
                 id="flow-constant-value-negative"),
    pytest.param("flow", RADIAL_CFG, {"profile": {"kind": "tabulated", "x": [0.5, 1.5], "f": [1.0, 1.0]}},
                 id="flow-tabulated-two-points"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "random", "amplitude": 0.1, "lmax": "a"}},
                 id="flow-lmax-string"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "file", "path": "no-such-field.json"}},
                 id="flow-initial-file-missing"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "file", "path": str(FIELD_WITHOUT_VALUES)}},
                 id="flow-initial-file-without-keys"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "file", "path": str(FIELD_S2_ONE_RESOLUTION_ENTRY)}},
                 id="flow-initial-file-resolution-length"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "file", "path": str(FIELD_AXISYM_16_SPHERE)}},
                 id="flow-initial-file-other-resolution"),
    pytest.param("flow", RADIAL_CFG, {"n": 4, "k": 4, "grid": {"mode": "axisym", "n": 4, "n_theta": 32},
                                      "initial": {"shape": "file", "path": str(FIELD_S2_8X16_SPHERE)}},
                 id="flow-initial-file-other-mode-and-n"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "full-s2", "n": 2, "n_theta": 16, "n_phi": 32},
                                      "initial": {"shape": "harmonic", "ell": 2.5, "amplitude": 0.1}},
                 id="flow-harmonic-ell-not-int"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "full-s2", "n": 2, "n_theta": 16, "n_phi": 32},
                                      "initial": {"shape": "harmonic", "ell": 2, "amplitude": 0.1, "m": 3}},
                 id="flow-harmonic-m-above-ell"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "full-s2", "n": 2, "n_theta": 16, "n_phi": 32},
                                      "initial": {"shape": "harmonic", "ell": 2, "amplitude": 0.1, "m": 1,
                                                  "phase": "tan"}},
                 id="flow-harmonic-phase"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"profile": {"kind": "constant", "value": -1}},
                 id="verify-constant-value-negative"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"profile": {"kind": "bogus"}}, id="verify-profile-kind"),
    pytest.param("flow", RADIAL_CFG, {"run": {"t_end": 1.0, "dt_fixed": 1e-300}}, id="flow-dt-fixed-unfinishable"),
    pytest.param("flow", RADIAL_CFG, {"kind": "support", "grid": {"mode": "axisym", "n": 2, "n_theta": 16},
                                      "initial": {"shape": "sphere", "radius": 1.0, "center": 0.1},
                                      "run": {"t_end": 1e7, "osc_tol": 1e-300, "output_interval": 1e6}},
                 id="flow-adaptive-unfinishable"),
    pytest.param("flow", RADIAL_CFG, {"seed": -1}, id="flow-seed-negative"),
    pytest.param("flow", RADIAL_CFG, {"seed": "abc"}, id="flow-seed-string"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"seed": -1}, id="verify-seed-negative"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"seed": 1.5}, id="verify-seed-not-int"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"amplitude": "abc"}, id="verify-amplitude-string"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"amplitude": -0.3}, id="verify-amplitude-negative"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"amplitude": 0}, id="verify-amplitude-zero"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"amplitude": float("nan")}, id="verify-amplitude-nan"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"amplitude": float("inf")}, id="verify-amplitude-inf"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"amplitude": True}, id="verify-amplitude-bool"),
    pytest.param("flow", RADIAL_CFG, {"kind": "support", "initial": {"shape": "spheroid", "c_axis": -1.3,
                                                                     "b_equator": 1.0}},
                 id="flow-support-spheroid-c-negative"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "spheroid", "c_axis": 1.2, "b_equator": 0.0}},
                 id="flow-radial-spheroid-b-zero"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "sphere", "radius": 0.0}}, id="flow-sphere-radius-zero"),
    pytest.param("flow", RADIAL_CFG, {"kind": "support", "initial": {"shape": "sphere", "radius": -1.0}},
                 id="flow-support-sphere-radius-negative"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "harmonic", "ell": 2, "amplitude": 0.1, "base": 0.0}},
                 id="flow-harmonic-base-zero"),
    pytest.param("flow", RADIAL_CFG, {"kind": "support", "initial": {"shape": "random", "amplitude": 0.1,
                                                                     "base": -1.0}},
                 id="flow-support-random-base-negative"),
    *(pytest.param("flow", RADIAL_CFG, {"kind": kind, "initial": {"shape": "random", "amplitude": 0.1, "lmax": lmax}},
                   id=f"flow-{kind}-random-lmax-{lmax}")
      for kind in ("radial", "support") for lmax in (0, -1, 2.5, True)),
    # a radial draw has no degree-1 term, so at lmax 1 it is the base sphere whatever the seed
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "random", "amplitude": 0.1, "lmax": 1}},
                 id="flow-radial-random-lmax-1"),
    pytest.param("flow", RADIAL_CFG, {"profile": {"kind": "power-exp-pinned", "n": 2, "domain": [0.5]}},
                 id="flow-profile-domain-one-entry"),
    *(pytest.param("flow", RADIAL_CFG, {"profile": {"kind": "power-exp-pinned", "n": 2, "domain": domain}},
                   id=f"flow-profile-domain-{name}")
      for name, domain in (("three-entries", [0.5, 1.8, 3]), ("reversed", [1.8, 0.5]),
                           ("nan", [0.5, float("nan")]), ("infinite", [0.5, float("inf")]))),
    pytest.param("flow", RADIAL_CFG, {"profile": {"kind": "power-exp-pinned", "n": 2, "r_star": 0}},
                 id="flow-profile-r-star-zero"),
    *(pytest.param("flow", RADIAL_CFG, {"kind": "support",
                                        "profile": {"kind": "affine-power", "a": 1.0, "b": 1.0, "n": 2, "k": k}},
                   id=f"flow-affine-power-k-{k}")
      for k in (3, 4, 0, 1.5)),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "file", "path": str(Path(__file__).parent / "data")}},
                 id="flow-initial-file-directory"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "bogus", "n": 2, "n_theta": 16}}, id="flow-grid-mode-unknown"),
    pytest.param("flow", RADIAL_CFG, {"n": 3}, id="flow-n-disagrees-with-grid-n"),
    *(pytest.param("report", {}, {"criteria": criteria}, id=f"report-criteria-{name}")
      for name, criteria in (("unknown", ["AC-99"]), ("string", "AC-10"), ("number", 5), ("null", None),
                             ("nested", [["AC-1"]]))),
    # a block that is no JSON object raised TypeError ("argument of type 'NoneType' is not iterable")
    *(pytest.param(command, base, {block: value}, id=f"{command}-{block}-{json.dumps(value)}")
      for command, base in (("flow", RADIAL_CFG), ("verify", VERIFY_AXISYM_CFG))
      for block, value in (("grid", None), ("initial", 3), ("profile", 3), ("run", 3))
      if command == "flow" or block in ("grid", "profile")),
    # verify ran 10**30 samples until it was killed, and _legendre took one pass per degree
    # to 10**30; RADIAL_CFG's 64 rows resolve no degree above 64
    *(pytest.param("verify", VERIFY_AXISYM_CFG, {"samples": samples}, id=f"verify-samples-{samples}")
      for samples in (10**30, 2**63, 10**6 + 1)),
    *(pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "harmonic", "ell": ell, "amplitude": 0.1}},
                   id=f"flow-harmonic-ell-{ell}")
      for ell in (10**30, 2**63, 65)),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "random", "lmax": 65, "amplitude": 0.1}},
                 id="flow-random-lmax-65"),
    # a huge dimension overflowed in the sphere's area
    pytest.param("verify", VERIFY_AXISYM_CFG, {"grid": {"mode": "axisym", "n": 10**30, "n_theta": 32}},
                 id="verify-grid-n-1e30"),
    # n_theta = 2**63 made a grid of no rows, on which verify raised "Maximum allowed dimension exceeded"
    *(pytest.param(command, base, {"grid": {"mode": "axisym", "n": 2, "n_theta": n_theta}},
                   id=f"{command}-grid-n-theta-{n_theta}")
      for command, base in (("flow", RADIAL_CFG), ("verify", VERIFY_AXISYM_CFG)) for n_theta in (2**63, 10**7 + 1)),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"grid": {"mode": "full-s2", "n": 2, "n_theta": 1250001, "n_phi": 8}},
                 id="verify-grid-full-s2-above-the-node-cap"),
    # verify ran an empty profile as no profile, where flow asked for its kind
    *(pytest.param(command, base, {"profile": {}}, id=f"{command}-profile-empty")
      for command, base in (("flow", RADIAL_CFG), ("verify", VERIFY_AXISYM_CFG))),
    # a pinned profile's non-numeric n raised TypeError in x ** (1 - n), after the config check
    *(pytest.param(command, base, {"profile": {"kind": "power-exp-pinned", "n": n}},
                   id=f"{command}-pinned-n-{json.dumps(n)}")
      for command, base in (("flow", RADIAL_CFG), ("verify", VERIFY_AXISYM_CFG))
      for n in (None, "x", [1], {}, 1, 2.0, True)),
    # "H" at k >= 2 ran the k-deficit; the default functional is "H" at k = 1 and "k" above
    pytest.param("verify", VERIFY_AXISYM_CFG, {"k": 2, "functional": "H", "grid": {"mode": "axisym", "n": 3,
                                                                                  "n_theta": 32}},
                 id="verify-functional-H-at-k-2"),
    # a JSON true read as 1 (float(True) is 1.0): affine-power with k true ran as k = 1
    *(pytest.param("flow", RADIAL_CFG, {"kind": kind, "profile": dict(profile, **{key: True})},
                   id=f"flow-{profile['kind']}-{key}-true")
      for kind, profile in (("support", {"kind": "constant", "value": 1.0}),
                            ("radial", {"kind": "power-exp-pinned", "n": 2, "r_star": 1.0}),
                            ("support", {"kind": "power", "exponent": 1.0}),
                            ("support", {"kind": "affine-power", "a": 1.0, "b": 1.0, "n": 2, "k": 1}))
      for key in profile if key not in ("kind", "n") or profile["kind"] == "affine-power"),
    pytest.param("flow", RADIAL_CFG, {"kind": "support", "profile": {"kind": "constant", "value": 1.0,
                                                                     "domain": [True, 100.0]}},
                 id="flow-constant-domain-true"),
    # the grid and profile blocks are their constructors' keywords: a key they do not take
    # ran with the default (r_star = 1, exit 2) or was dropped, as was a full-s2 n other than 2
    pytest.param("flow", RADIAL_CFG, {"profile": {"kind": "power-exp-pinned", "n": 2, "r_sta": 1.3}},
                 id="flow-profile-unknown-key"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "axisym", "n": 2, "n_theta": 64, "n_thetta": 32}},
                 id="flow-grid-unknown-key"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "full-s2", "n": 3, "n_theta": 16, "n_phi": 32}},
                 id="flow-grid-full-s2-n-3"),
    pytest.param("flow", RADIAL_CFG, {"grid": {"mode": "axisym", "n": 2, "n_theta": 64, "n_phi": 128}},
                 id="flow-grid-axisym-n-phi"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"profile": {"kind": []}}, id="verify-profile-kind-list"),
    # float(10**400) raised OverflowError past the config check
    pytest.param("flow", RADIAL_CFG, {"profile": {"kind": "power-exp-pinned", "n": 2, "r_star": 10**400}},
                 id="flow-profile-r-star-10-400"),
    # the top level and the initial block are their readers' keywords too: a misspelt key ran
    # on the default it meant to set (a unit sphere, seed 0, amplitude 0.3, all thirteen criteria)
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "sphere", "radus": 1.3}}, id="flow-initial-sphere-radus"),
    pytest.param("flow", RADIAL_CFG, {"initial": {"shape": "random", "amplitude": 0.1, "lmx": 3}},
                 id="flow-initial-random-lmx"),
    pytest.param("flow", RADIAL_CFG, {"sede": 5}, id="flow-top-level-sede"),
    pytest.param("verify", VERIFY_AXISYM_CFG, {"amplitud": 0.2}, id="verify-top-level-amplitud"),
    pytest.param("report", {}, {"criterias": ["AC-2"]}, id="report-top-level-criterias"),
])
def test_malformed_config_exit_64(tmp_path, capsys, command, base, change):
    # each must stop with a ConfigError before any work, not with an
    # uncaught ValueError or TypeError, nor run an unknown parametrization
    # or on until it is stopped
    path = write_config(tmp_path, "cfg.json", dict(base, **change))
    assert _main_within([command, "--config", path, "--out", str(tmp_path / "out")], 5.0) == 64
    err = capsys.readouterr().err
    assert "configuration error" in err
    if "calibration" in change:  # verify takes no calibration key
        assert "unexpected keyword argument 'calibration'" in err


@pytest.mark.parametrize("change, where, key", [
    ({"initial": {"shape": "sphere", "radus": 1.3}}, "initial", "radus"),
    ({"sede": 5}, "config", "sede"),
    ({"kind": "radal"}, "kind", "radal"),  # was reported against the run block, which read it first
])
def test_a_misspelt_key_is_named(tmp_path, capsys, change, where, key):
    path = write_config(tmp_path, "cfg.json", dict(RADIAL_CFG, **change))
    assert main(["flow", "--config", path, "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    message = f"unknown flow kind '{key}'" if where == "kind" else f"unexpected keyword argument '{key}'"
    assert f"configuration error [{where}]" in err and message in err


def test_an_integer_field_path_is_refused_not_opened(tmp_path, capsys):
    # open(fd) read the field from the process's descriptor fd, then closed it
    with open(FIELD_AXISYM_16_SPHERE) as handle:
        cfg = dict(RADIAL_CFG, grid={"mode": "axisym", "n": 2, "n_theta": 16},
                   initial={"shape": "file", "path": handle.fileno()})
        path = write_config(tmp_path, "cfg.json", cfg)
        assert main(["flow", "--config", path, "--out", str(tmp_path / "out")]) == 64
        assert "path must be a string" in capsys.readouterr().err
        os.fstat(handle.fileno())  # still open


@pytest.mark.parametrize("command", ["flow", "verify"])
def test_config_that_is_no_object_exit_64(tmp_path, capsys, command):
    path = write_config(tmp_path, "cfg.json", [1, 2])
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 64
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("contents", [b"\xff\xfe{\x00}\x00", b"{"], ids=["utf16-bom", "truncated"])
def test_config_that_is_no_utf8_json_exit_64(tmp_path, capsys, contents):
    path = tmp_path / "bad.json"
    path.write_bytes(contents)
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "out")]) == 64
    assert "configuration error [config]" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [("flow", RADIAL_CFG), ("verify", VERIFY_AXISYM_CFG)], ids=["flow", "verify"])
def test_negative_seed_flag_exit_64(tmp_path, capsys, command, cfg):
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 64
    assert "configuration error [seed]" in capsys.readouterr().err


# A config fuzz: one key path of a small config set to one value of each JSON class, run
# through main under warnings-as-errors.
FUZZ_BASES = {
    "flow": {"kind": "radial", "n": 2, "grid": {"mode": "axisym", "n": 2, "n_theta": 16},
             "initial": {"shape": "harmonic", "ell": 2, "amplitude": 0.1},
             "profile": {"kind": "power-exp-pinned", "n": 2, "r_star": 1.0},
             "run": {"t_end": 0.05, "output_interval": 0.01}, "seed": 1},
    "verify": {"samples": 2, "k": 1, "functional": "H", "parametrization": "radial", "amplitude": 0.3,
               "grid": {"mode": "axisym", "n": 2, "n_theta": 16},
               "profile": {"kind": "power-exp-pinned", "n": 2, "r_star": 1.0}, "seed": 1},
}
FUZZ_VALUES = [None, True, 0, -1, 1, 2, 3, 0.5, -0.5, 1e300, math.nan, math.inf, "x", "", [], [1], {}, {"a": 1},
               10**30, 2**63]


def _key_paths(cfg, prefix=()):
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


FUZZ_CASES = [(command, path) for command, cfg in FUZZ_BASES.items() for path in _key_paths(cfg)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(FUZZ_VALUES))
@example(case=("verify", ("grid",)), value=None)
@example(case=("flow", ("initial",)), value=3)
@example(case=("flow", ("profile",)), value=3)
@example(case=("flow", ("run",)), value=3)
@example(case=("verify", ("samples",)), value=10**30)
@example(case=("verify", ("samples",)), value=2**63)
@example(case=("flow", ("initial", "ell")), value=10**30)
@example(case=("flow", ("initial", "ell")), value=2**63)
@example(case=("verify", ("grid", "n")), value=10**30)
@example(case=("verify", ("grid", "n_theta")), value=2**63)
@example(case=("flow", ("profile", "n")), value=None)
@example(case=("flow", ("profile", "n")), value="x")
@example(case=("verify", ("profile", "n")), value=[1])
@example(case=("verify", ("profile", "n")), value={})
@example(case=("flow", ("profile", "n")), value=10**30)
@example(case=("verify", ("profile", "n")), value=2**63)
@example(case=("flow", ("profile", "r_star")), value=1e300)
@example(case=("verify", ("profile", "r_star")), value=10**30)
@example(case=("flow", ("profile", "r_star")), value=True)
@example(case=("verify", ("profile", "r_star")), value=True)
@example(case=("flow", ("profile",)), value={"kind": "constant", "value": 1e300})
@example(case=("verify", ("profile", "kind")), value=[])
@example(case=("flow", ("grid", "n")), value=2.0)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_config_fuzz_exits_cleanly_within_seconds(case, value):
    command, path = case
    cfg = json.loads(json.dumps(FUZZ_BASES[command]))
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), "cfg.json", cfg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = _main_within([command, "--config", config, "--out", str(Path(tmp) / "out")], 3.0)
    assert code in (0, 1, 2, 64), (cfg, code)
    assert "Traceback" not in err.getvalue()
    if value is True and path[0] == "profile" and len(path) == 2:  # a JSON bool is no profile number
        assert code == 64, cfg


CONFIGS = Path(__file__).parent.parent / "configs"


# The digests hold where they were recorded: numpy 2.4 dispatching to its AVX-512 targets
# (X86_V4, AVX512_ICL, AVX512_SPR) and scipy-openblas 0.3.31 on its default core for an
# AVX-512 CPU.  exp, log and fractional powers without AVX-512, and the full-s2 resolvent's
# batched matmul on another OpenBLAS core, move last bits that reach the pins, with no
# change to the code; there a pin fails, and its message names the targets and switches.
PINNED = [
    ("flow", "radial_pinned", "trace.csv", "da90674bb2ccf5c09e09c91de4b95961c188b1bfda22352dbb98251a181edc7a"),
    ("flow", "support_k2", "trace.csv", "78e7d86ab2e5f236955fe70611ec6c4a69c4a922a3395c4e8cdd5ce8df4bb4f5"),
    ("verify", "verify_k1", "verify.csv", "fa6389041c66e46aac73b6865e2bbcbba52dcc2f9997d9d5351e958b57d483cb"),
]


def kernel_variant() -> str:
    """numpy's enabled SIMD dispatch targets, and the kernel switches set in the environment."""
    umath = np._core._multiarray_umath
    targets = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    switches = [f"{key}={os.environ[key]!r}" for key in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
                if key in os.environ]
    return f"numpy dispatch targets {targets}" + (f", {', '.join(switches)}" if switches else "")


@pytest.mark.parametrize("command, name, artefact, sha256", PINNED)
def test_committed_configs_reproduce_their_pinned_artefacts(tmp_path, command, name, artefact, sha256):
    # the CSV bytes of the committed configs; a change here changes every published run
    assert main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / artefact).read_bytes()).hexdigest()
    assert digest == sha256, f"{name} {artefact} digest {digest[:8]}... under {kernel_variant()}; see PINNED"
    if command == "flow":  # the decay fit of the written trace, against np.polyfit's
        summary = json.loads((tmp_path / "summary.json").read_text())
        with open(tmp_path / artefact) as handle:
            rows = list(csv.DictReader(handle))
        gamma, r2 = polyfit_decay(*(np.array([float(row[key]) for row in rows]) for key in ("t", "grad_max")))
        assert summary["gamma"] == pytest.approx(gamma, rel=1e-12, abs=0)
        assert summary["gamma_r_squared"] == pytest.approx(r2, rel=1e-12, abs=0)
        # summary.json holds no copy of a trace row, and kind, n and k once
        assert summary["schema"] == "curvelab.flow-summary/2" and summary["steps"] >= len(rows) - 1
        assert not {"final", "conserved_initial", "conserved_final"} & summary.keys()
        assert not {"kind", "n", "k"} & summary["config"].keys()
        if summary["kind"] == "support":  # the drift is the written rows' V_{k-1}
            v0, v1 = (float(row[f"V_{summary['k'] - 1}"]) for row in (rows[0], rows[-1]))
            assert summary["conserved_drift"] == abs(v1 - v0) / abs(v0)
