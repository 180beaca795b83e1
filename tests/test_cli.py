"""End-to-end CLI runs: exit codes, artifacts, reproducibility."""

import csv
import json

import numpy as np
import pytest

from curvelab.cli import main


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


def test_flow_inadmissible_profile_needs_force(tmp_path):
    cfg = dict(RADIAL_CFG, profile={"kind": "constant", "value": 1.0, "domain": [0.5, 1.8]},
               run={"t_end": 0.05, "cfl": 0.4})
    path = write_config(tmp_path, "flow.json", cfg)
    assert main(["flow", "--config", path, "--out", str(tmp_path / "a")]) == 1
    assert main(["flow", "--config", path, "--out", str(tmp_path / "b"), "--force"]) == 2


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
                       "lhs", "rhs", "deficit", "mode", "status"]
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


def test_verify_threads_env(tmp_path, monkeypatch):
    cfg = {
        "samples": 6,
        "k": 1,
        "parametrization": "radial",
        "amplitude": 0.2,
        "grid": {"mode": "axisym", "n": 2, "n_theta": 64},
        "seed": 2,
    }
    path = write_config(tmp_path, "verify.json", cfg)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("CURVELAB_THREADS", "4")
    assert main(["verify", "--config", path, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/verify.csv").read_bytes() == (tmp_path / "b/verify.csv").read_bytes()


def test_identities_battery(tmp_path):
    path = write_config(tmp_path, "ids.json", {"seed": 1})
    assert main(["identities", "--config", path, "--out", str(tmp_path / "i")]) == 0
    report = json.loads((tmp_path / "i/identities.json").read_text())
    assert report["all_passed"]
    assert report["trace_identities"]["passed"]
    assert report["newton_maclaurin"]["passed"]
    assert report["minkowski"]["passed"]


def test_report_subset(tmp_path, capsys):
    path = write_config(tmp_path, "rep.json", {"criteria": ["AC-1", "AC-4", "AC-11"]})
    code = main(["report", "--config", path, "--out", str(tmp_path / "rep")])
    assert code == 0
    out = capsys.readouterr().out
    assert "AC-1" in out and "3/3 criteria passed" in out
    payload = json.loads((tmp_path / "rep/report.json").read_text())
    assert payload["passed"] == payload["total"] == 3


def test_config_file_missing(tmp_path, capsys):
    assert main(["flow", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 64
