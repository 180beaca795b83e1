"""The four workloads: inputs made from the seed, one unit of work, its gates.

Each workload class builds all of a run's inputs in ``__init__`` (that is
set-up) and exposes ``solve(unit)``, which runs one unit of the workload's
main job through curvelab's public functions and returns an ``Outcome``.
Every unit is checked against the acceptance tolerances of its family; a
unit that misses one counts as a failed op.  ``digest`` fingerprints the
unit's output artefact, so repeated units can be compared byte for byte.

curvelab is reached through module attributes at call time
(``flows.run_flow``, not a name bound at import), so the tracer's rebinding
reaches every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import curvelab.cli as cli
import curvelab.flows as flows
import curvelab.shapes as shapes
import curvelab.sphere_grid as sphere_grid
import curvelab.symfunc as symfunc
from curvelab.errors import CurveLabError


@dataclass
class Outcome:
    ops: int
    failed: int
    digest: str
    problems: list = field(default_factory=list)


def _rng(seed, *path):
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _sha(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _flow_unit(workdir, body, profile, config, gates):
    """Run one flow, write its trace.csv and apply the common and own gates."""
    try:
        trace = flows.run_flow(body, profile, config)
        path = os.path.join(workdir, "trace.csv")
        trace.write_csv(path)
        problems = [] if trace.status == "Converged" else [f"status {trace.status}"]
        breaches = sum(b.kind == "monotone" for b in trace.breaches)
        if breaches:
            problems.append(f"{breaches} monotone breaches")
        problems += gates(trace)
    except CurveLabError as exc:
        return Outcome(1, 1, "", [f"{type(exc).__name__}: {exc}"])
    return Outcome(1, int(bool(problems)), _sha(path), problems)


class RadialAxisym:
    """AC-5 family: a seeded axisymmetric starshaped body run to Converged."""

    N_THETA = 40

    def __init__(self, seed, units, workdir):
        self.workdir = workdir
        self.grid = sphere_grid.SphericalGrid.axisym(2, self.N_THETA)
        self.profile = flows.SpeedProfile.power_exp_pinned(2, 1.0)
        self.r_star = flows.validate_radial_profile(self.profile, 2)
        self.bodies = [shapes.random_starshaped(self.grid, _rng(seed, i), amp=0.2)
                       for i in range(units)]
        self.config = flows.FlowConfig(kind="radial", t_end=6.0, cfl=0.45, output_interval=0.01)

    def solve(self, unit):
        return _flow_unit(self.workdir, self.bodies[unit], self.profile, self.config, self._gates)

    def _gates(self, trace):
        problems = []
        err = float(np.abs(trace.meta["final_state"] - self.r_star).max())
        if not err < 2e-3:
            problems.append(f"max|r_final - r*| = {err:.3e}")
        fit = flows.estimate_decay_rate(trace)
        if not fit.r_squared > 0.95:
            problems.append(f"decay fit R^2 = {fit.r_squared:.4f}")
        return problems


class SupportS2:
    """AC-6 family: a seeded convex body on full-s2, k = 2 support flow."""

    SHAPE = (24, 48)

    def __init__(self, seed, units, workdir):
        self.workdir = workdir
        self.grid = sphere_grid.SphericalGrid.full_s2(*self.SHAPE)
        self.bodies = [shapes.random_convex_support(self.grid, _rng(seed, i), amp=0.1)
                       for i in range(units)]
        # the constant profile run_flow substitutes for None, validated here
        report = flows.validate_support_profile(flows.SpeedProfile.constant(1.0), 2, 2)
        if not report.ok:
            raise RuntimeError(f"support profile rejected: {report.detail}")
        self.config = flows.FlowConfig(kind="support", k=2, t_end=12.0, cfl=0.5,
                                       osc_tol=1e-4, output_interval=0.02)

    def solve(self, unit):
        return _flow_unit(self.workdir, self.bodies[unit], None, self.config, self._gates)

    @staticmethod
    def _gates(trace):
        problems = []
        drift = trace.meta["conserved_drift"]
        if not drift < 1e-3:
            problems.append(f"V_1 drift {drift:.3e}")
        final = trace.rows[-1]
        osc = (final["r_max"] - final["r_min"]) / (0.5 * (final["r_max"] + final["r_min"]))
        if not osc < 1e-3:
            problems.append(f"final oscillation {osc:.3e}")
        return problems


class VerifyFuzz:
    """`curvelab verify` in-process on a generated k = 1 radial config."""

    SAMPLES = 20

    def __init__(self, seed, units, workdir):
        self.workdir = workdir
        self.configs = []
        for i in range(units):
            cfg = {
                "samples": self.SAMPLES, "k": 1, "functional": "H",
                "parametrization": "radial", "amplitude": 0.3,
                "grid": {"mode": "full-s2", "n": 2, "n_theta": 48, "n_phi": 96},
                "seed": int(np.random.SeedSequence([seed, i]).generate_state(1)[0]),
            }
            path = os.path.join(workdir, f"verify_{i}.json")
            with open(path, "w") as handle:
                json.dump(cfg, handle)
            self.configs.append(path)

    def solve(self, unit, threads=1):
        out = os.path.join(self.workdir, f"verify_out_{unit}")
        os.environ["CURVELAB_THREADS"] = str(threads)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--config", self.configs[unit], "--out", out])
        path = os.path.join(out, "verify.csv")
        if code != 0:
            return Outcome(self.SAMPLES, self.SAMPLES, "", [f"exit code {code}"])
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        problems = []
        for row in rows:
            rel = float(row["deficit"]) / abs(float(row["rhs"]))
            if row["status"] != "ok":
                problems.append(f"sample {row['sample_id']}: status {row['status']}")
            elif not rel >= -1e-3:
                problems.append(f"sample {row['sample_id']}: relative deficit {rel:.3e}")
        if len(rows) != self.SAMPLES:
            problems.append(f"{len(rows)} rows for {self.SAMPLES} samples")
        failed = min(self.SAMPLES, len(problems))
        return Outcome(self.SAMPLES, failed, _sha(path), problems)


def _sigma_reference(kappa):
    """sigma_0..sigma_n by numpy's polynomial expansion of prod (x + kappa_i)."""
    return np.poly(-np.asarray(kappa))


def _cone_vector(rng, n, k):
    """kappa in Gamma_k with E_1..E_k clear of the strictness floor."""
    while True:
        kappa = rng.uniform(-0.6, 2.0, size=n)
        sig = _sigma_reference(kappa)
        e = [sig[j] / math.comb(n, j) for j in range(1, k + 1)]
        if min(e) > 1e-3:
            return kappa


class Algebra:
    """symfunc's scalar and matrix API on seeded Garding-cone data."""

    MATRICES = 100
    VECTORS = 100

    def __init__(self, seed, units, workdir):
        self.batches = [self._batch(_rng(seed, i)) for i in range(units)]

    @classmethod
    def _batch(cls, rng):
        matrices = []
        for _ in range(cls.MATRICES):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            kappa = _cone_vector(rng, n, k)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = (q * kappa) @ q.T
            matrices.append((0.5 * (a + a.T), kappa, k))
        vectors = []
        for _ in range(cls.VECTORS):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            vectors.append((rng.uniform(0.05, 3.0, size=n), _cone_vector(rng, n, k), k))
        return matrices, vectors

    def solve(self, unit):
        matrices, vectors = self.batches[unit]
        problems = []
        fingerprint = hashlib.sha256()
        bad = 0
        for a, kappa, k in matrices:
            n = kappa.size
            d = symfunc.ek_derivative_tensor(a, k)
            e = [symfunc.elementary_symmetric(kappa, j) for j in range(n + 2)]
            pairs = [
                (float(np.trace(d)), k * e[k - 1]),
                (float(np.sum(d * a)), k * e[k]),
                (float(np.sum(d * (a @ a))), n * e[1] * e[k] - (n - k) * e[k + 1]),
            ]
            worst = max(abs(got - want) / (1.0 + abs(want)) for got, want in pairs)
            fingerprint.update(d.tobytes())
            if not worst < 1e-10:
                bad += 1
                problems.append(f"trace identity residual {worst:.3e} (n={n}, k={k})")
        vector_ok = []
        for positive, cone, k in vectors:
            n = positive.size
            gaps = [symfunc.newton_maclaurin_gap(positive, i, m)
                    for i in range(1, n + 1) for m in range(i, n + 1)]
            ok = min(gaps) >= -1e-12
            if not ok:
                problems.append(f"Newton-MacLaurin gap {min(gaps):.3e} (n={n})")
            if not symfunc.gamma_cone_member(cone, k):
                ok = False
                problems.append(f"cone vector rejected by gamma_cone_member (n={n}, k={k})")
            else:
                f = symfunc.curvature_quotient(cone, k)
                grad = symfunc.curvature_quotient_gradient(cone, k)
                euler = abs(float(grad @ cone) - f) / (1.0 + abs(f))
                if not euler < 1e-10:
                    ok = False
                    problems.append(f"Euler identity residual {euler:.3e} (n={n}, k={k})")
                fingerprint.update(np.float64(f).tobytes())
            fingerprint.update(np.asarray(gaps).tobytes())
            vector_ok.append(ok)
        # batched sigma_all over every vector of one dimension at once
        for n in range(2, 8):
            index = [i for i, (v, _c, _k) in enumerate(vectors) if v.size == n]
            if not index:
                continue
            got = symfunc.sigma_all(np.stack([vectors[i][0] for i in index]))
            want = np.stack([_sigma_reference(vectors[i][0]) for i in index])
            off = np.abs(got - want).max(axis=1) > 1e-10 * np.abs(want).max(axis=1)
            for i in np.asarray(index)[off]:
                vector_ok[i] = False
            if off.any():
                problems.append(f"batched sigma_all off the reference in {int(off.sum())} n={n} rows")
            fingerprint.update(got.tobytes())
        bad += vector_ok.count(False)
        ops = len(matrices) + len(vectors)
        return Outcome(ops, bad, fingerprint.hexdigest(), problems)


WORKLOADS = {
    "radial-axisym": RadialAxisym,
    "support-s2": SupportS2,
    "verify-fuzz": VerifyFuzz,
    "algebra": Algebra,
}
