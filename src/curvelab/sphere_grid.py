"""Discrete parameter spheres: a full lat-long S^2 grid and axisymmetric profiles.

Nodes sit at cell-centred colatitudes theta_j = (j + 1/2) * pi / N_theta, so
no node touches a pole.  The full-S2 grid continues fields across the poles
antipodally, f(-theta, phi) = f(theta, phi + pi); the axisymmetric profile
uses even reflection, which is the antipodal rule restricted to zonal fields.
All stencils are second-order centred differences.  Quadrature weights are
sin^(n-1)(theta)-weighted cell areas rescaled so that the constant field 1
integrates to the exact area of S^n; that exactness is what keeps round
spheres free of quadrature bias in every downstream functional.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SphericalGrid",
    "ScalarField",
    "sphere_area",
]


def sphere_area(n: int) -> float:
    """Surface area of the unit n-sphere, 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


class SphericalGrid:
    """Discretization of the parameter sphere S^n.

    Two modes:

    * ``full-s2``: tensor lat-long grid on S^2 (forces n = 2), node layout
      (N_theta, N_phi), periodic in phi and antipodally continued in theta.
    * ``axisym``: colatitude profile valid for any n >= 2; fields depend on
      theta only and all azimuthal derivatives vanish identically.

    Grids are immutable after construction; operators are pure functions of
    the node values they are handed.
    """

    def __init__(self, mode: str, n: int, n_theta: int, n_phi: int | None = None):
        if mode not in ("full-s2", "axisym"):
            raise ValueError(f"unknown grid mode {mode!r}")
        if n < 2:
            raise ValueError("ambient sphere dimension n must be >= 2")
        if n_theta < 4:
            raise ValueError("n_theta must be >= 4")
        self.mode = mode
        self.n = n
        self.n_theta = int(n_theta)
        self.dtheta = math.pi / self.n_theta
        self.theta = (np.arange(self.n_theta) + 0.5) * self.dtheta
        self.sin_t = np.sin(self.theta)
        self.cos_t = np.cos(self.theta)
        self.cot_t = self.cos_t / self.sin_t

        if mode == "full-s2":
            if n != 2:
                raise ValueError("full-s2 mode requires n = 2")
            if n_phi is None or n_phi < 8 or n_phi % 2:
                raise ValueError("full-s2 mode needs an even n_phi >= 8")
            self.n_phi = int(n_phi)
            self.dphi = 2.0 * math.pi / self.n_phi
            self.phi = np.arange(self.n_phi) * self.dphi
            self.node_shape = (self.n_theta, self.n_phi)
            raw = (self.sin_t * self.dtheta * self.dphi)[:, None]
            raw = np.broadcast_to(raw, self.node_shape).copy()
            self._sin = self.sin_t[:, None]
            self._cot = self.cot_t[:, None]
            # zonal wavenumbers above sin(theta) * N_phi / 2 are unresolvable
            # near the poles; the filter mask removes them (see zonal_filter).
            # Keeping m <= 2 everywhere leaves smooth low-degree fields
            # untouched to round-off; the pole rows' retained modes then sit
            # at most ~1.6x above the theta-direction eigenvalue budget, which
            # steppers absorb with a step-size safety factor.
            m = np.arange(self.n_phi // 2 + 1)
            m_keep = np.maximum(2.0, np.ceil(self.sin_t * self.n_phi / 2.0))
            self._zonal_mask = (m[None, :] <= m_keep[:, None]).astype(float)
        else:
            self.n_phi = None
            self.dphi = None
            self.phi = None
            self.node_shape = (self.n_theta,)
            raw = sphere_area(n - 1) * self.sin_t ** (n - 1) * self.dtheta
            self._sin = self.sin_t
            self._cot = self.cot_t

        self.weights = raw * (sphere_area(n) / raw.sum())

    # -- finite differences -------------------------------------------------

    def _pad_theta(self, v: np.ndarray) -> np.ndarray:
        if self.mode == "full-s2":
            shift = self.n_phi // 2
            top = np.roll(v[0], shift)
            bottom = np.roll(v[-1], shift)
        else:
            top = v[0]
            bottom = v[-1]
        return np.concatenate([top[None, ...], v, bottom[None, ...]], axis=0)

    def d_theta(self, v: np.ndarray) -> np.ndarray:
        p = self._pad_theta(np.asarray(v, float))
        return (p[2:] - p[:-2]) / (2.0 * self.dtheta)

    def d2_theta(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, float)
        p = self._pad_theta(v)
        return (p[2:] - 2.0 * v + p[:-2]) / self.dtheta**2

    def d_phi(self, v: np.ndarray) -> np.ndarray:
        if self.mode != "full-s2":
            return np.zeros_like(v)
        return (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * self.dphi)

    def d2_phi(self, v: np.ndarray) -> np.ndarray:
        if self.mode != "full-s2":
            return np.zeros_like(v)
        return (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / self.dphi**2

    def d_theta_phi(self, v: np.ndarray) -> np.ndarray:
        if self.mode != "full-s2":
            return np.zeros_like(v)
        return self.d_theta(self.d_phi(v))

    # -- differential operators on the round metric -------------------------

    def gradient(self, v: np.ndarray):
        """Orthonormal-frame gradient components.

        full-s2: tuple (d/dtheta, d/dphi / sin theta); axisym: (d/dtheta,),
        the azimuthal components being identically zero.
        """
        if self.mode == "full-s2":
            return (self.d_theta(v), self.d_phi(v) / self._sin)
        return (self.d_theta(v),)

    def hessian_components(self, v: np.ndarray):
        """Covariant Hessian in the orthonormal frame of the round metric.

        full-s2 returns (H11, H12, H22); axisym returns (H_meridional,
        H_tangential) where the tangential value is shared by the n - 1
        degenerate directions.  Christoffel terms of the round metric are
        included, so the trace is the sphere Laplacian.
        """
        if self.mode == "full-s2":
            vt = self.d_theta(v)
            vp = self.d_phi(v)
            h11 = self.d2_theta(v)
            h12 = (self.d_theta(vp) - self._cot * vp) / self._sin
            h22 = self.d2_phi(v) / self._sin**2 + self._cot * vt
            return (h11, h12, h22)
        return (self.d2_theta(v), self._cot * self.d_theta(v))

    def laplacian(self, v: np.ndarray) -> np.ndarray:
        h = self.hessian_components(v)
        if self.mode == "full-s2":
            return h[0] + h[2]
        return h[0] + (self.n - 1) * h[1]

    def integrate(self, v) -> float:
        return float(np.sum(self.weights * np.asarray(v, float)))

    def zonal_filter(self, v: np.ndarray) -> np.ndarray:
        """Remove zonal modes that the pole-converging phi rows cannot carry.

        For smooth fields the removed coefficients are at round-off level;
        the filter exists to stop explicit time steps sized by the theta
        spacing from amplifying them.  No-op on axisymmetric grids.
        """
        if self.mode != "full-s2":
            return v
        spec = np.fft.rfft(v, axis=1)
        spec *= self._zonal_mask
        return np.fft.irfft(spec, n=self.n_phi, axis=1)

    # -- embedding helpers ---------------------------------------------------

    def xi(self):
        """Unit position vectors of the nodes.

        full-s2: array (N_theta, N_phi, 3).  axisym: (N_theta, 2) meridian
        components (coefficient of the S^(n-1) orbit direction, axis component).
        """
        if self.mode == "full-s2":
            st, ct = self.sin_t[:, None], self.cos_t[:, None]
            cp, sp = np.cos(self.phi)[None, :], np.sin(self.phi)[None, :]
            return np.stack(
                [st * cp, st * sp, np.broadcast_to(ct, self.node_shape)], axis=-1
            )
        return np.stack([self.sin_t, self.cos_t], axis=-1)

    def frame(self):
        """Ambient frame vectors (e_theta, e_phi) on full-s2 grids."""
        if self.mode != "full-s2":
            raise ValueError("frame vectors are a full-s2 feature")
        st, ct = self.sin_t[:, None], self.cos_t[:, None]
        cp, sp = np.cos(self.phi)[None, :], np.sin(self.phi)[None, :]
        zeros = np.zeros(self.node_shape)
        e_theta = np.stack([ct * cp, ct * sp, np.broadcast_to(-st, self.node_shape)], axis=-1)
        e_phi = np.stack([-np.broadcast_to(sp, self.node_shape), np.broadcast_to(cp, self.node_shape), zeros], axis=-1)
        return e_theta, e_phi

    @property
    def min_spacing(self) -> float:
        """Smallest parameter spacing, the scale entering parabolic steps."""
        if self.mode == "full-s2":
            return min(self.dtheta, self.dphi)
        return self.dtheta

    # -- constructors and serialization ---------------------------------------

    @classmethod
    def full_s2(cls, n_theta: int, n_phi: int) -> "SphericalGrid":
        return cls("full-s2", 2, n_theta, n_phi)

    @classmethod
    def axisym(cls, n: int, n_theta: int) -> "SphericalGrid":
        return cls("axisym", n, n_theta)

    def to_dict(self) -> dict:
        return {
            "schema": "curvelab.grid/1",
            "mode": self.mode,
            "n": self.n,
            "resolution": [self.n_theta] if self.mode == "axisym" else [self.n_theta, self.n_phi],
            "theta": self.theta.tolist(),
            "phi": None if self.phi is None else self.phi.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SphericalGrid":
        res = data["resolution"]
        if data["mode"] == "axisym":
            return cls.axisym(data["n"], res[0])
        return cls.full_s2(res[0], res[1])

    def __eq__(self, other):
        return (
            isinstance(other, SphericalGrid)
            and self.mode == other.mode
            and self.n == other.n
            and self.node_shape == other.node_shape
        )

    def __hash__(self):
        return hash((self.mode, self.n, self.node_shape))

    def __repr__(self):
        res = "x".join(str(s) for s in self.node_shape)
        return f"SphericalGrid({self.mode}, n={self.n}, {res})"


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid node (radial function, support function, ...)."""

    grid: SphericalGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.node_shape:
            raise ValueError(
                f"values shape {v.shape} does not match grid {self.grid.node_shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    def to_dict(self) -> dict:
        data = self.grid.to_dict()
        data["schema"] = "curvelab.field/1"
        data["values"] = self.values.ravel().tolist()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScalarField":
        grid = SphericalGrid.from_dict(data)
        values = np.asarray(data["values"], float).reshape(grid.node_shape)
        return cls(grid, values)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ScalarField":
        return cls.from_dict(json.loads(text))

