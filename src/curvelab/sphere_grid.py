"""Discrete parameter spheres: a full lat-long S^2 grid and axisymmetric profiles.

Nodes sit at cell-centred colatitudes theta_j = (j + 1/2) * pi / N_theta, so
no node touches a pole.  The full-S2 grid continues fields across the poles
antipodally, f(-theta, phi) = f(theta, phi + pi); the axisymmetric profile
uses even reflection, which is the antipodal rule restricted to zonal fields.

One call, derivatives, gives the gradient and the Hessian as second-order
centred differences read by slices from one ghost-padded copy of the field.
The copy has one ghost row beyond each pole: on full-s2 grids it is the pole
row itself turned half a turn, np.roll(row, n_phi // 2), the antipodal
continuation; on axisymmetric grids it is the pole row unchanged.  Full-s2
copies also carry one periodic ghost column on each side, ghost rows
included, so d/dphi is known on the ghost rows and its theta difference
gives the mixed derivative across the poles.

Quadrature weights are rescaled so that the constant field 1 integrates to
the exact area of S^n; that exactness is what keeps round spheres free of
quadrature bias in every downstream functional.  For n = 2 the colatitude
profile of the weights is put in detailed balance with the central theta
stencil: with a_j = 1/dtheta^2 - cot(theta_j)/(2 dtheta) and c_j =
1/dtheta^2 + cot(theta_j)/(2 dtheta) the stencil's weights of rows j - 1
and j + 1, w_(j+1) / w_j = c_j / a_(j+1).  The discrete Laplacian is then
self-adjoint under the weights and integrates to zero (summation by parts;
Strand, J. Comput. Phys. 110 (1994) 47-67), so M_2 = int (Delta h + 2 h) dmu
of the k = 2 support flow keeps its continuum monotonicity on the grid; the
profile stays within 0.4% of sin(theta) at 24 rows.  For n >= 3 the weights
stay sin^(n-1)(theta)-weighted cell areas.  There the stencil carries n - 1
on cot(theta); the ghost row folds a_0 into the diagonal, so the balance
needs a_j > 0 for j >= 1 only, and a_1 ~ (1 - (n-1)/3)/dtheta^2 is positive
for n = 3, about zero at n = 4 and negative for n >= 5.  The n = 3 weights
are not switched yet.

The grid also owns its embedding in R^(n+1), so no other module branches on
the mode to place a surface: xi holds the node directions, frame the
ambient unit vectors of the gradient's components in the same layout,
project(c) gives the translation term <c, xi>, and zonal(v) fills the nodes
from one value per colatitude.  Axisymmetric grids lay ambient vectors out
as meridian components (orbit direction, symmetry axis).
"""

from __future__ import annotations

import functools
import math
import numbers
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


def _tridiagonal_solve(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs) -> np.ndarray:
    """Solutions of a stack of tridiagonal systems by one batched Thomas sweep.

    The diagonals have shapes (count, size - 1), (count, size) and (count, size - 1),
    and rhs (count, size, columns): the identity for the resolvent, one column for the
    spline.  Eliminates the sub-diagonal of [matrix | rhs] on a C-order copy of rhs, then
    back-substitutes, without pivoting: the pivots of I - s Delta stay at or above 1 (rows
    are diagonally dominant for n <= 3, and were checked for n = 5, 6 up to s times the
    spectral radius of Delta = 1e5); the spline's not-a-knot pivots stay positive.
    """
    count, size = diag.shape
    out = np.array(rhs, float, order="C")
    ratio = np.empty((count, size - 1))  # the eliminated rows' scaled super-diagonal
    pivot = diag[:, 0]
    for i in range(size):
        if i:
            pivot = diag[:, i] - sub[:, i - 1] * ratio[:, i - 1]
            out[:, i] -= sub[:, i - 1, None] * out[:, i - 1]
        out[:, i] /= pivot[:, None]
        if i < size - 1:
            ratio[:, i] = sup[:, i] / pivot
    for i in range(size - 2, -1, -1):
        out[:, i] -= ratio[:, i, None] * out[:, i + 1]
    return out


class SphericalGrid:
    """Discretization of the parameter sphere S^n.

    Two modes:

    * ``full-s2``: tensor lat-long grid on S^2 (forces n = 2), node layout
      (N_theta, N_phi), periodic in phi and antipodally continued in theta.
    * ``axisym``: colatitude profile valid for any n >= 2; fields depend on
      theta only and all azimuthal derivatives vanish identically.

    Grids are immutable after construction, so the embedding arrays are built
    once and read-only; operators are pure functions of the node values they
    are handed.  ``xi`` holds the unit position vectors of the nodes: full-s2
    (N_theta, N_phi, 3); axisym (N_theta, 2) meridian components (coefficient
    of the S^(n-1) orbit direction, axis component).  ``frame`` holds the
    ambient unit vectors of the gradient's components, laid out like xi:
    full-s2 (e_theta, e_phi); axisym (e_theta,) = (cos theta, -sin theta).
    Sizes that are not integers (a bool included), an axisym n_phi and a grid
    of more than 10^7 nodes raise ValueError before anything is allocated.
    """

    def __init__(self, mode: str, n: int, n_theta: int, n_phi: int | None = None):
        if mode not in ("full-s2", "axisym"):
            raise ValueError(f"unknown grid mode {mode!r}")
        if mode == "axisym" and n_phi is not None:
            raise ValueError(f"axisym mode takes no n_phi, got {n_phi!r}")
        sizes = (n, n_theta) if n_phi is None else (n, n_theta, n_phi)
        if not all(isinstance(size, numbers.Integral) and not isinstance(size, bool) for size in sizes):
            raise ValueError(f"grid sizes must be integers, got n = {n!r}, n_theta = {n_theta!r}, n_phi = {n_phi!r}")
        if n < 2:
            raise ValueError("ambient sphere dimension n must be >= 2")
        if n_theta < 4:
            raise ValueError("n_theta must be >= 4")
        if n_theta * (n_phi or 1) > 10**7:  # far above AC-1's 128 x 256; nothing is allocated yet
            raise ValueError(f"a grid takes at most 10000000 nodes, got {n_theta * (n_phi or 1)}")
        self.mode = mode
        self.n = n
        self.n_theta = int(n_theta)
        self.dtheta = math.pi / self.n_theta
        self.theta = (np.arange(self.n_theta) + 0.5) * self.dtheta
        self.sin_t = np.sin(self.theta)
        self.cos_t = np.cos(self.theta)
        self.cot_t = self.cos_t / self.sin_t
        if n == 2:  # summation by parts with the theta stencil (module docstring)
            lower = 1.0 / self.dtheta**2 - self.cot_t / (2.0 * self.dtheta)
            upper = 1.0 / self.dtheta**2 + self.cot_t / (2.0 * self.dtheta)
            profile = np.cumprod(np.concatenate(([1.0], upper[:-1] / lower[1:])))
        else:
            profile = self.sin_t ** (n - 1)

        if mode == "full-s2":
            if n != 2:
                raise ValueError("full-s2 mode requires n = 2")
            if n_phi is None or n_phi < 8 or n_phi % 2:
                raise ValueError("full-s2 mode needs an even n_phi >= 8")
            self.n_phi = int(n_phi)
            self.dphi = 2.0 * math.pi / self.n_phi
            self.phi = np.arange(self.n_phi) * self.dphi
            self.node_shape = (self.n_theta, self.n_phi)
            raw = (profile * self.dtheta * self.dphi)[:, None]
            raw = np.broadcast_to(raw, self.node_shape).copy()
            self._sin = self.sin_t[:, None]
            self._cot = self.cot_t[:, None]
            st, ct = self._sin, self.cos_t[:, None]
            cp, sp = np.cos(self.phi)[None, :], np.sin(self.phi)[None, :]
            full = functools.partial(np.broadcast_to, shape=self.node_shape)
            xi = np.stack([st * cp, st * sp, full(ct)], axis=-1)
            e_theta = np.stack([ct * cp, ct * sp, full(-st)], axis=-1)
            e_phi = np.stack([-full(sp), full(cp), np.zeros(self.node_shape)], axis=-1)
            frame = (e_theta, e_phi)
        else:
            self.n_phi = None
            self.dphi = None
            self.phi = None
            self.node_shape = (self.n_theta,)
            raw = sphere_area(n - 1) * profile * self.dtheta
            self._sin = self.sin_t
            self._cot = self.cot_t
            xi = np.stack([self.sin_t, self.cos_t], axis=-1)
            frame = (np.stack([self.cos_t, -self.sin_t], axis=-1),)
        for a in (xi, *frame):
            a.flags.writeable = False
        self.xi, self.frame = xi, frame

        self.weights = raw * (sphere_area(n) / raw.sum())

        # flat node index of each entry of the ghost-padded copy: the pole
        # rows repeat beyond the poles, turned half a turn on full-s2 grids,
        # and the phi columns wrap
        index = np.concatenate(([0], np.arange(self.n_theta), [self.n_theta - 1]))
        if mode == "full-s2":
            turn = np.zeros_like(index)
            turn[[0, -1]] = self.n_phi // 2
            cols = np.arange(-1, self.n_phi + 1)
            index = index[:, None] * self.n_phi + (cols + turn[:, None]) % self.n_phi
        self._ghost = index
        self._inverses = ((), None)  # resolvent keys, their stacked inverse blocks

    # -- differential operators on the round metric -------------------------

    def derivatives(self, v: np.ndarray):
        """(gradient, Hessian) components of v from one ghost-padded copy.

        The gradient is in the orthonormal frame: full-s2 (d/dtheta,
        d/dphi / sin theta); axisym (d/dtheta,), the azimuthal components
        being identically zero.  The covariant Hessian of the round metric
        is in the same frame: full-s2 (H11, H12, H22); axisym (H_meridional,
        H_tangential), the tangential value shared by the n - 1 degenerate
        directions.  Christoffel terms are included, so the trace is the
        sphere Laplacian.  v holds one field, or a stack of fields along
        leading axes, and every component then carries the same leading
        axes.  Phi differences are taken on the ghost rows too, so the theta
        difference of d/dphi carries the antipodal continuation into the
        mixed derivative.
        """
        v = np.asarray(v, float)
        stack = v.shape[: v.ndim - len(self.node_shape)]
        p = v.reshape(stack + (-1,)).take(self._ghost, axis=-1)
        if self.mode == "axisym":
            above, below = p[..., 2:], p[..., :-2]
        else:
            above, below = p[..., 2:, 1:-1], p[..., :-2, 1:-1]  # theta ghosts only
        vt = (above - below) / (2.0 * self.dtheta)
        twice = 2.0 * v  # shared by the theta-theta and phi-phi stencils
        vtt = (above - twice + below) / self.dtheta**2
        if self.mode == "axisym":
            return (vt,), (vtt, self._cot * vt)
        dp = (p[..., 2:] - p[..., :-2]) / (2.0 * self.dphi)
        vp = dp[..., 1:-1, :]
        vtp = (dp[..., 2:, :] - dp[..., :-2, :]) / (2.0 * self.dtheta)
        vpp = (p[..., 1:-1, 2:] - twice + p[..., 1:-1, :-2]) / self.dphi**2
        h12 = (vtp - self._cot * vp) / self._sin
        h22 = vpp / self._sin**2 + self._cot * vt
        return (vt, vp / self._sin), (vtt, h12, h22)

    def integrate(self, v):
        return self.reduce(self.weights * np.asarray(v, float))

    def reduce(self, v, how: str = "sum"):
        """Sum, "min" or "max" of the array v over the node axes, per field of a stack
        along leading axes (a float for one field).  Each field reduces as one contiguous
        axis, as np.sum reduces a lone field, so a stacked field keeps its bits."""
        ufunc = {"sum": np.add, "min": np.minimum, "max": np.maximum}[how]  # what ndarray.sum/min/max run
        out = ufunc.reduce(v.reshape(v.shape[: v.ndim - len(self.node_shape)] + (-1,)), axis=-1)
        return float(out) if out.ndim == 0 else out

    @functools.lru_cache(maxsize=8)
    def _laplacian_diagonals(self):
        """(sub, diag, super) diagonals of the discrete Laplacian's zonal blocks.

        Delta is the trace of the Hessian that derivatives gives, the
        operator the steppers take implicitly.  It commutes with phi-shifts, so the rfft
        over phi of its responses to one delta per theta-row gives one real
        (it is even in phi) n_theta x n_theta block per wavenumber m =
        0..n_phi // 2; axisymmetric grids have the single block of m = 0.
        The stencils reach one row either side, so the blocks are
        tridiagonal and their diagonals, shapes (blocks, n_theta - 1),
        (blocks, n_theta) and (blocks, n_theta - 1), hold them whole.
        Cached per grid like the shapes' mode tables; equal grids share an
        entry.
        """
        responses = []
        for j in range(self.n_theta):
            delta = np.zeros(self.node_shape)
            delta.reshape(self.n_theta, -1)[j, 0] = 1.0
            hess = self.derivatives(delta)[1]
            responses.append(hess[0] + (self.n - 1) * hess[1] if self.mode == "axisym" else hess[0] + hess[2])
        blocks = np.stack(responses, axis=-1)[None]  # [block, row i, (phi offset,)] delta row j
        if self.mode == "full-s2":
            blocks = np.fft.rfft(blocks[0], axis=1).real.transpose(1, 0, 2)
        return tuple(np.diagonal(blocks, k, axis1=1, axis2=2).copy() for k in (-1, 0, 1))

    def resolvent(self, v: np.ndarray, keys) -> np.ndarray:
        """(I - s_i Delta)^-1 v_i for each field v_i of the stack v.

        ``keys`` holds one s_i per field, and the solve runs per zonal
        wavenumber.  The inverses of the blocks of I - s Delta come from
        one batched Thomas sweep of I over a key set and are kept for that set
        alone; keys that are the set's trailing keys read them as a view, so
        the flows' extrapolation rounds, each a trailing part of the level
        set, share one sweep.
        """
        keys = tuple(keys)
        cached, inverse = self._inverses
        if cached[len(cached) - len(keys):] == keys:
            inverse = inverse[len(cached) - len(keys):]
        else:
            self._inverses, inverse = ((), None), None  # drop the old blocks before building the new
            sub, diag, sup = self._laplacian_diagonals()
            s = np.asarray(keys)[:, None, None]
            sub, diag, sup = (d.reshape(-1, d.shape[-1]) for d in (-s * sub, 1.0 - s * diag, -s * sup))
            eye = np.broadcast_to(np.eye(self.n_theta), diag.shape + (self.n_theta,))
            inverse = _tridiagonal_solve(sub, diag, sup, eye).reshape((len(keys), -1) + eye.shape[1:])
            self._inverses = (keys, inverse)
        # constants are fixed points; solving for the deviation from one keeps
        # them to the last bit whatever the round-off in the blocks
        offset = v[(slice(None),) + (slice(1),) * len(self.node_shape)]  # each field's first node
        v = v - offset
        if self.mode == "axisym":
            return offset + np.matmul(inverse[:, 0], v[..., None])[..., 0]
        spec = np.fft.rfft(v, axis=-1)
        # the real blocks act on the real and imaginary parts alike: one real
        # matmul on a (field, m, theta, part) view, with no complex blocks
        parts = spec.view(float).reshape(spec.shape + (2,)).swapaxes(-3, -2)
        spec = np.matmul(inverse, parts).swapaxes(-3, -2).copy().view(complex)[..., 0]
        return offset + np.fft.irfft(spec, n=self.n_phi, axis=-1)

    # -- embedding in R^(n+1) ---------------------------------------------------

    def project(self, c) -> np.ndarray:
        """<c, xi> at the nodes: the normal speed of a translation by c.

        ``c`` is a 3-vector on full-s2 grids and the scalar axis offset on
        axisymmetric ones (the formats ``geometry.centroid`` returns); any
        other shape raises ValueError.
        """
        c = np.asarray(c, float)
        if self.mode == "axisym" and c.shape == ():
            return float(c) * self.cos_t
        if self.mode == "full-s2" and c.shape == (3,):
            return (self.xi.reshape(-1, 3) @ c).reshape(self.node_shape)
        want = "a scalar axis offset" if self.mode == "axisym" else "a 3-vector"
        raise ValueError(f"{self.mode} grids take {want}, got shape {c.shape}")

    def zonal(self, v) -> np.ndarray:
        """A new node array holding the per-row values v (one per colatitude)."""
        return np.broadcast_to(np.reshape(v, self._sin.shape), self.node_shape).astype(float)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def full_s2(cls, n_theta: int, n_phi: int) -> "SphericalGrid":
        return cls("full-s2", 2, n_theta, n_phi)

    @classmethod
    def axisym(cls, n: int, n_theta: int) -> "SphericalGrid":
        return cls("axisym", n, n_theta)

    @classmethod
    def from_dict(cls, data: dict) -> "SphericalGrid":
        res = data["resolution"]
        want = 1 if data["mode"] == "axisym" else 2
        if len(res) != want:
            raise ValueError(f"{data['mode']} resolution takes {want} entries, got {res!r}")
        return cls(data["mode"], data["n"], *res)

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

    @classmethod
    def from_dict(cls, data: dict) -> "ScalarField":
        missing = [key for key in ("mode", "n", "resolution", "values") if key not in data]
        if missing:
            raise ValueError(f"field data lacks {', '.join(missing)}")
        grid = SphericalGrid.from_dict(data)
        values = np.asarray(data["values"], float).reshape(grid.node_shape)
        return cls(grid, values)
