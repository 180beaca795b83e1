"""Sharp curvature-weighted Sobolev deficits and where their constants live.

The mean-curvature functional

    lhs = int sqrt(|grad f|^2 + f^2 H^2) dmu,
    rhs = n |S^n|^(1/n) (int f^(n/(n-1)) dmu)^((n-1)/n)

has lhs = rhs exactly on round spheres with constant f.  With f = 1 the
deficit is nonnegative across random starshaped bodies.  For strongly
varying densities the sphere-area normalization above is genuinely too
large: concentrating f on a nearly flat patch pushes the relative deficit
toward the flat-patch limit (|B^n| / |S^n|)^(1/n) - 1 = -1/2 (n = 2), the
bound Brendle proved for every positive f, which the last block demonstrates
on an exact sphere.

The k-th mean curvature variant fixes its constant on the unit sphere and
normalises the density at the comparison radius R, so that f(R) = R^-(n-k);
with constant f the deficit is then equivalent to the quermassintegral
inequality V_{k+1}^(n+1-k) >= |S^n| V_k^(n-k), sharp on balls.
"""

import numpy as np

from curvelab import (
    SpeedProfile,
    SphericalGrid,
    michael_simon_deficit_H,
    michael_simon_deficit_k,
    radial_geometry,
    sphericity,
    support_geometry,
)
from curvelab.shapes import random_convex_support, sphere_radial

# equality case: spheres with constant density
grid = SphericalGrid.full_s2(64, 128)
geom = radial_geometry(sphere_radial(grid, 1.0))
rep = michael_simon_deficit_H(geom, 1.0)
print("unit sphere, f = 1:   lhs = %.9f rhs = %.9f deficit = %.2e"
      % (rep.lhs, rep.rhs, rep.deficit))

# perturbed spheres, constant density: the deficit grows with the distortion
# and vanishes quadratically at the round limit (rigidity)
from curvelab import ScalarField
from curvelab.shapes import harmonic_mode

print("\nharmonically perturbed spheres, f = 1:")
bump = 0.6 * harmonic_mode(grid, 2, 2) + 0.4 * harmonic_mode(grid, 3, 1)
for amp in (0.2, 0.1, 0.05, 0.025):
    geo = radial_geometry(ScalarField(grid, 1.0 + amp * bump))
    rep = michael_simon_deficit_H(geo, 1.0)
    print("  amplitude %.3f: sphericity %.4f -> relative deficit %+.6f"
          % (amp, sphericity(geo), rep.rel_deficit))

# concentration: the area-normalized constant fails for peaked densities
print("\nconcentrated density on the exact unit sphere (s = concentration scale):")
for s in (1, 16, 256):
    nt = max(96, int(8 * np.sqrt(s)) * 2)
    g = SphericalGrid.full_s2(nt, 2 * nt)
    geo = radial_geometry(sphere_radial(g, 1.0))
    f = 1e-9 + np.exp(-s * (1.0 - g.cos_t))[:, None] * np.ones(g.node_shape)
    df = s * (-g.sin_t) * np.exp(-s * (1.0 - g.cos_t))
    grad = (np.broadcast_to(df[:, None], g.node_shape).copy(), np.zeros(g.node_shape))
    rep = michael_simon_deficit_H(geo, f, grad)
    print("  s = %4d: relative deficit %+.4f" % (s, rep.rel_deficit))
print("  (tends toward -1/2: only the flat-patch constant is universal)")

# k-th curvature deficit: the unit sphere, then a convex body under f = h
print("\nk = 2, n = 3 deficits:")
g3 = SphericalGrid.axisym(3, 96)
rep = michael_simon_deficit_k(radial_geometry(sphere_radial(g3, 1.0)), 1.0, k=2)
print("  unit sphere, f = 1:    deficit = %+.3e (relative %+.3e)" % (rep.deficit, rep.rel_deficit))
h = random_convex_support(g3, np.random.default_rng(3), amp=0.1)
geo3 = support_geometry(h)
density = SpeedProfile.power(1.0)
grad_f = tuple(density.df(h.values) * g for g in geo3.grad)
rep = michael_simon_deficit_k(geo3, density.f(h.values), grad_f, k=2, f_of_R=density.f)
print("  convex body, f = h:    deficit = %+.3e (relative %+.3e)" % (rep.deficit, rep.rel_deficit))
print("  (f is scaled by R^-(n-k) / f(R) first, so every centred sphere is an equality case)")
