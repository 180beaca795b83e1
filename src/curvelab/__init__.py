"""curvelab: numerical laboratory for locally constrained curvature flows.

The package simulates two flows of closed hypersurfaces in R^(n+1):

* a radial-graph flow whose speed couples the mean curvature with a radial
  speed profile f(r), engineered so that the curvature-weighted volume
  integral of f^(n/(n-1)) decreases while the surface rounds off, and
* a support-function flow dh/dt = 1 - h * E_k/E_{k-1} that preserves one
  quermassintegral while rounding strictly convex bodies.

On top of the flows it evaluates quermassintegrals, Michael-Simon-type
inequality deficits, and the algebraic identities of the normalized
elementary symmetric functions that make the flows tick.
"""

from . import errors
from .errors import (
    AssumptionViolated,
    ConeViolation,
    ConfigError,
    ConvexityLost,
    CurveLabError,
    DegenerateMetric,
    InsufficientData,
    NonpositiveDensity,
    NonpositiveSupport,
    NotStarshaped,
    StepCollapse,
    ZeroMeanCurvature,
)
from .symfunc import (
    curvature_quotient,
    curvature_quotient_gradient,
    ek_derivative_eigen,
    ek_derivative_tensor,
    elementary_symmetric,
    gamma_cone_member,
    newton_maclaurin_gap,
    sigma_all,
)
from .sphere_grid import ScalarField, SphericalGrid
from .geometry import (
    CurvatureField,
    StaticConvexityReport,
    radial_geometry,
    radial_mean_curvature_direct,
    sphericity,
    static_convexity,
    support_geometry,
)
from .functionals import (
    DeficitReport,
    QuermassVector,
    ball_quermass,
    ball_quermass_inverse,
    calibrate_sharp_constant,
    michael_simon_deficit_H,
    michael_simon_deficit_k,
    monotone_quantities,
    quermassintegrals,
    sphere_area,
)
from .flows import (
    DecayFit,
    FlowConfig,
    FlowTrace,
    SpeedProfile,
    estimate_decay_rate,
    run_flow,
    validate_radial_profile,
    validate_support_profile,
)
from . import shapes

__version__ = "0.1.0"
