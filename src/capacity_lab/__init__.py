"""Exact Gutt-Hutchings capacities of 4-dimensional ellipsoids, polydisks,
and Minkowski sums of ellipsoids, with certified Brunn-Minkowski checks.

Capacity values are exact rational multiples of pi, and ``cross_check``,
the one verification path, re-derives them exactly as well.  Floating
point is confined to the numeric oracles, which are library
cross-checks, the boundary-curve samplers, and the Monte Carlo
mean-width estimator.  Those that need numpy import it and ``_kernels``
when called, so importing this package, running an exact computation
or verifying one never loads numpy.
"""

from .exact import (
    Ordering,
    PiRational,
    Rational,
    cmp_rational_sqrt,
    cmp_sqrt_combination,
    format_rational,
    parse_rational,
)
from .domains import (
    DomainParseError,
    DomainSpec,
    Ellipsoid,
    EllipsoidPair,
    EllipsoidSum,
    IndexVector,
    Polydisk,
    ProductWithBall,
    StabilizationError,
    capacity,
    ellipsoid_capacity,
    ellipsoid_norm_argmin,
    ellipsoid_product_capacity,
    format_domain,
    parse_domain,
    polydisk_capacity,
    product_with_ball_capacity,
    scale_domain,
)
from .minkowski import (
    BoundaryPoint,
    ConvexityReport,
    OmegaSample,
    StrictnessReport,
    convexity_check,
    cy_boundary_point,
    general_cy_map,
    omega_curve,
    strictness_check,
    sum_capacity,
    sum_capacity_with_argmin,
    support_norm,
)
from .oracle import (
    OracleConfig,
    SignCheckReport,
    cross_check,
    golden_max,
    s_derivative,
    s_derivative_signcheck,
    s_profile,
    support_norm_numeric,
)
from .bm import (
    BMCertificate,
    CriterionReport,
    MeanWidthEstimate,
    ReproduceRow,
    ReproductionError,
    Verdict,
    bm_check,
    even_family,
    expected_family_coeff,
    mean_width_estimate,
    odd_family,
    ostrover_criterion,
    reproduce_theorem,
    verify_certificate,
)

__version__ = "0.1.0"
