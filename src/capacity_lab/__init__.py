"""Exact Gutt-Hutchings capacities of 4-dimensional ellipsoids, polydisks,
and Minkowski sums of ellipsoids, with certified Brunn-Minkowski checks.

A sum E(a,b) + E(c,d) is an ``EllipsoidPair``, as ``parse_domain`` returns
it for ``sum(...)``.  Capacities are exact rational multiples of pi, and
``cross_check`` re-derives them exactly.  A Brunn-Minkowski certificate
carries the argmin of the sum as its witness, and ``verify_certificate``,
the one certificate verifier, checks every field with ``cross_check``
without the engine that wrote it.  Floating point is confined to the
numeric oracles, the boundary-curve samplers and the Monte Carlo
mean-width estimator, which import numpy when called; an exact
computation or its verification never loads numpy.

The namespace is lazy (PEP 562): importing the package loads none of its
modules, and each public name loads its module on first access.
``_MODULES`` is the one list of public names.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "exact": (
        "Ordering PiRational Rational cmp_sqrt_combination format_decimal format_rational parse_rational"
    ),
    "domains": (
        "DomainParseError DomainSpec Ellipsoid EllipsoidPair IndexVector Polydisk ProductWithBall"
        " StabilizationError capacity ellipsoid_capacity ellipsoid_norm_argmin"
        " format_domain parse_domain polydisk_capacity product_with_ball_capacity"
    ),
    "minkowski": (
        "ConvexityReport OmegaSample StrictnessReport convexity_check omega_curve strictness_check sum_capacity"
        " sum_capacity_with_argmin support_norm"
    ),
    "oracle": "OracleConfig SignCheckReport cross_check golden_max s_derivative_signcheck support_norm_numeric",
    "bm": (
        "BMCertificate CriterionReport MeanWidthEstimate ReproduceRow ReproductionError Verdict bm_check"
        " even_family expected_family_coeff mean_width mean_width_estimate odd_family ostrover_criterion"
        " reproduce_theorem verify_certificate"
    ),
}
# public name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
