"""Exact Gutt-Hutchings capacities of 4-dimensional ellipsoids, polydisks,
and Minkowski sums of ellipsoids, with certified Brunn-Minkowski checks.

A sum E(a,b) + E(c,d) is an ``EllipsoidPair``, as ``parse_domain`` returns
it for ``sum(...)``.  Capacities are exact rational multiples of pi, and
``minkowski``, the engine, computes every one of them; ``capacity`` takes
any domain, a ``ProductWithBall`` too.  ``bm`` writes Brunn-Minkowski
certificates, each with the sum's argmin as its witness;
``reproduce_theorem`` yields the paper's, one per k, as it is read.
``verify`` is the one exact verifier and the home of the certificate
record ``BMCertificate``: ``cross_check`` re-derives a capacity and
``verify_certificate`` a certificate, from ``domains`` and ``exact``
alone, never with the engine that wrote it; those three modules are the
trusted base.  Floating point is confined to ``_kernels``, the one module
that imports numpy: the numeric oracles (no settings), the boundary-curve
samplers and the Monte Carlo mean-width estimator.  No exact module
imports it, so an exact computation or its verification never loads numpy.

The namespace is lazy (PEP 562): importing the package loads none of its
modules, and each public name loads its module on first access.
``_MODULES`` is the one list of public names.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "exact": "Ordering PiRational Verdict format_decimal format_rational",
    "domains": (
        "DomainParseError DomainSpec Ellipsoid EllipsoidPair IndexVector Polydisk ProductWithBall"
        " format_domain parse_domain"
    ),
    "minkowski": (
        "StabilizationError capacity ellipsoid_capacity ellipsoid_norm_argmin polydisk_capacity"
        " sum_capacity sum_capacity_with_argmin support_norm"
    ),
    "bm": (
        "CriterionReport ReproductionError bm_check cmp_sqrt_combination even_family"
        " expected_family_coeff mean_width odd_family ostrover_criterion reproduce_theorem"
    ),
    "verify": "BMCertificate cross_check verify_certificate",
    "_kernels": (
        "ConvexityReport MeanWidthEstimate OmegaSample SignCheckReport convexity_check"
        " mean_width_estimate omega_curve s_derivative_signcheck support_norm_numeric"
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
